// Ablation studies for the design choices called out in DESIGN.md:
//   (a) binary-search QFilter vs a linear NS-pair hunt
//   (b) QScan early stop vs always scanning both NS partitions
//   (c) PRKB(MD) lazy vs eager chain updates
//   (d) QPF backend cost structure: Cipherbase-style TM vs SDB-style MPC
//   (e) sensitivity to per-QPF hardware latency (the paper's observation
//       that QPF evaluation dominates, Sec. 8.2.3 point 3)

#include <vector>

#include "bench/bench_util.h"
#include "common/histogram.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "edbms/sdb_qpf.h"
#include "edbms/service_provider.h"
#include "prkb/probe_sched.h"
#include "prkb/qscan.h"
#include "workload/query_gen.h"
#include "workload/synthetic_table.h"

namespace prkb::bench {
namespace {

using core::PrkbIndex;
using core::PrkbOptions;
using edbms::SelectionStats;
using edbms::Trapdoor;

/// (a) Linear NS-pair hunt: probe partition samples left to right until the
/// label flips. Costs O(position of cut) instead of O(lg k).
uint64_t LinearFilterCost(const core::Pop& pop, const Trapdoor& td,
                          edbms::Edbms* db, Rng* rng) {
  const uint64_t before = db->uses();
  if (pop.k() < 2) return 0;
  const bool first = db->Eval(td, core::SamplePartition(pop, 0, rng));
  for (size_t p = 1; p < pop.k(); ++p) {
    if (db->Eval(td, core::SamplePartition(pop, p, rng)) != first) break;
  }
  return db->uses() - before;
}

int Main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv, /*default_scale=*/0.02);
  const size_t rows = ScaledRows(10'000'000, args.scale);
  PrintBanner("Ablations: PRKB design choices", "DESIGN.md ablation index",
              args, "");

  workload::SyntheticSpec spec;
  spec.rows = rows;
  spec.seed = args.seed;
  const auto plain = workload::MakeSyntheticTable(spec);
  auto db = edbms::CipherbaseEdbms::FromPlainTable(args.seed, plain);

  PrkbIndex index(&db, PrkbOptions{.seed = args.seed});
  index.EnableAttr(0);
  workload::QueryGen warm_gen(spec.domain_lo, spec.domain_hi, args.seed + 3);
  WarmToPartitions(&index, &db, 0, &warm_gen, 250);

  JsonBench json("bench_ablation", args);
  json.Config("rows", static_cast<double>(rows));
  // Each row is one (ablation, strategy) cell; "metric" names the unit.
  auto emit = [&json](const std::string& ablation, const std::string& strategy,
                      const std::string& metric, double value) {
    json.BeginRow();
    json.Field("ablation", ablation);
    json.Field("strategy", strategy);
    json.Field("metric", metric);
    json.Field("value", value);
  };

  // ---------------- (a) QFilter: binary search vs linear hunt ----------
  {
    workload::QueryGen gen(spec.domain_lo, spec.domain_hi, args.seed + 5);
    Rng rng(args.seed + 6);
    Histogram binary_cost, linear_cost;
    for (int i = 0; i < 50; ++i) {
      const auto p = gen.RandomComparison(0);
      const Trapdoor td = db.MakeComparison(p.attr, p.op, p.lo);
      const uint64_t before = db.uses();
      core::QFilter(index.pop(0), td, &db, &rng,
                    core::kBinarySearchSched);
      binary_cost.Add(static_cast<double>(db.uses() - before));
      linear_cost.Add(
          static_cast<double>(LinearFilterCost(index.pop(0), td, &db, &rng)));
    }
    TablePrinter tp("(a) NS-pair location cost, k=" +
                    std::to_string(index.pop(0).k()));
    tp.SetHeader({"strategy", "mean #QPF", "max #QPF"});
    tp.AddRow({"binary search (paper)",
               TablePrinter::Fmt(binary_cost.Mean(), 1),
               TablePrinter::Fmt(binary_cost.Max(), 0)});
    tp.AddRow({"linear hunt", TablePrinter::Fmt(linear_cost.Mean(), 1),
               TablePrinter::Fmt(linear_cost.Max(), 0)});
    tp.Print();
    emit("qfilter", "binary_search", "mean_qpf", binary_cost.Mean());
    emit("qfilter", "linear_hunt", "mean_qpf", linear_cost.Mean());
  }

  // ---------------- (b) QScan: early stop vs scan-both -----------------
  {
    workload::QueryGen gen(spec.domain_lo, spec.domain_hi, args.seed + 7);
    Rng rng(args.seed + 8);
    Histogram early, both;
    for (int i = 0; i < 50; ++i) {
      const auto p = gen.RandomComparison(0);
      const Trapdoor td = db.MakeComparison(p.attr, p.op, p.lo);
      const auto filter = core::QFilter(index.pop(0), td, &db, &rng,
                                        core::kBinarySearchSched);
      uint64_t before = db.uses();
      core::QScan(index.pop(0), filter, td, &db);
      early.Add(static_cast<double>(db.uses() - before));
      // Scan-both alternative: always pay both partitions in full.
      both.Add(static_cast<double>(
          index.pop(0).size_at(filter.ns_a) +
          (filter.ns_b != filter.ns_a ? index.pop(0).size_at(filter.ns_b)
                                      : 0)));
    }
    TablePrinter tp("(b) NS-pair scan cost");
    tp.SetHeader({"strategy", "mean #QPF"});
    tp.AddRow({"early stop (paper)", TablePrinter::Fmt(early.Mean(), 0)});
    tp.AddRow({"scan both always", TablePrinter::Fmt(both.Mean(), 0)});
    tp.Print();
    emit("qscan", "early_stop", "mean_qpf", early.Mean());
    emit("qscan", "scan_both", "mean_qpf", both.Mean());
  }

  // ---------------- (c) MD updates: lazy vs eager -----------------------
  {
    workload::SyntheticSpec md_spec = spec;
    md_spec.rows = std::min<size_t>(rows, 100000);
    md_spec.attrs = 3;
    const auto md_plain = workload::MakeSyntheticTable(md_spec);
    auto md_db = edbms::CipherbaseEdbms::FromPlainTable(args.seed, md_plain);
    PrkbIndex lazy(&md_db, PrkbOptions{.seed = 1, .eager_md_update = false});
    PrkbIndex eager(&md_db, PrkbOptions{.seed = 1, .eager_md_update = true});
    for (edbms::AttrId a = 0; a < 3; ++a) {
      lazy.EnableAttr(a);
      eager.EnableAttr(a);
    }
    std::vector<edbms::AttrId> attrs = {0, 1, 2};
    workload::QueryGen gen(md_spec.domain_lo, md_spec.domain_hi,
                           args.seed + 9);
    uint64_t lazy_total = 0, eager_total = 0;
    Histogram lazy_tail, eager_tail;
    const int kQueries = 80;
    for (int q = 0; q < kQueries; ++q) {
      const auto box = gen.RandomBox(attrs, 0.02);
      std::vector<Trapdoor> t1, t2;
      for (const auto& p : box) {
        t1.push_back(md_db.MakeComparison(p.attr, p.op, p.lo));
        t2.push_back(md_db.MakeComparison(p.attr, p.op, p.lo));
      }
      SelectionStats st;
      lazy.SelectRangeMd(t1, &st);
      lazy_total += st.qpf_uses;
      if (q >= kQueries - 20) lazy_tail.Add(static_cast<double>(st.qpf_uses));
      eager.SelectRangeMd(t2, &st);
      eager_total += st.qpf_uses;
      if (q >= kQueries - 20) eager_tail.Add(static_cast<double>(st.qpf_uses));
    }
    size_t k_lazy = 0, k_eager = 0;
    for (edbms::AttrId a = 0; a < 3; ++a) {
      k_lazy += lazy.pop(a).k();
      k_eager += eager.pop(a).k();
    }
    TablePrinter tp("(c) MD chain updates over " + std::to_string(kQueries) +
                    " box queries (" + std::to_string(md_spec.rows) +
                    " rows)");
    tp.SetHeader({"mode", "total #QPF", "last-20 mean #QPF", "sum k"});
    tp.AddRow({"lazy (paper)", TablePrinter::Fmt(lazy_total),
               TablePrinter::Fmt(lazy_tail.Mean(), 0),
               std::to_string(k_lazy)});
    tp.AddRow({"eager", TablePrinter::Fmt(eager_total),
               TablePrinter::Fmt(eager_tail.Mean(), 0),
               std::to_string(k_eager)});
    tp.Print();
    emit("md_update", "lazy", "total_qpf", static_cast<double>(lazy_total));
    emit("md_update", "eager", "total_qpf", static_cast<double>(eager_total));
  }

  // ---------------- (d) backend cost structure --------------------------
  {
    workload::SyntheticSpec b_spec = spec;
    b_spec.rows = std::min<size_t>(rows, 100000);
    const auto b_plain = workload::MakeSyntheticTable(b_spec);
    auto cb = edbms::CipherbaseEdbms::FromPlainTable(args.seed, b_plain);
    auto sdb = edbms::SdbEdbms::FromPlainTable(args.seed, b_plain);
    sdb.set_round_latency_ns(2000);  // emulate a fast LAN round trip

    TablePrinter tp("(d) warm PRKB query on different QPF backends (" +
                    std::to_string(b_spec.rows) + " rows)");
    tp.SetHeader({"backend", "mean #QPF", "mean ms"});
    auto run = [&](edbms::Edbms* backend, const std::string& name) {
      PrkbIndex idx(backend, PrkbOptions{.seed = args.seed});
      idx.EnableAttr(0);
      workload::QueryGen wgen(b_spec.domain_lo, b_spec.domain_hi,
                              args.seed + 31);
      WarmToPartitions(&idx, backend, 0, &wgen, 250);
      workload::QueryGen qgen(b_spec.domain_lo, b_spec.domain_hi,
                              args.seed + 32);
      Histogram qpf, ms;
      for (int i = 0; i < 30; ++i) {
        const auto p = qgen.RandomComparison(0);
        SelectionStats st;
        idx.Select(backend->MakeComparison(p.attr, p.op, p.lo), &st);
        qpf.Add(static_cast<double>(st.qpf_uses));
        ms.Add(st.millis);
      }
      tp.AddRow({name, TablePrinter::Fmt(qpf.Mean(), 0),
                 TablePrinter::Fmt(ms.Mean(), 3)});
      emit("backend", name, "mean_ms", ms.Mean());
    };
    run(&cb, "Cipherbase-style TM");
    run(&sdb, "SDB-style MPC (2us rounds)");
    tp.Print();
  }

  // ---------------- (e) TM latency sensitivity --------------------------
  {
    workload::SyntheticSpec l_spec = spec;
    l_spec.rows = std::min<size_t>(rows, 50000);
    const auto l_plain = workload::MakeSyntheticTable(l_spec);
    TablePrinter tp("(e) PRKB vs Baseline as per-QPF hardware latency grows (" +
                    std::to_string(l_spec.rows) + " rows)");
    tp.SetHeader({"TM latency", "PRKB ms", "Baseline ms", "speedup"});
    for (uint64_t latency_ns : {uint64_t{0}, uint64_t{1000}, uint64_t{10000}}) {
      auto ldb = edbms::CipherbaseEdbms::FromPlainTable(args.seed, l_plain);
      ldb.trusted_machine().set_call_latency_ns(latency_ns);
      PrkbIndex idx(&ldb, PrkbOptions{.seed = args.seed});
      idx.EnableAttr(0);
      workload::QueryGen wgen(l_spec.domain_lo, l_spec.domain_hi,
                              args.seed + 41);
      WarmToPartitions(&idx, &ldb, 0, &wgen, 250);
      edbms::BaselineScanner baseline(&ldb);
      workload::QueryGen qgen(l_spec.domain_lo, l_spec.domain_hi,
                              args.seed + 42);
      Histogram prkb_ms, base_ms;
      for (int i = 0; i < 5; ++i) {
        const auto p = qgen.RandomComparison(0);
        const Trapdoor td = ldb.MakeComparison(p.attr, p.op, p.lo);
        SelectionStats st;
        idx.Select(td, &st);
        prkb_ms.Add(st.millis);
        baseline.Select(td, &st);
        base_ms.Add(st.millis);
      }
      tp.AddRow({std::to_string(latency_ns / 1000) + "us",
                 TablePrinter::Fmt(prkb_ms.Mean(), 2),
                 TablePrinter::Fmt(base_ms.Mean(), 2),
                 TablePrinter::Fmt(base_ms.Mean() / prkb_ms.Mean(), 0) + "x"});
      emit("tm_latency", std::to_string(latency_ns) + "ns", "speedup",
           base_ms.Mean() / prkb_ms.Mean());
    }
    tp.Print();
  }
  json.WriteIfRequested(args);
  return 0;
}

}  // namespace
}  // namespace prkb::bench

int main(int argc, char** argv) { return prkb::bench::Main(argc, argv); }
