// Reproduces Table 4: insertion throughput (tuples/second) over 5 batches of
// new tuples appended to an existing table, PRKB vs Logarithmic-SRC-i
// (Sec. 8.2.7).

#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "srci/srci.h"
#include "workload/query_gen.h"
#include "workload/synthetic_table.h"

namespace prkb::bench {
namespace {

int Main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv, /*default_scale=*/0.02);
  // --smoke: CI-sized run (tiny table, same shape) so the schema gate can
  // execute this bench on every push without paying the full workload.
  const bool smoke = args.smoke;
  const size_t base_rows = smoke ? 2'000 : ScaledRows(10'000'000, args.scale);
  const size_t batch_rows = smoke ? 400 : ScaledRows(2'000'000, args.scale);
  const size_t warm_partitions = smoke ? 40 : 250;
  PrintBanner("Table 4: insert throughput over 5 batches",
              "EDBT'18 Table 4", args,
              "PRKB sustains ~10x the SRC-i throughput and stays flat across "
              "batches (O(lg k) per insert, independent of table size)");

  workload::SyntheticSpec spec;
  spec.rows = base_rows;
  spec.seed = args.seed;
  const auto plain = workload::MakeSyntheticTable(spec);

  // Two identical deployments so each method pays only its own maintenance.
  auto db_prkb = edbms::CipherbaseEdbms::FromPlainTable(args.seed, plain);
  auto db_srci = edbms::CipherbaseEdbms::FromPlainTable(args.seed, plain);

  core::PrkbIndex index(&db_prkb, core::PrkbOptions{.seed = args.seed});
  index.EnableAttr(0);
  workload::QueryGen warm_gen(spec.domain_lo, spec.domain_hi, args.seed + 3);
  WarmToPartitions(&index, &db_prkb, 0, &warm_gen, warm_partitions);

  // Warm-up at zero latency; the timed batches pay the simulated TM
  // round-trip on every QPF call, which is what separates the two methods.
  db_prkb.trusted_machine().set_call_latency_ns(args.tm_latency_ns);
  db_srci.trusted_machine().set_call_latency_ns(args.tm_latency_ns);

  srci::LogSrcI srci_index(&db_srci, 0, spec.domain_lo, spec.domain_hi);
  if (auto s = srci_index.Build(/*capacity_factor=*/4.0); !s.ok()) return 1;

  JsonBench json("bench_table4_update", args);
  json.Config("smoke", smoke ? "true" : "false");
  json.Config("base_rows", static_cast<double>(base_rows));
  json.Config("batch_rows", static_cast<double>(batch_rows));

  TablePrinter tp("insert throughput (tuples/second), batches of " +
                  std::to_string(batch_rows));
  tp.SetHeader({"batch", "PRKB", "Log-SRC-i"});

  Rng vrng(args.seed + 11);
  for (int batch = 1; batch <= 5; ++batch) {
    Stopwatch prkb_watch;
    for (size_t i = 0; i < batch_rows; ++i) {
      index.Insert({vrng.UniformInt64(spec.domain_lo, spec.domain_hi)});
    }
    const double prkb_tps =
        static_cast<double>(batch_rows) / prkb_watch.ElapsedSeconds();

    Stopwatch srci_watch;
    for (size_t i = 0; i < batch_rows; ++i) {
      const auto tid = db_srci.Insert(
          {vrng.UniformInt64(spec.domain_lo, spec.domain_hi)});
      if (auto s = srci_index.InsertTuple(tid); !s.ok()) {
        std::fprintf(stderr, "SRC-i insert failed: %s\n",
                     s.ToString().c_str());
        return 1;
      }
    }
    const double srci_tps =
        static_cast<double>(batch_rows) / srci_watch.ElapsedSeconds();

    tp.AddRow({std::to_string(batch), TablePrinter::Fmt(prkb_tps, 0),
               TablePrinter::Fmt(srci_tps, 0)});
    json.BeginRow();
    json.Field("batch", static_cast<uint64_t>(batch));
    json.Field("prkb_tuples_per_s", prkb_tps);
    json.Field("srci_tuples_per_s", srci_tps);
  }
  tp.Print();
  json.WriteIfRequested(args);
  std::printf(
      "\nPaper reference (10M base, 2M batches): PRKB ~32,100-32,356 t/s "
      "flat; Log-SRC-i ~2,935-2,967 t/s\n");
  return 0;
}

}  // namespace
}  // namespace prkb::bench

int main(int argc, char** argv) { return prkb::bench::Main(argc, argv); }
