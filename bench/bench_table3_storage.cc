// Reproduces Table 3: storage size of the index, varying dataset size, for
// PRKB frozen after 250 and after 600 distinct queries vs Logarithmic-SRC-i
// (Sec. 8.2.3).

#include <vector>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "srci/srci.h"
#include "workload/query_gen.h"
#include "workload/synthetic_table.h"

namespace prkb::bench {
namespace {

int Main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv, /*default_scale=*/0.02);
  PrintBanner("Table 3: index storage vs dataset size",
              "EDBT'18 Table 3", args,
              "PRKB ~4 bytes/tuple, nearly identical for 250 vs 600 retained "
              "queries; Logarithmic-SRC-i is ~2 orders of magnitude larger");

  const std::vector<size_t> paper_sizes = {10'000'000, 12'000'000, 14'000'000,
                                           16'000'000, 18'000'000,
                                           20'000'000};

  JsonBench json("bench_table3_storage", args);
  TablePrinter tp("index storage (MB)");
  tp.SetHeader({"paper rows", "actual rows", "PRKB-250", "PRKB-600",
                "memb raw", "memb compressed", "Log-SRC-i"});
  for (size_t paper_rows : paper_sizes) {
    const size_t rows = ScaledRows(paper_rows, args.scale);
    workload::SyntheticSpec spec;
    spec.rows = rows;
    spec.seed = args.seed + paper_rows;
    const auto plain = workload::MakeSyntheticTable(spec);
    auto db = edbms::CipherbaseEdbms::FromPlainTable(args.seed, plain);

    core::PrkbIndex index(&db, core::PrkbOptions{.seed = args.seed});
    index.EnableAttr(0);
    workload::QueryGen gen(spec.domain_lo, spec.domain_hi, args.seed + 5);
    double prkb250 = 0;
    for (int q = 1; q <= 600; ++q) {
      const auto p = gen.RandomComparison(0);
      index.Select(db.MakeComparison(p.attr, p.op, p.lo));
      if (q == 250) prkb250 = static_cast<double>(index.SizeBytes()) / 1e6;
    }
    const double prkb600 = static_cast<double>(index.SizeBytes()) / 1e6;
    // Membership footprint side by side: the raw 4-byte tuple ids the chain
    // layout holds vs the same partitions packed into compressed MemberSets,
    // the form SizeBytes counts
    // (MemberSetTest.ClusteredChainBeatsRawFiveFoldWithOracleWinners
    // contrasts clustered and uniform data shapes).
    const double memb_raw_mb =
        static_cast<double>(index.pop(0).RawMembershipBytes()) / 1e6;
    const double memb_mb =
        static_cast<double>(index.pop(0).MembershipBytes()) / 1e6;

    srci::LogSrcI srci_index(&db, 0, spec.domain_lo, spec.domain_hi);
    if (auto s = srci_index.Build(); !s.ok()) {
      std::fprintf(stderr, "SRC-i build failed: %s\n", s.ToString().c_str());
      return 1;
    }
    const double srci_mb = static_cast<double>(srci_index.SizeBytes()) / 1e6;

    tp.AddRow({std::to_string(paper_rows / 1'000'000) + "M",
               std::to_string(rows), TablePrinter::Fmt(prkb250, 2),
               TablePrinter::Fmt(prkb600, 2), TablePrinter::Fmt(memb_raw_mb, 2),
               TablePrinter::Fmt(memb_mb, 3), TablePrinter::Fmt(srci_mb, 1)});
    json.BeginRow();
    json.Field("paper_rows", static_cast<uint64_t>(paper_rows));
    json.Field("rows", static_cast<uint64_t>(rows));
    json.Field("prkb250_mb", prkb250);
    json.Field("prkb600_mb", prkb600);
    json.Field("membership_raw_mb", memb_raw_mb);
    json.Field("membership_compressed_mb", memb_mb);
    json.Field("srci_mb", srci_mb);
  }
  tp.Print();
  json.WriteIfRequested(args);
  std::printf(
      "\nPaper reference (10M..20M rows): PRKB-250 38.2..76.3 MB, PRKB-600 "
      "38.2..76.4 MB, Log-SRC-i 3589..6758 MB\n");
  return 0;
}

}  // namespace
}  // namespace prkb::bench

int main(int argc, char** argv) { return prkb::bench::Main(argc, argv); }
