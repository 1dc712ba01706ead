// Integration tests tying the obs registry to the paper-level accounting:
// on a comparison-only workload, every QPF use a selection pays is a QFilter
// probe, a QScan partition-member evaluation, or a wasted speculative
// prefetch, so the registry's per-mechanism counters must reconcile exactly
// with SelectionStats.qpf_uses
// — both on a live run and on a transcript replay. Also the regression test
// for SelectionStats reuse across operations (StatsScope must overwrite
// every field).

#include <cmath>
#include <vector>

#include "edbms/cipherbase_qpf.h"
#include "edbms/replay.h"
#include "gtest/gtest.h"
#include "net/coalesce.h"
#include "obs/metrics.h"
#include "prkb/selection.h"
#include "tests/test_util.h"
#include "workload/query_gen.h"
#include "workload/synthetic_table.h"

namespace prkb {
namespace {

using edbms::SelectionStats;
using edbms::Trapdoor;

struct QueryRec {
  edbms::AttrId attr;
  edbms::CompareOp op;
  edbms::Value c;
};

/// Registry counters involved in comparison-selection accounting.
struct ObsReading {
  uint64_t qfilter_probes;
  uint64_t qscan_tuples;
  uint64_t qfilter_invocations;
  uint64_t spec_waste;
  uint64_t round_trips;
  /// Samples in the round-trip latency histogram the calibrator fits; every
  /// counted round trip must record exactly one.
  uint64_t round_trip_samples;

  static ObsReading Now() {
    auto& reg = obs::MetricsRegistry::Global();
    return ObsReading{
        reg.GetCounter("qfilter.probes")->value(),
        reg.GetCounter("qscan.tuples_scanned")->value(),
        reg.GetCounter("qfilter.invocations")->value(),
        reg.GetCounter("probe_sched.speculative_waste")->value(),
        reg.GetCounter("qpf.round_trips")->value(),
        reg.GetHistogram("qpf.round_trip_ns")->count(),
    };
  }
};

TEST(ObsIntegrationTest, ProbeAndScanCountersReconcileWithSelectionStats) {
  workload::SyntheticSpec spec;
  spec.rows = 20000;
  spec.seed = 7;
  const auto plain = workload::MakeSyntheticTable(spec);
  auto db = edbms::CipherbaseEdbms::FromPlainTable(3, plain);

  core::PrkbIndex index(&db, core::PrkbOptions{.seed = 11});
  index.EnableAttr(0);
  workload::QueryGen gen(spec.domain_lo, spec.domain_hi, 13);

  uint64_t stats_uses = 0;
  const ObsReading before = ObsReading::Now();
  for (int q = 0; q < 120; ++q) {
    const auto p = gen.RandomComparison(0);
    SelectionStats st;
    index.Select(db.MakeComparison(p.attr, p.op, p.lo), &st);
    stats_uses += st.qpf_uses;
  }
  const ObsReading after = ObsReading::Now();

  // Comparison selections on an enabled attribute spend QPF uses in exactly
  // three places: QFilter sampling probes, QScan NS-partition scans (the
  // tuples counter covers scheduler-prefetched outcomes QScan consumed
  // instead of re-paying), and prefetches QScan never asked for (the
  // speculation's waste).
  EXPECT_EQ((after.qfilter_probes - before.qfilter_probes) +
                (after.qscan_tuples - before.qscan_tuples) +
                (after.spec_waste - before.spec_waste),
            stats_uses);
  EXPECT_EQ(after.qfilter_invocations - before.qfilter_invocations, 120u);
  EXPECT_GT(after.round_trips - before.round_trips, 0u);
  EXPECT_EQ(after.round_trip_samples - before.round_trip_samples,
            after.round_trips - before.round_trips);
}

TEST(ObsIntegrationTest, CoalescedTransportReconcilesTheSameWay) {
  // Same identity through the round bus (net::CoalescedEdbms): coalescing
  // changes how rounds travel, never the logical QPF accounting, so probes +
  // scans + speculative waste must still equal the per-selection uses.
  workload::SyntheticSpec spec;
  spec.rows = 20000;
  spec.seed = 43;
  const auto plain = workload::MakeSyntheticTable(spec);
  auto db = edbms::CipherbaseEdbms::FromPlainTable(3, plain);
  net::CoalescedEdbms bus_db(&db);

  core::PrkbIndex index(&bus_db, core::PrkbOptions{.seed = 11});
  index.EnableAttr(0);
  workload::QueryGen gen(spec.domain_lo, spec.domain_hi, 47);

  uint64_t stats_uses = 0;
  const ObsReading before = ObsReading::Now();
  for (int q = 0; q < 120; ++q) {
    const auto p = gen.RandomComparison(0);
    SelectionStats st;
    index.Select(db.MakeComparison(p.attr, p.op, p.lo), &st);
    stats_uses += st.qpf_uses;
  }
  const ObsReading after = ObsReading::Now();

  EXPECT_EQ((after.qfilter_probes - before.qfilter_probes) +
                (after.qscan_tuples - before.qscan_tuples) +
                (after.spec_waste - before.spec_waste),
            stats_uses);
  EXPECT_EQ(after.qfilter_invocations - before.qfilter_invocations, 120u);
  EXPECT_GT(after.round_trips - before.round_trips, 0u);
  EXPECT_EQ(after.round_trip_samples - before.round_trip_samples,
            after.round_trips - before.round_trips);
}

TEST(ObsIntegrationTest, ReplayedWorkloadReconcilesTheSameWay) {
  workload::SyntheticSpec spec;
  spec.rows = 10000;
  spec.seed = 17;
  const auto plain = workload::MakeSyntheticTable(spec);
  auto live_db = edbms::CipherbaseEdbms::FromPlainTable(5, plain);

  // Live run: record the full QPF transcript and the trapdoors used.
  edbms::QpfTranscript transcript;
  edbms::RecordingEdbms recorder(&live_db, &transcript);
  std::vector<Trapdoor> tds;
  {
    core::PrkbIndex index(&recorder, core::PrkbOptions{.seed = 19});
    index.EnableAttr(0);
    workload::QueryGen gen(spec.domain_lo, spec.domain_hi, 23);
    for (int q = 0; q < 60; ++q) {
      const auto p = gen.RandomComparison(0);
      tds.push_back(live_db.MakeComparison(p.attr, p.op, p.lo));
      index.Select(tds.back());
    }
  }

  // Replay against the transcript only. Selection must pull every answer
  // from the recorded bits (misses() == 0), and the obs counters must still
  // reconcile exactly with the per-query SelectionStats accounting.
  edbms::ReplayEdbms replay(live_db.num_attrs(), live_db.num_rows(),
                            transcript);
  core::PrkbIndex replay_index(&replay, core::PrkbOptions{.seed = 19});
  replay_index.EnableAttr(0);

  uint64_t stats_uses = 0;
  const ObsReading before = ObsReading::Now();
  for (const Trapdoor& td : tds) {
    SelectionStats st;
    replay_index.Select(td, &st);
    stats_uses += st.qpf_uses;
  }
  const ObsReading after = ObsReading::Now();

  EXPECT_EQ(replay.misses(), 0u);
  EXPECT_EQ((after.qfilter_probes - before.qfilter_probes) +
                (after.qscan_tuples - before.qscan_tuples) +
                (after.spec_waste - before.spec_waste),
            stats_uses);
}

TEST(ObsIntegrationTest, ProbesPerCallRespectsLgKBound) {
  workload::SyntheticSpec spec;
  spec.rows = 20000;
  spec.seed = 29;
  const auto plain = workload::MakeSyntheticTable(spec);
  auto db = edbms::CipherbaseEdbms::FromPlainTable(7, plain);

  core::PrkbIndex index(&db, core::PrkbOptions{.seed = 31});
  index.EnableAttr(0);
  workload::QueryGen gen(spec.domain_lo, spec.domain_hi, 37);

  auto& reg = obs::MetricsRegistry::Global();
  obs::LatencyHistogram* per_call =
      reg.GetHistogram("qfilter.probes_per_call");
  obs::LatencyHistogram* chain_k = reg.GetHistogram("qfilter.chain_k");

  for (int q = 0; q < 300; ++q) {
    const auto p = gen.RandomComparison(0);
    index.Select(db.MakeComparison(p.attr, p.op, p.lo));
  }
  // Paper Sec. 6.1 bounds the binary QFilter at 2 + ceil(lg k) sampled
  // probes; the m-ary scheduler trades probes for round trips, paying at
  // most m-1 pivots per narrowing round over ceil(log_m k) rounds. The
  // histograms are process-global (other tests also record into them, all
  // with the default fanout), but the bound is monotone in k, so checking
  // against the global chain-length max remains sound.
  const double k_max = static_cast<double>(chain_k->max());
  ASSERT_GT(k_max, 0.0);
  const uint64_t m = core::PrkbOptions{}.probe_fanout;
  ASSERT_GE(m, 2u);
  const uint64_t log_m_k = static_cast<uint64_t>(
      std::ceil(std::log2(k_max) / std::log2(static_cast<double>(m))));
  const uint64_t bound = 2 + (m - 1) * log_m_k;
  EXPECT_LE(per_call->max(), bound);

  // The trip-side of the trade: every call finishes in at most the ends
  // round plus the narrowing rounds.
  obs::LatencyHistogram* rounds_per_call =
      reg.GetHistogram("qfilter.rounds_per_call");
  EXPECT_LE(rounds_per_call->max(), 2 + log_m_k);
}

TEST(ObsIntegrationTest, ReusedSelectionStatsNeverKeepsStaleFields) {
  workload::SyntheticSpec spec;
  spec.rows = 5000;
  spec.seed = 41;
  const auto plain = workload::MakeSyntheticTable(spec);
  auto db = edbms::CipherbaseEdbms::FromPlainTable(9, plain);

  // Batched scan policy so the selection records qpf_batches > 0, under the
  // m = 2 control so Insert's placement ships one cut per round as a scalar
  // Eval — the assertions below pin that batches==0 / trips==uses signature.
  core::PrkbIndex index(&db, testutil::FanoutTwoControl(core::PrkbOptions{
                                 .seed = 43, .batch_size = 256}));
  index.EnableAttr(0);
  workload::QueryGen gen(spec.domain_lo, spec.domain_hi, 47);
  for (int q = 0; q < 30; ++q) {  // grow a chain so selects batch-scan
    const auto p = gen.RandomComparison(0);
    index.Select(db.MakeComparison(p.attr, p.op, p.lo));
  }

  SelectionStats st;
  const auto p = gen.RandomComparison(0);
  index.Select(db.MakeComparison(p.attr, p.op, p.lo), &st);
  ASSERT_GT(st.qpf_batches, 0u) << "select did not batch; test setup broken";

  // Insert places the tuple with scalar QPF probes — no batches. Before
  // StatsScope, Insert left qpf_batches untouched, so a reused struct
  // reported the previous selection's value here.
  index.Insert({123}, &st);
  EXPECT_EQ(st.qpf_batches, 0u);
  EXPECT_GT(st.qpf_uses, 0u);
  EXPECT_EQ(st.qpf_round_trips, st.qpf_uses);
}

}  // namespace
}  // namespace prkb
