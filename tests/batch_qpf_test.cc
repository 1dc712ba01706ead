// Differential tests for the batched QPF pipeline: for identical query
// streams, the batched/parallel paths must be observationally identical to
// the paper's scalar model — same winner sets, same final POP chains, same
// total QPF-use counts — at every batch size, with batch_size = 1
// reproducing today's behaviour exactly.

#include <cstddef>
#include <vector>

#include "edbms/batch_scan.h"
#include "edbms/cipherbase_qpf.h"
#include "edbms/sdb_qpf.h"
#include "edbms/service_provider.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "prkb/selection.h"
#include "tests/test_util.h"
#include "workload/query_gen.h"

namespace prkb::core {
namespace {

using edbms::BatchPolicy;
using edbms::CipherbaseEdbms;
using edbms::CompareOp;
using edbms::PlainPredicate;
using edbms::PlainTable;
using edbms::SdbEdbms;
using edbms::SelectionStats;
using edbms::Trapdoor;
using edbms::TupleId;
using edbms::Value;
using testutil::OracleSelect;
using testutil::OracleSelectAll;
using testutil::RandomTable;
using testutil::Sorted;

constexpr uint64_t kSeed = 0xBA7C4;

// The batch sizes the issue pins down, including the degenerate scalar one
// and one far larger than any table in these tests (single-batch scans).
const size_t kBatchSizes[] = {1, 7, 64, 4096};

// Full structural identity of a chain: partition order and exact member
// order within each partition (both paths append tuples in member order, so
// even the ordering must survive batching).
std::vector<std::vector<TupleId>> ChainShape(const Pop& pop) {
  std::vector<std::vector<TupleId>> shape;
  shape.reserve(pop.k());
  for (size_t p = 0; p < pop.k(); ++p) shape.push_back(pop.members_at(p).ToVector());
  return shape;
}

// ------------------------------------------------------------ oracle level

TEST(EvalBatchTest, MatchesScalarBitsAndAccountsUses) {
  Rng rng(3);
  const PlainTable plain = RandomTable(200, 1, &rng);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  const Trapdoor td = db.MakeComparison(0, CompareOp::kLt, 500);

  std::vector<TupleId> tids;
  for (TupleId t = 0; t < 200; ++t) tids.push_back(t);

  std::vector<bool> scalar;
  for (TupleId t : tids) scalar.push_back(db.Eval(td, t));
  const uint64_t uses_after_scalar = db.uses();
  EXPECT_EQ(uses_after_scalar, 200u);
  EXPECT_EQ(db.round_trips(), 200u);

  const BitVector bits = db.EvalBatch(td, tids);
  for (size_t i = 0; i < tids.size(); ++i) {
    EXPECT_EQ(bits.Get(i), scalar[i]) << "tuple " << tids[i];
  }
  // One batch: |tids| more uses, exactly one more round trip.
  EXPECT_EQ(db.uses(), uses_after_scalar + 200u);
  EXPECT_EQ(db.round_trips(), 201u);
  EXPECT_EQ(db.batches(), 1u);
}

TEST(EvalBatchTest, SdbBackendMatchesScalarAndCountsOneRound) {
  Rng rng(4);
  const PlainTable plain = RandomTable(150, 1, &rng);
  auto db = SdbEdbms::FromPlainTable(kSeed, plain);
  const Trapdoor td = db.MakeComparison(0, CompareOp::kGe, 300);

  std::vector<TupleId> tids;
  for (TupleId t = 0; t < 150; ++t) tids.push_back(t);
  std::vector<bool> scalar;
  for (TupleId t : tids) scalar.push_back(db.Eval(td, t));
  const uint64_t rounds_after_scalar = db.rounds();
  EXPECT_EQ(rounds_after_scalar, 150u);

  const BitVector bits = db.EvalBatch(td, tids);
  for (size_t i = 0; i < tids.size(); ++i) {
    EXPECT_EQ(bits.Get(i), scalar[i]);
  }
  EXPECT_EQ(db.rounds(), rounds_after_scalar + 1);  // one MPC round
}

TEST(ScanTuplesTest, AllPoliciesAgreeOnBitsAndUses) {
  Rng rng(5);
  const PlainTable plain = RandomTable(300, 1, &rng);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  const Trapdoor td = db.MakeComparison(0, CompareOp::kGt, 444);
  std::vector<TupleId> tids;
  for (TupleId t = 0; t < 300; ++t) tids.push_back(t);

  db.ResetUses();
  const std::vector<uint8_t> ref = ScanTuples(&db, td, tids, BatchPolicy{});
  const uint64_t ref_uses = db.uses();
  EXPECT_EQ(ref_uses, 300u);

  for (size_t batch : kBatchSizes) {
    for (size_t workers : {size_t{1}, size_t{4}}) {
      db.ResetUses();
      const std::vector<uint8_t> got =
          ScanTuples(&db, td, tids, BatchPolicy{batch, workers});
      EXPECT_EQ(got, ref) << "batch=" << batch << " workers=" << workers;
      EXPECT_EQ(db.uses(), ref_uses)
          << "batch=" << batch << " workers=" << workers;
      if (batch > 1) {
        EXPECT_EQ(db.round_trips(), (tids.size() + batch - 1) / batch);
      }
    }
  }
}

// ------------------------------------------------------- full PRKB workload

struct Workbench {
  Workbench(const PlainTable& plain, PrkbOptions options)
      : db(CipherbaseEdbms::FromPlainTable(kSeed, plain)),
        index(&db, options) {
    index.EnableAttr(0);
    // attr 1 stays un-enabled so its queries exercise the no-index linear
    // scan fallback.
  }

  CipherbaseEdbms db;
  PrkbIndex index;
};

// Drives the same mixed single-predicate workload (comparisons, BETWEENs,
// no-index fallback scans, inserts, deletes) through one scalar-policy and
// one batched-policy instance, comparing every observable after every step.
void RunDifferentialWorkload(size_t batch_size, size_t workers) {
  SCOPED_TRACE(::testing::Message()
               << "batch_size=" << batch_size << " workers=" << workers);
  Rng data_rng(11);
  // Mutable: rows inserted during the workload are mirrored here so the
  // plaintext oracle stays the ground truth for the whole run.
  PlainTable plain = RandomTable(500, 2, &data_rng, 0, 2000);

  // Both sides run the m = 2 control: this suite pins the *scan* batch
  // pipeline against the scalar model, and the default probe schedule (a
  // separate axis, differential-tested in probe_sched_test.cc) would
  // otherwise add batch-size-dependent speculative prefetches to the QPF
  // spend.
  const PrkbOptions scalar_opts = testutil::FanoutTwoControl();
  PrkbOptions batched_opts = testutil::FanoutTwoControl();
  batched_opts.batch_size = batch_size;
  batched_opts.scan_workers = workers;
  Workbench ref(plain, scalar_opts);
  Workbench bat(plain, batched_opts);
  obs::Counter* probe_requests =
      obs::MetricsRegistry::Global().GetCounter("probe_sched.requests");
  obs::Counter* probe_rounds =
      obs::MetricsRegistry::Global().GetCounter("probe_sched.rounds");
  const uint64_t requests0 = probe_requests->value();
  const uint64_t rounds0 = probe_rounds->value();

  workload::QueryGen gen(0, 2000, 77);
  Rng op_rng(99);
  for (int step = 0; step < 120; ++step) {
    const uint64_t dice = op_rng.UniformInt64(0, 9);
    SCOPED_TRACE(::testing::Message() << "step " << step << " dice " << dice);
    SelectionStats ref_stats, bat_stats;
    if (dice < 5) {
      // Comparison on the PRKB attribute.
      const PlainPredicate p = gen.RandomComparison(0);
      const auto r = ref.index.Select(
          ref.db.MakeComparison(p.attr, p.op, p.lo), &ref_stats);
      const auto b = bat.index.Select(
          bat.db.MakeComparison(p.attr, p.op, p.lo), &bat_stats);
      EXPECT_EQ(Sorted(r), Sorted(b));
      EXPECT_EQ(Sorted(b), OracleSelect(plain, p, &bat.db));
    } else if (dice < 7) {
      // BETWEEN on the PRKB attribute (Appendix A path).
      const Value lo = op_rng.UniformInt64(0, 1500);
      const Value hi = lo + op_rng.UniformInt64(0, 400);
      const auto r =
          ref.index.Select(ref.db.MakeBetween(0, lo, hi), &ref_stats);
      const auto b =
          bat.index.Select(bat.db.MakeBetween(0, lo, hi), &bat_stats);
      EXPECT_EQ(Sorted(r), Sorted(b));
    } else if (dice < 9) {
      // Comparison on the un-enabled attribute: no-index linear scan.
      const PlainPredicate p = gen.RandomComparison(1);
      const auto r = ref.index.Select(
          ref.db.MakeComparison(p.attr, p.op, p.lo), &ref_stats);
      const auto b = bat.index.Select(
          bat.db.MakeComparison(p.attr, p.op, p.lo), &bat_stats);
      EXPECT_EQ(Sorted(r), Sorted(b));
      EXPECT_EQ(Sorted(b), OracleSelect(plain, p, &bat.db));
    } else {
      // Mutations keep both instances in lockstep.
      const Value v0 = op_rng.UniformInt64(0, 2000);
      const Value v1 = op_rng.UniformInt64(0, 2000);
      const TupleId rt = ref.index.Insert({v0, v1}, &ref_stats);
      const TupleId bt = bat.index.Insert({v0, v1}, &bat_stats);
      plain.AddRow({v0, v1});
      EXPECT_EQ(rt, bt);
      if (op_rng.UniformInt64(0, 1) == 0) {
        ref.index.Delete(rt);
        bat.index.Delete(bt);
      }
    }
    // The paper's cost metric must not notice batching at any step.
    EXPECT_EQ(ref_stats.qpf_uses, bat_stats.qpf_uses);
    EXPECT_GE(ref_stats.qpf_round_trips, bat_stats.qpf_round_trips);
  }

  // Identical cumulative QPF-use counts and identical final chains.
  EXPECT_EQ(ref.db.uses(), bat.db.uses());
  EXPECT_EQ(ChainShape(ref.index.pop(0)), ChainShape(bat.index.pop(0)));
  if (batch_size == 1 && workers == 1) {
    // batch_size = 1 must *be* the scalar scan path: every scan evaluation
    // pays its own round trip. The only trips carrying several evaluations
    // are the probe scheduler's multi-lane rounds (each search's ends
    // round), so across both instances the evaluations that shared a trip
    // are exactly the scheduler's extra lanes.
    const uint64_t shared_lanes = (probe_requests->value() - requests0) -
                                  (probe_rounds->value() - rounds0);
    EXPECT_EQ((ref.db.uses() - ref.db.round_trips()) +
                  (bat.db.uses() - bat.db.round_trips()),
              shared_lanes);
    EXPECT_EQ(bat.db.round_trips(), ref.db.round_trips());
  }
}

TEST(BatchDifferentialTest, Batch1IsExactlyScalar) {
  RunDifferentialWorkload(1, 1);
}
TEST(BatchDifferentialTest, Batch7) { RunDifferentialWorkload(7, 1); }
TEST(BatchDifferentialTest, Batch64) { RunDifferentialWorkload(64, 1); }
TEST(BatchDifferentialTest, Batch4096SingleBatchPerScan) {
  RunDifferentialWorkload(4096, 1);
}
TEST(BatchDifferentialTest, Batch64ParallelWorkers) {
  RunDifferentialWorkload(64, 4);
}

// --------------------------------------------------------- conjunction path

TEST(BatchDifferentialTest, BaselineConjunctionSurvivorSetsMatchScalar) {
  Rng data_rng(21);
  const PlainTable plain = RandomTable(400, 3, &data_rng, 0, 1000);
  workload::QueryGen gen(0, 1000, 5);

  for (int round = 0; round < 10; ++round) {
    const auto box = gen.RandomBox({0, 1, 2}, 0.5);
    auto ref_db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
    std::vector<Trapdoor> ref_tds;
    for (const auto& p : box) {
      ref_tds.push_back(ref_db.MakeComparison(p.attr, p.op, p.lo));
    }
    SelectionStats ref_stats;
    const auto ref_out = edbms::BaselineScanner(&ref_db).SelectConjunction(
        ref_tds, &ref_stats);

    for (size_t batch : kBatchSizes) {
      auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
      std::vector<Trapdoor> tds;
      for (const auto& p : box) {
        tds.push_back(db.MakeComparison(p.attr, p.op, p.lo));
      }
      SelectionStats stats;
      const auto out = edbms::BaselineScanner(&db, BatchPolicy{batch, 1})
                           .SelectConjunction(tds, &stats);
      EXPECT_EQ(Sorted(out), Sorted(ref_out)) << "batch=" << batch;
      // Predicate i runs on exactly the survivors of 0..i-1 either way.
      EXPECT_EQ(stats.qpf_uses, ref_stats.qpf_uses) << "batch=" << batch;
    }
    EXPECT_EQ(Sorted(ref_out), OracleSelectAll(plain, box, &ref_db));
  }
}

// ------------------------------------------------------- multi-dimensional

// PRKB(MD) batches with chunk-granular early stop: results must stay exact
// for every batch size (QPF spend may differ by at most the bits already in
// flight within one chunk, so it is not asserted equal here).
TEST(BatchDifferentialTest, MdWinnersExactForAllBatchSizes) {
  Rng data_rng(31);
  const PlainTable plain = RandomTable(400, 2, &data_rng, 0, 1000);
  workload::QueryGen gen(0, 1000, 13);
  std::vector<std::vector<PlainPredicate>> boxes;
  for (int i = 0; i < 12; ++i) boxes.push_back(gen.RandomBox({0, 1}, 0.4));

  for (size_t batch : kBatchSizes) {
    SCOPED_TRACE(::testing::Message() << "batch=" << batch);
    auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
    PrkbOptions opts;
    opts.batch_size = batch;
    PrkbIndex index(&db, opts);
    index.EnableAttr(0);
    index.EnableAttr(1);
    for (const auto& box : boxes) {
      std::vector<Trapdoor> tds;
      for (const auto& p : box) {
        tds.push_back(db.MakeComparison(p.attr, p.op, p.lo));
      }
      const auto got = index.SelectRangeMd(tds);
      EXPECT_EQ(Sorted(got), OracleSelectAll(plain, box, &db));
    }
  }
}

}  // namespace
}  // namespace prkb::core
