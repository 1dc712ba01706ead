// The exec/ physical-plan layer: cost-model golden values, plan rendering,
// executor actual-cost capture, read-only plan execution, and — the point of
// a cost-based planner — that the estimated ranking of routes agrees with
// the measured QPF spend on concrete workloads.

#include <cstdio>
#include <string>
#include <vector>

#include "edbms/cipherbase_qpf.h"
#include "exec/cost.h"
#include "exec/executor.h"
#include "exec/plan.h"
#include "gtest/gtest.h"
#include "prkb/selection.h"
#include "query/alt_routes.h"
#include "query/planner.h"
#include "tests/test_util.h"
#include "workload/query_gen.h"
#include "workload/synthetic_table.h"

namespace prkb::exec {
namespace {

using edbms::CipherbaseEdbms;
using edbms::CompareOp;
using edbms::PlainPredicate;
using edbms::PlainTable;
using edbms::Trapdoor;
using edbms::TupleId;
using testutil::OracleSelectAll;
using testutil::Sorted;

// ------------------------------------------------------------- Cost model

TEST(CostModelTest, CeilLgGoldenValues) {
  EXPECT_EQ(CeilLg(0), 0.0);
  EXPECT_EQ(CeilLg(1), 0.0);
  EXPECT_EQ(CeilLg(2), 1.0);
  EXPECT_EQ(CeilLg(3), 2.0);
  EXPECT_EQ(CeilLg(8), 3.0);
  EXPECT_EQ(CeilLg(9), 4.0);
  EXPECT_EQ(CeilLg(1024), 10.0);
}

TEST(CostModelTest, ComparisonGoldenValues) {
  // Developed chain: QFilter ≈ 2+⌈lg k⌉ probes, QScan ≈ 1.5·n/k (early
  // stop halfway through the second NS partition on average).
  const CostEstimate c = EstimateComparison(16, 1600);
  EXPECT_DOUBLE_EQ(c.probes, 6.0);
  EXPECT_DOUBLE_EQ(c.scans, 150.0);
  EXPECT_DOUBLE_EQ(c.Total(), 156.0);

  // Cold chain (k = 1): one probe, then the whole table.
  const CostEstimate cold = EstimateComparison(1, 200);
  EXPECT_DOUBLE_EQ(cold.probes, 1.0);
  EXPECT_DOUBLE_EQ(cold.scans, 200.0);

  // Probe count can never exceed k (one sample per partition).
  EXPECT_DOUBLE_EQ(EstimateComparison(3, 300).probes, 3.0);
}

TEST(CostModelTest, BetweenGoldenValues) {
  // Appendix A: anchor hunt + two binary searches ≈ 4+2⌈lg k⌉ probes, then
  // up to four end partitions ≈ 3·n/k scan evaluations.
  const CostEstimate b = EstimateBetween(16, 1600);
  EXPECT_DOUBLE_EQ(b.probes, 12.0);
  EXPECT_DOUBLE_EQ(b.scans, 300.0);
  EXPECT_DOUBLE_EQ(EstimateBetween(1, 200).probes, 1.0);
  EXPECT_DOUBLE_EQ(EstimateBetween(1, 200).scans, 200.0);
}

TEST(CostModelTest, MdGridGoldenValues) {
  // Per dimension: QFilter probes; bands of ≈ 2 partitions each, with the
  // cross-dimension short circuit modelled as half an evaluation per tuple.
  const CostEstimate md = EstimateMdGrid({MdDim{16, 1600}, MdDim{4, 1600}});
  EXPECT_DOUBLE_EQ(md.probes, 10.0);   // (2+4) + min(4, 2+2)
  EXPECT_DOUBLE_EQ(md.scans, 500.0);   // 0.5·(200 + 800)
  EXPECT_DOUBLE_EQ(EstimateMdGrid({}).Total(), 0.0);
}

TEST(CostModelTest, LinearScanGoldenValues) {
  const CostEstimate lin = EstimateLinearScan(777);
  EXPECT_DOUBLE_EQ(lin.probes, 0.0);
  EXPECT_DOUBLE_EQ(lin.scans, 777.0);
}

TEST(CostModelTest, CostsShrinkAsChainsDevelop) {
  // The whole premise of the PRKB: more past cuts → cheaper selections.
  EXPECT_LT(EstimateComparison(64, 2000).Total(),
            EstimateComparison(4, 2000).Total());
  EXPECT_LT(EstimateBetween(64, 2000).Total(),
            EstimateBetween(4, 2000).Total());
  EXPECT_LT(EstimateMdGrid({MdDim{64, 2000}, MdDim{64, 2000}}).Total(),
            EstimateMdGrid({MdDim{4, 2000}, MdDim{4, 2000}}).Total());
}

TEST(CostModelTest, DegenerateChainShapes) {
  // k = 0 (attribute never enabled): the estimators return the zero
  // estimate rather than dividing by the partition count.
  EXPECT_DOUBLE_EQ(EstimateComparison(0, 1000).Total(), 0.0);
  EXPECT_DOUBLE_EQ(EstimateComparison(0, 1000).round_trips, 0.0);
  EXPECT_DOUBLE_EQ(EstimateBetween(0, 1000).Total(), 0.0);
  EXPECT_DOUBLE_EQ(EstimateBufferFlush(0, 16).Total(), 0.0);
  EXPECT_DOUBLE_EQ(EstimateBufferFlush(8, 0).probes, 0.0);

  // Empty table on a bootstrapped chain: nothing to probe or scan beyond
  // the capped bounds, and never a negative or NaN component.
  const CostEstimate empty = EstimateComparison(1, 0);
  EXPECT_DOUBLE_EQ(empty.scans, 0.0);
  EXPECT_DOUBLE_EQ(empty.probes, 1.0);
  EXPECT_DOUBLE_EQ(EstimateBetween(1, 0).scans, 0.0);
}

TEST(CostModelTest, FanoutBelowTwoClampsToBinary) {
  // m = 1 would make every formula's (m−1) term vanish and log_m diverge;
  // the model clamps to the paper's binary search instead.
  CostConstants c = CostConstants::Defaults();
  c.probe_fanout = 1.0;
  const CostEstimate one = EstimateComparison(16, 1600, c);
  c.probe_fanout = 2.0;
  const CostEstimate two = EstimateComparison(16, 1600, c);
  EXPECT_DOUBLE_EQ(one.probes, two.probes);
  EXPECT_DOUBLE_EQ(one.round_trips, two.round_trips);
  EXPECT_DOUBLE_EQ(EstimateBufferFlush(8, 16, c).round_trips,
                   CeilLogM(16, 2.0));

  EXPECT_DOUBLE_EQ(CeilLogM(0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(CeilLogM(1, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(CeilLogM(16, 1.0), 4.0);
}

// ----------------------------------------------------------- Plan render

TEST(PlanRenderTest, ShowsEstimatesAndActuals) {
  Plan plan;
  plan.summary = "prkb-sd";
  plan.root = PlanNode(PlanOp::kPredicateSelect, 3, 0);
  plan.root.detail = "temp < 60";
  plan.root.estimated = CostEstimate{6.0, 150.0, 155.0};
  plan.root.has_estimate = true;
  PlanNode probe(PlanOp::kQFilterProbe, 3, 0);
  probe.actual.executed = true;
  probe.actual.qpf_uses = 7;
  probe.actual.qpf_round_trips = 7;
  plan.root.children.push_back(probe);
  PlanNode lookup(PlanOp::kFastPathLookup, 3, 0);
  lookup.actual.executed = true;
  lookup.actual.cache_hit = true;
  plan.root.children.push_back(lookup);

  const std::string out = plan.Render();
  EXPECT_NE(out.find("plan: prkb-sd"), std::string::npos);
  EXPECT_NE(out.find("PredicateSelect attr=3 [temp < 60]"), std::string::npos);
  EXPECT_NE(out.find("(est 6.0 probes + 150.0 scans, 155.0 trips)"),
            std::string::npos);
  EXPECT_NE(out.find("  QFilterProbe attr=3  (actual 7 qpf, 7 round trips)"),
            std::string::npos);
  EXPECT_NE(out.find("(actual cache hit, 0 qpf)"), std::string::npos);
}

// -------------------------------------------------------------- Executor

class ExecutorTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 400;

  ExecutorTest()
      : plain_(MakePlain()),
        db_(CipherbaseEdbms::FromPlainTable(7, plain_)),
        index_(&db_) {
    index_.EnableAttr(0);
    index_.EnableAttr(1);
  }

  static PlainTable MakePlain() {
    Rng rng(21);
    return testutil::RandomTable(kRows, 2, &rng, 0, 1000);
  }

  PlainTable plain_;
  CipherbaseEdbms db_;
  core::PrkbIndex index_;
};

TEST_F(ExecutorTest, SingleSelectPlanRecordsStageActuals) {
  const Trapdoor td = db_.MakeComparison(0, CompareOp::kLt, 500);
  Plan plan;
  plan.BorrowTrapdoor(&td);
  BuildSingleSelectPlan(index_, &plan, /*estimate=*/true);
  ASSERT_EQ(plan.root.op, PlanOp::kPredicateSelect);
  EXPECT_TRUE(plan.root.has_estimate);

  edbms::SelectionStats stats;
  const std::vector<TupleId> rows = Executor(&index_).Run(&plan, &stats);
  EXPECT_EQ(Sorted(rows),
            OracleSelectAll(plain_,
                            {{.attr = 0, .op = CompareOp::kLt, .lo = 500}}));

  EXPECT_TRUE(plan.root.actual.executed);
  EXPECT_EQ(plan.root.actual.qpf_uses, stats.qpf_uses);
  const PlanNode* probe = plan.root.Child(PlanOp::kQFilterProbe);
  const PlanNode* scan = plan.root.Child(PlanOp::kPartitionScan);
  ASSERT_NE(probe, nullptr);
  ASSERT_NE(scan, nullptr);
  EXPECT_GT(probe->actual.qpf_uses, 0u);
  EXPECT_GT(scan->actual.qpf_uses, 0u);
  // The per-stage split is exhaustive.
  EXPECT_EQ(probe->actual.qpf_uses + scan->actual.qpf_uses, stats.qpf_uses);
}

TEST_F(ExecutorTest, ReadOnlyPlanRefusesFreshPredicateThenServesRepeat) {
  const Trapdoor td = db_.MakeComparison(0, CompareOp::kLt, 300);
  std::vector<TupleId> out;

  // Fresh predicate: answering would cut the chain — must refuse without
  // spending QPF.
  const uint64_t uses0 = db_.uses();
  EXPECT_FALSE(index_.TrySelectShared(td, &out));
  EXPECT_EQ(db_.uses(), uses0);

  // Exclusive-path answer caches the cut...
  const std::vector<TupleId> rows = index_.Select(td);

  // ...so the byte-identical trapdoor is now provably read-only.
  const uint64_t uses1 = db_.uses();
  ASSERT_TRUE(index_.TrySelectShared(td, &out));
  EXPECT_EQ(db_.uses(), uses1);
  EXPECT_EQ(Sorted(out), Sorted(rows));
}

// ------------------------------------------- Estimated vs measured routes

/// Twin deployments with identical seeds stay byte-identical in QPF and RNG
/// behaviour, so each can measure one route of the same logical query.
struct Twin {
  explicit Twin(const PlainTable& plain)
      : db(CipherbaseEdbms::FromPlainTable(11, plain)), index(&db) {
    index.EnableAttr(0);
    index.EnableAttr(1);
  }
  CipherbaseEdbms db;
  core::PrkbIndex index;
};

TEST(RouteChoiceTest, PlannerPicksMeasuredCheaperRouteOnSkewedChains) {
  Rng rng(31);
  const PlainTable plain = testutil::RandomTable(600, 2, &rng, 0, 2000);
  Twin md_twin(plain), sd_twin(plain), est_twin(plain);

  // Skew the chains: attribute 0 well developed, attribute 1 cold.
  for (core::PrkbIndex* idx :
       {&md_twin.index, &sd_twin.index, &est_twin.index}) {
    for (int i = 1; i <= 8; ++i) {
      idx->Select(idx->db()->MakeComparison(0, CompareOp::kLt, i * 240));
    }
  }

  // The logical query: temp > 800 AND humidity < 1200 (one-sided, distinct
  // attributes — MD-capable, never collapsed).
  const auto make_tds = [](Twin* t) {
    return std::vector<Trapdoor>{
        t->db.MakeComparison(0, CompareOp::kGt, 800),
        t->db.MakeComparison(1, CompareOp::kLt, 1200),
    };
  };

  // Estimated ranking (pure: no QPF, no RNG, no cache mutation).
  std::vector<Trapdoor> est_tds = make_tds(&est_twin);
  Plan md_plan;
  for (const Trapdoor& td : est_tds) md_plan.BorrowTrapdoor(&td);
  BuildMdGridPlan(est_twin.index, &md_plan, /*estimate=*/true);
  Plan sd_plan;
  for (const Trapdoor& td : est_tds) sd_plan.BorrowTrapdoor(&td);
  BuildSdPlusPlan(est_twin.index, &sd_plan, /*estimate=*/true);
  const bool estimate_prefers_md =
      md_plan.root.estimated.Total() <= sd_plan.root.estimated.Total();

  // Measured spend of each route on its own twin.
  const std::vector<Trapdoor> md_tds = make_tds(&md_twin);
  const uint64_t md_before = md_twin.db.uses();
  const auto md_rows = md_twin.index.SelectRangeMd(md_tds);
  const uint64_t md_uses = md_twin.db.uses() - md_before;

  const std::vector<Trapdoor> sd_tds = make_tds(&sd_twin);
  const uint64_t sd_before = sd_twin.db.uses();
  const auto sd_rows = sd_twin.index.SelectRangeSdPlus(sd_tds);
  const uint64_t sd_uses = sd_twin.db.uses() - sd_before;

  EXPECT_EQ(Sorted(md_rows), Sorted(sd_rows));
  const bool measured_prefers_md = md_uses <= sd_uses;
  EXPECT_EQ(estimate_prefers_md, measured_prefers_md)
      << "estimates ranked md=" << md_plan.root.estimated.Total()
      << " vs sd+=" << sd_plan.root.estimated.Total() << ", measured md="
      << md_uses << " vs sd+=" << sd_uses;
}

TEST(RouteChoiceTest, CollapsedBoxNoSlowerThanOldFixedMdRouteWhenCold) {
  // The old fixed rule sent the four-comparison box
  //   `x > a AND x < b AND y > c AND y < d`
  // to PRKB(MD) with four trapdoors. The cost-based planner collapses each
  // same-attribute pair into one BETWEEN and intersects the two (SD+). On a
  // cold deployment every route degenerates to scanning the no-index window,
  // and the collapsed plan reads each chain once per BETWEEN instead of once
  // per comparison — so it must not spend more QPF than the old route.
  // The same box as SQL text through the planner must take that collapsed
  // route, so a costing change that sends it back to MD fails here.
  Rng rng(37);
  const PlainTable plain = testutil::RandomTable(600, 2, &rng, 0, 2000);
  Twin md_twin(plain), collapsed_twin(plain), sql_twin(plain);

  const uint64_t md_before = md_twin.db.uses();
  const auto md_rows = md_twin.index.SelectRangeMd(
      {md_twin.db.MakeComparison(0, CompareOp::kGt, 500),
       md_twin.db.MakeComparison(0, CompareOp::kLt, 1500),
       md_twin.db.MakeComparison(1, CompareOp::kGt, 400),
       md_twin.db.MakeComparison(1, CompareOp::kLt, 1600)});
  const uint64_t md_uses = md_twin.db.uses() - md_before;

  const uint64_t bt_before = collapsed_twin.db.uses();
  const auto bt_rows = collapsed_twin.index.SelectRangeSdPlus(
      {collapsed_twin.db.MakeBetween(0, 501, 1499),
       collapsed_twin.db.MakeBetween(1, 401, 1599)});
  const uint64_t bt_uses = collapsed_twin.db.uses() - bt_before;

  EXPECT_EQ(Sorted(md_rows), Sorted(bt_rows));
  EXPECT_LE(bt_uses, md_uses) << "collapsed SD+ box spent more QPF ("
                              << bt_uses << ") than the old MD route ("
                              << md_uses << ")";

  query::Catalog catalog;
  catalog.RegisterTable("t", {"c0", "c1"});
  query::Planner planner(&catalog, &sql_twin.db, &sql_twin.index);
  const uint64_t sql_before = sql_twin.db.uses();
  const auto result = planner.ExecuteSql(
      "SELECT * FROM t WHERE c0 > 500 AND c0 < 1500 AND c1 > 400 AND "
      "c1 < 1600");
  ASSERT_TRUE(result.ok()) << result.status().message();
  const uint64_t sql_uses = sql_twin.db.uses() - sql_before;
  EXPECT_EQ(Sorted(result->rows), Sorted(md_rows));
  EXPECT_LE(sql_uses, md_uses) << result->Explain();
  EXPECT_EQ(sql_uses, bt_uses) << result->Explain();
}

TEST(RouteChoiceTest, LatencyHintMakesThePlannerPickAWideFanout) {
  // With a transport-latency hint the planner prices each route at every
  // candidate fanout and keeps the cheapest PriceNs; at 1ms per round trip
  // a developed chain must pick m > 2 (round trips dominate), the plan must
  // render its choice, and executing it must return the exact rows. With
  // no hint the ranking is pure QPF uses and the fanout stays the index
  // default (probe_fanout = 0 on the plan).
  Rng rng(41);
  const PlainTable plain = testutil::RandomTable(600, 2, &rng, 0, 2000);

  query::Catalog catalog;
  catalog.RegisterTable("t", {"c0", "c1"});

  for (const bool hinted : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "hinted=" << hinted);
    CipherbaseEdbms db = CipherbaseEdbms::FromPlainTable(11, plain);
    core::PrkbOptions opts;
    if (hinted) opts.rt_latency_hint_ns = 1e6;
    core::PrkbIndex index(&db, opts);
    index.EnableAttr(0);
    for (int i = 1; i <= 8; ++i) {
      index.Select(db.MakeComparison(0, CompareOp::kLt, i * 240));
    }

    query::Planner planner(&catalog, &db, &index);
    const auto result = planner.ExecuteSql("SELECT * FROM t WHERE c0 < 900");
    ASSERT_TRUE(result.ok()) << result.status().message();
    const PlainPredicate p{0, edbms::PredicateKind::kComparison,
                           CompareOp::kLt, 900, 0};
    EXPECT_EQ(Sorted(result->rows),
              OracleSelectAll(plain, {p}, &db));
    if (hinted) {
      EXPECT_GT(result->physical.probe_fanout, 2u);
      EXPECT_NE(result->Explain().find(" m="), std::string::npos)
          << result->Explain();
    } else {
      EXPECT_EQ(result->physical.probe_fanout, 0u);
      EXPECT_EQ(result->Explain().find(" m="), std::string::npos)
          << result->Explain();
    }
  }
}

// -------------------------------------------------- Adaptive route drift

// One planner and one calibrator live through four phases over the same
// PrkbIndex + SrciRoute pair, attribute c0, with no restart. The workload's
// selectivity and the TM's latency shift underneath, and the online
// calibrator (exec/calibrate.h) must re-fit its constants until the
// arbitration lands back on the route that wins the phase:
//   wide      sel ~55%,  loopback TM -> prkb (SRC-i would confirm half the
//                                             table, one decrypt each)
//   narrow    sel ~0.2%, loopback TM -> srci (PRKB still scans windows)
//   remote    sel ~0.2%, 100 us TM   -> prkb (SRC-i pays a scalar round trip
//                                             per candidate; PRKB batches)
//   recovery  sel ~0.2%, loopback TM -> srci (the latency fit must decay)
// Every query is a one-sided comparison `c0 <= X`, so the chain keeps
// developing and the PRKB estimate tracks its actuals. Per phase: no winner
// set differs from the plaintext oracle, the last query runs on the
// expected route, and the route stays there from query `bound` on.
// The fits are wall-time EWMAs, so this test lives here and not in
// calibrate_test, which the TSan job runs: TSan slows the timing it reads.
// The expected routes hold only while executor CPU per evaluation stays far
// below the 100 us remote latency. An unoptimized or sanitized build
// breaks that premise (there SRC-i is truly the cheaper remote route), so
// the test runs in optimized, uninstrumented builds only.
TEST(AdaptiveDriftTest, EachPhaseConvergesWithinItsBoundWithOracleWinners) {
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "route expectations assume an optimized, uninstrumented "
                  "build";
#endif
  struct Phase {
    const char* name;
    bool narrow;
    uint64_t tm_latency_ns;
    const char* expect;
    int bound;  // 1-based query index from which the route must hold
  };
  // Recovery is the slow phase: the latency fit decays by kFitAlpha per
  // query, so it needs ~log(L_shift / L_flip) / log(1 / (1 - alpha))
  // queries. The other phases flip within a couple.
  const Phase phases[] = {{"wide", false, 0, "prkb", 3},
                          {"narrow", true, 0, "srci", 3},
                          {"remote", true, 100'000, "prkb", 4},
                          {"recovery", true, 0, "srci", 11}};
  constexpr int kPhaseLen = 12;
  constexpr uint64_t kSeed = 42;

  workload::SyntheticSpec spec;
  spec.rows = 8000;
  spec.seed = kSeed;
  const PlainTable plain = workload::MakeSyntheticTable(spec);
  const std::vector<edbms::Value>& col = plain.column(0);
  const double span = static_cast<double>(spec.domain_hi - spec.domain_lo);

  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  core::PrkbIndex index(&db, core::PrkbOptions{.seed = kSeed,
                                               .batch_size = 64});
  index.EnableAttr(0);
  query::Catalog catalog;
  catalog.RegisterTable("t", {"c0"});
  query::Planner planner(&catalog, &db, &index);
  query::SrciRoute srci(&db, 0, spec.domain_lo, spec.domain_hi);
  // Built up front: a lazy build during the remote phase would pay one
  // scalar TM entry per row at the shifted latency.
  ASSERT_TRUE(srci.EnsureBuilt().ok());
  planner.RegisterAltRoute(&srci);

  // Develop the chain before arbitration starts: the PRKB comparison
  // estimate scales as n/k, so on an undeveloped chain PRKB would price as
  // a near-full scan in every phase and could never win.
  workload::QueryGen warm_gen(spec.domain_lo, spec.domain_hi, kSeed + 5);
  for (int q = 0; q < 200 && index.pop(0).k() < 32; ++q) {
    const PlainPredicate p = warm_gen.RandomComparison(0);
    index.Select(db.MakeComparison(0, p.op, p.lo));
  }

  Rng rng(kSeed + 7);
  for (const Phase& ph : phases) {
    SCOPED_TRACE(ph.name);
    db.trusted_machine().set_call_latency_ns(ph.tm_latency_ns);
    int last_off_route = 0;
    int winner_mismatches = 0;
    std::string route;
    for (int q = 1; q <= kPhaseLen; ++q) {
      const double u = rng.UniformDouble();
      // Wide cuts land mid-domain; narrow ones hug domain_lo so SRC-i's
      // candidate block stays small.
      const double frac = ph.narrow ? 0.002 * (0.5 + u) : 0.50 + 0.10 * u;
      const edbms::Value x =
          spec.domain_lo + static_cast<edbms::Value>(frac * span);
      char sql[96];
      std::snprintf(sql, sizeof(sql), "SELECT * FROM t WHERE c0 <= %lld",
                    static_cast<long long>(x));
      const auto r = planner.ExecuteSql(sql);
      ASSERT_TRUE(r.ok()) << r.status().message();
      std::vector<TupleId> want;
      for (TupleId tid = 0; tid < col.size(); ++tid) {
        if (col[tid] <= x) want.push_back(tid);
      }
      if (Sorted(r->rows) != want) ++winner_mismatches;
      route = r->physical.route;
      if (route != ph.expect) last_off_route = q;
    }
    EXPECT_EQ(winner_mismatches, 0);
    EXPECT_EQ(route, ph.expect);
    EXPECT_LE(last_off_route + 1, ph.bound) << "converged at query "
                                            << last_off_route + 1;
  }
}

}  // namespace
}  // namespace prkb::exec
