// Deterministic edge cases for the core algorithms, complementing the
// randomized property sweeps in selection_test.cc / fuzz_test.cc.

#include <vector>

#include "edbms/cipherbase_qpf.h"
#include "gtest/gtest.h"
#include "prkb/probe_sched.h"
#include "prkb/qscan.h"
#include "prkb/selection.h"
#include "tests/test_util.h"

namespace prkb::core {
namespace {

using edbms::CipherbaseEdbms;
using edbms::CompareOp;
using edbms::PlainTable;
using edbms::TupleId;
using edbms::Value;
using testutil::Sorted;

constexpr uint64_t kSeed = 31415;

PlainTable Column(std::initializer_list<Value> values) {
  PlainTable t(1);
  for (Value v : values) t.AddRow({v});
  return t;
}

// ------------------------------------------------------------- QFilter

TEST(QFilterEdgeTest, BoundaryCaseWithFalseLabelHasNoWinners) {
  // Warm a 3-partition chain, then query a range matching nothing: both end
  // samples answer 0, middle partitions are sure-False.
  auto plain = Column({10, 20, 30, 40, 50, 60});
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);
  index.Select(db.MakeComparison(0, CompareOp::kLt, 25));
  index.Select(db.MakeComparison(0, CompareOp::kLt, 45));
  ASSERT_EQ(index.pop(0).k(), 3u);

  Rng rng(1);
  const auto td = db.MakeComparison(0, CompareOp::kGt, 100);
  const auto f = QFilter(index.pop(0), td, &db, &rng, kBinarySearchSched);
  EXPECT_TRUE(f.boundary_case);
  EXPECT_FALSE(f.label_first);
  EXPECT_FALSE(f.label_last);
  EXPECT_FALSE(f.HasWinners());
  EXPECT_EQ(f.ns_a, 0u);
  EXPECT_EQ(f.ns_b, 2u);
}

TEST(QFilterEdgeTest, BoundaryCaseWithTrueLabelWinsTheMiddle) {
  auto plain = Column({10, 20, 30, 40, 50, 60});
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);
  index.Select(db.MakeComparison(0, CompareOp::kLt, 25));
  index.Select(db.MakeComparison(0, CompareOp::kLt, 45));

  Rng rng(1);
  const auto td = db.MakeComparison(0, CompareOp::kLt, 100);  // everything
  const auto f = QFilter(index.pop(0), td, &db, &rng, kBinarySearchSched);
  EXPECT_TRUE(f.boundary_case);
  EXPECT_TRUE(f.label_first);
  // Winners = all middle partitions, ends stay NS.
  EXPECT_EQ(f.win_begin, 1u);
  EXPECT_EQ(f.win_end, 2u);
}

TEST(QFilterEdgeTest, RecursiveCaseWinnersFollowTheTrueSide) {
  auto plain = Column({10, 20, 30, 40, 50, 60});
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);
  for (Value c : {Value{15}, Value{25}, Value{35}, Value{45}, Value{55}}) {
    index.Select(db.MakeComparison(0, CompareOp::kLt, c));
  }
  ASSERT_EQ(index.pop(0).k(), 6u);

  // 'X > 35': chain-side orientation is hidden, but winners must be exactly
  // the sure-True positions and the NS pair adjacent.
  Rng rng(2);
  const auto td = db.MakeComparison(0, CompareOp::kGt, 35);
  const auto f = QFilter(index.pop(0), td, &db, &rng, kBinarySearchSched);
  EXPECT_FALSE(f.boundary_case);
  EXPECT_EQ(f.ns_b, f.ns_a + 1);
  // The cut is at an existing boundary: winner range + NS pair must cover
  // {40,50,60} exactly once QScan resolves; here check the filter's claim.
  size_t win_tuples = 0;
  for (size_t p = f.win_begin; p < f.win_end; ++p) {
    win_tuples += index.pop(0).members_at(p).Size();
  }
  EXPECT_EQ(win_tuples, 2u);  // {50}, {60}; {40} sits in the NS pair
}

// --------------------------------------------------------------- QScan

TEST(QScanEdgeTest, EarlyStopIncludesWholePartnerWhenTrue) {
  // k=2 chain, predicate splitting partition 0: partner (position 1) is
  // T-homogeneous and must be bulk-included without scanning.
  auto plain = Column({10, 20, 30, 40});
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);
  index.Select(db.MakeComparison(0, CompareOp::kLt, 25));  // {10,20}|{30,40}
  const Pop& pop = index.pop(0);
  ASSERT_EQ(pop.k(), 2u);

  // Determine which chain end holds the small values to build a predicate
  // whose separating point is inside the small-values partition.
  const bool small_first =
      plain.at(0, pop.members_at(0).Select(0)) < plain.at(0, pop.members_at(1).Select(0));
  const auto td = db.MakeComparison(0, CompareOp::kGt, 15);  // {20,30,40}
  Rng rng(3);
  const auto f = QFilter(pop, td, &db, &rng, kBinarySearchSched);
  const auto s = QScan(pop, f, td, &db);
  EXPECT_EQ(Sorted(s.winners), (std::vector<TupleId>{1, 2, 3}));
  EXPECT_TRUE(s.split_found);
  EXPECT_EQ(s.split_pos, small_first ? f.ns_a : f.ns_b);
}

// ------------------------------------------------------------ Selection

TEST(SelectionEdgeTest, AllEqualValuesNeverLearnAnything) {
  auto plain = Column({7, 7, 7, 7, 7});
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);
  for (Value c : {Value{6}, Value{7}, Value{8}}) {
    for (CompareOp op : {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                         CompareOp::kGe}) {
      const auto got = index.Select(db.MakeComparison(0, op, c));
      edbms::PlainPredicate p{.attr = 0, .op = op, .lo = c};
      EXPECT_EQ(Sorted(got), testutil::OracleSelect(plain, p));
    }
  }
  // Equal values can never be separated: the chain must still be POP_1.
  EXPECT_EQ(index.pop(0).k(), 1u);
}

TEST(SelectionEdgeTest, NegativeDomainWorks) {
  auto plain = Column({-100, -50, 0, 50, 100});
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);
  EXPECT_EQ(Sorted(index.Select(db.MakeComparison(0, CompareOp::kLt, -25))),
            (std::vector<TupleId>{0, 1}));
  EXPECT_EQ(Sorted(index.Select(db.MakeComparison(0, CompareOp::kGe, 0))),
            (std::vector<TupleId>{2, 3, 4}));
  EXPECT_TRUE(index.pop(0).ValidateAgainstPlain(plain.column(0)).ok());
}

TEST(SelectionEdgeTest, LeGeEquivalenceWithLtGtOnGaps) {
  // With no value in (20, 30), 'X <= 20' and 'X < 30' are trapdoor-
  // equivalent (Def. 4.3): four queries, one cut.
  auto plain = Column({10, 20, 30, 40});
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);
  index.Select(db.MakeComparison(0, CompareOp::kLe, 20));
  index.Select(db.MakeComparison(0, CompareOp::kLt, 30));
  index.Select(db.MakeComparison(0, CompareOp::kGe, 30));
  index.Select(db.MakeComparison(0, CompareOp::kGt, 25));
  EXPECT_EQ(index.pop(0).k(), 2u);
}

TEST(SelectionEdgeTest, SingleTupleTable) {
  auto plain = Column({42});
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);
  EXPECT_EQ(index.Select(db.MakeComparison(0, CompareOp::kLe, 42)).size(),
            1u);
  EXPECT_TRUE(index.Select(db.MakeComparison(0, CompareOp::kGt, 42)).empty());
  EXPECT_EQ(index.pop(0).k(), 1u);
}

// ------------------------------------------------------------- Multidim

TEST(MultidimEdgeTest, TinyBoxWithBothNsPairsInOnePartition) {
  // A box so small that for each attribute both the low and high trapdoor
  // cut the SAME partition — the sibling-split regrouping path in
  // multidim.cc's updatePRKB.
  PlainTable plain(2);
  for (Value x = 0; x < 40; ++x) plain.AddRow({x, 39 - x});
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  // Eager updates: the lazy (paper) mode only splits fully-covered NS
  // partitions, and cross-predicate short-circuiting leaves the second cut
  // of each dimension uncovered on a cold chain.
  PrkbIndex index(&db, PrkbOptions{.seed = 1, .eager_md_update = true});
  index.EnableAttr(0);
  index.EnableAttr(1);

  std::vector<edbms::Trapdoor> tds = {
      db.MakeComparison(0, CompareOp::kGt, 10),
      db.MakeComparison(0, CompareOp::kLt, 14),
      db.MakeComparison(1, CompareOp::kGt, 25),
      db.MakeComparison(1, CompareOp::kLt, 29),
  };
  const auto got = index.SelectRangeMd(tds);
  // x in (10,14) and y=39-x in (25,29) -> x in {11,12,13}.
  EXPECT_EQ(Sorted(got), (std::vector<TupleId>{11, 12, 13}));
  EXPECT_TRUE(index.pop(0).ValidateAgainstPlain(plain.column(0)).ok());
  EXPECT_TRUE(index.pop(1).ValidateAgainstPlain(plain.column(1)).ok());
  // Both cuts of attribute 0 must have landed despite sharing a partition.
  EXPECT_GE(index.pop(0).k(), 3u);
}

TEST(MultidimEdgeTest, RepeatedIdenticalBoxesConverge) {
  Rng data_rng(5);
  auto plain = testutil::RandomTable(200, 2, &data_rng, 0, 1000);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);
  index.EnableAttr(1);

  uint64_t first_cost = 0, last_cost = 0;
  size_t k_after_two = 0;
  for (int i = 0; i < 6; ++i) {
    std::vector<edbms::Trapdoor> tds = {
        db.MakeComparison(0, CompareOp::kGt, 200),
        db.MakeComparison(0, CompareOp::kLt, 600),
        db.MakeComparison(1, CompareOp::kGt, 300),
        db.MakeComparison(1, CompareOp::kLt, 700),
    };
    edbms::SelectionStats st;
    index.SelectRangeMd(tds, &st);
    if (i == 0) first_cost = st.qpf_uses;
    last_cost = st.qpf_uses;
    if (i == 1) k_after_two = index.pop(0).k() + index.pop(1).k();
  }
  // Repeats are trapdoor-equivalent: no chain growth after the cuts landed
  // (Def. 4.3). The steady-state cost does NOT go to zero — the paper's
  // design rescans the NS pairs every time — but it is bounded by the NS
  // band sizes, far below the 4n an unindexed conjunction could spend.
  EXPECT_EQ(index.pop(0).k() + index.pop(1).k(), k_after_two);
  EXPECT_GT(last_cost, 0u);
  EXPECT_LT(last_cost, 4 * 200u);
  (void)first_cost;
}

}  // namespace
}  // namespace prkb::core
