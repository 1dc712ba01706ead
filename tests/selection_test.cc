#include "prkb/selection.h"

#include <vector>

#include "edbms/cipherbase_qpf.h"
#include "edbms/sdb_qpf.h"
#include "gtest/gtest.h"
#include "prkb/probe_sched.h"
#include "prkb/qscan.h"
#include "tests/test_util.h"

namespace prkb::core {
namespace {

using edbms::CipherbaseEdbms;
using edbms::CompareOp;
using edbms::PlainPredicate;
using edbms::PlainTable;
using edbms::SelectionStats;
using edbms::Trapdoor;
using edbms::TupleId;
using edbms::Value;
using testutil::OracleSelect;
using testutil::RandomTable;
using testutil::Sorted;

constexpr uint64_t kSeed = 1234;

// A tiny fixed table: values on attr 0 are {t0=30, t1=10, t2=50, t3=30, t4=20}.
PlainTable FixedTable() {
  PlainTable t(1);
  t.AddRow({30});
  t.AddRow({10});
  t.AddRow({50});
  t.AddRow({30});
  t.AddRow({20});
  return t;
}

// ---------------------------------------------------------------- QFilter

TEST(QFilterTest, SingletonChainIsBoundaryCase) {
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, FixedTable());
  Pop pop;
  pop.InitSingle(db.num_rows());
  Rng rng(1);
  const Trapdoor td = db.MakeComparison(0, CompareOp::kLt, 25);
  const auto f = QFilter(pop, td, &db, &rng, kBinarySearchSched);
  EXPECT_TRUE(f.boundary_case);
  EXPECT_EQ(f.ns_a, 0u);
  EXPECT_EQ(f.ns_b, 0u);
  EXPECT_FALSE(f.HasWinners());
  EXPECT_EQ(db.uses(), 1u);  // one sample
}

TEST(QFilterTest, QpfBudgetIsLogarithmic) {
  // Build a fine-grained chain by querying, then check QFilter's cost.
  Rng data_rng(7);
  PlainTable plain = RandomTable(400, 1, &data_rng, 0, 10000);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);
  Rng qrng(3);
  for (int i = 0; i < 60; ++i) {
    index.Select(db.MakeComparison(0, CompareOp::kLt,
                                   qrng.UniformInt64(0, 10000)));
  }
  const size_t k = index.pop(0).k();
  ASSERT_GT(k, 20u);

  db.ResetUses();
  Rng rng(5);
  const Trapdoor td = db.MakeComparison(0, CompareOp::kLt, 5000);
  QFilter(index.pop(0), td, &db, &rng, kBinarySearchSched);
  // 2 end samples + at most ceil(lg k) bisection samples.
  size_t lg = 0;
  while ((1u << lg) < k) ++lg;
  EXPECT_LE(db.uses(), 2 + lg);
}

// ------------------------------------------------------------------ QScan

TEST(QScanTest, SplitsNonHomogeneousPartitionExactly) {
  auto plain = FixedTable();
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  Pop pop;
  pop.InitSingle(db.num_rows());
  Rng rng(1);
  const Trapdoor td = db.MakeComparison(0, CompareOp::kLt, 25);
  const auto f = QFilter(pop, td, &db, &rng, kBinarySearchSched);
  const auto s = QScan(pop, f, td, &db);
  EXPECT_TRUE(s.split_found);
  EXPECT_EQ(Sorted(s.split_true), (std::vector<TupleId>{1, 4}));
  EXPECT_EQ(Sorted(s.split_false), (std::vector<TupleId>{0, 2, 3}));
  EXPECT_EQ(Sorted(s.winners), (std::vector<TupleId>{1, 4}));
}

// ------------------------------------------------- Single-predicate Select

TEST(PrkbSelectTest, FirstQueryMatchesOracleAndSplits) {
  auto plain = FixedTable();
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);
  const Trapdoor td = db.MakeComparison(0, CompareOp::kLt, 25);
  SelectionStats stats;
  const auto got = index.Select(td, &stats);
  EXPECT_EQ(Sorted(got), (std::vector<TupleId>{1, 4}));
  EXPECT_EQ(index.pop(0).k(), 2u);
  EXPECT_GT(stats.qpf_uses, 0u);
  EXPECT_TRUE(
      index.pop(0).ValidateAgainstPlain(plain.column(0)).ok());
}

TEST(PrkbSelectTest, EquivalentPredicateDoesNotGrowChain) {
  auto plain = FixedTable();
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);
  index.Select(db.MakeComparison(0, CompareOp::kLt, 25));
  const size_t k = index.pop(0).k();
  // 'X < 22' partitions {10,20} | {30,30,50} exactly like 'X < 25':
  // equivalent trapdoors (Def. 4.3) must not extend the chain.
  index.Select(db.MakeComparison(0, CompareOp::kLt, 22));
  EXPECT_EQ(index.pop(0).k(), k);
  // So does the mirrored comparison 'X > 25'.
  index.Select(db.MakeComparison(0, CompareOp::kGt, 25));
  EXPECT_EQ(index.pop(0).k(), k);
}

TEST(PrkbSelectTest, AllTrueAndAllFalsePredicates) {
  auto plain = FixedTable();
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);
  EXPECT_EQ(index.Select(db.MakeComparison(0, CompareOp::kLt, 1000)).size(),
            5u);
  EXPECT_EQ(index.Select(db.MakeComparison(0, CompareOp::kGt, 1000)).size(),
            0u);
  EXPECT_EQ(index.pop(0).k(), 1u);  // no knowledge gained
  // And they stay exact once the chain is non-trivial.
  index.Select(db.MakeComparison(0, CompareOp::kLt, 25));
  EXPECT_EQ(index.Select(db.MakeComparison(0, CompareOp::kLt, 1000)).size(),
            5u);
  EXPECT_EQ(index.Select(db.MakeComparison(0, CompareOp::kGe, 1000)).size(),
            0u);
}

TEST(PrkbSelectTest, SelectOnEmptyTable) {
  PlainTable plain(1);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);
  EXPECT_TRUE(index.Select(db.MakeComparison(0, CompareOp::kLt, 5)).empty());
}

TEST(PrkbSelectTest, FallsBackToScanWithoutEnabledAttr) {
  auto plain = FixedTable();
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);  // attr 0 NOT enabled
  SelectionStats stats;
  const auto got = index.Select(db.MakeComparison(0, CompareOp::kLt, 25),
                                &stats);
  EXPECT_EQ(Sorted(got), (std::vector<TupleId>{1, 4}));
  EXPECT_EQ(stats.qpf_uses, plain.num_rows());
}

TEST(PrkbSelectTest, QpfUsageCollapsesAsChainGrows) {
  Rng data_rng(11);
  PlainTable plain = RandomTable(2000, 1, &data_rng, 0, 100000);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);
  Rng qrng(13);
  uint64_t first_cost = 0, late_cost = 0;
  for (int i = 0; i < 120; ++i) {
    SelectionStats stats;
    PlainPredicate p{.attr = 0, .op = CompareOp::kLt,
                     .lo = qrng.UniformInt64(0, 100000)};
    const auto got = index.Select(db.MakeComparison(0, p.op, p.lo), &stats);
    EXPECT_EQ(Sorted(got), OracleSelect(plain, p)) << "query " << i;
    if (i == 0) first_cost = stats.qpf_uses;
    if (i == 119) late_cost = stats.qpf_uses;
  }
  EXPECT_EQ(first_cost, 2000u + 1);  // full scan + one sample
  // Orders-of-magnitude drop is the paper's headline claim (Fig. 8).
  EXPECT_LT(late_cost, first_cost / 10);
}

// --------------------------------------------------------- Property sweeps

struct SweepParam {
  uint64_t seed;
  size_t rows;
  Value domain;
  bool use_sdb;
  // The ctest names of this sweep are a byte dump of the parameter, so the
  // padding after `use_sdb` is an explicit zero field: left implicit, it
  // picks up whatever bytes the stack held.
  uint8_t zero_pad[7] = {};
};

class SelectionPropertyTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SelectionPropertyTest, RandomQuerySequenceStaysExactAndConsistent) {
  const SweepParam param = GetParam();
  Rng data_rng(param.seed);
  PlainTable plain = RandomTable(param.rows, 1, &data_rng, 0, param.domain);

  // Run against either backend through the same Edbms interface.
  std::unique_ptr<edbms::Edbms> db;
  if (param.use_sdb) {
    db = std::make_unique<edbms::SdbEdbms>(
        edbms::SdbEdbms::FromPlainTable(kSeed, plain));
  } else {
    db = std::make_unique<CipherbaseEdbms>(
        CipherbaseEdbms::FromPlainTable(kSeed, plain));
  }
  PrkbIndex index(db.get(), PrkbOptions{.seed = param.seed * 31});
  index.EnableAttr(0);

  Rng qrng(param.seed ^ 0xABCD);
  const CompareOp ops[] = {CompareOp::kLt, CompareOp::kGt, CompareOp::kLe,
                           CompareOp::kGe};
  for (int i = 0; i < 80; ++i) {
    PlainPredicate p{.attr = 0,
                     .op = ops[qrng.UniformInt(0, 3)],
                     .lo = qrng.UniformInt64(0, param.domain)};
    const auto got = index.Select(db->MakeComparison(p.attr, p.op, p.lo));
    ASSERT_EQ(Sorted(got), OracleSelect(plain, p))
        << "query " << i << ": " << p.ToString();
    ASSERT_TRUE(index.pop(0).ValidateAgainstPlain(plain.column(0)).ok())
        << "after query " << i;
  }
  // The chain can never exceed distinct-values partitions.
  std::vector<Value> vals = plain.column(0);
  std::sort(vals.begin(), vals.end());
  const size_t distinct =
      std::unique(vals.begin(), vals.end()) - vals.begin();
  EXPECT_LE(index.pop(0).k(), distinct);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SelectionPropertyTest,
    ::testing::Values(
        SweepParam{1, 50, 20, false},    // tiny domain: many duplicates
        SweepParam{2, 50, 20, true},     // same, SDB backend
        SweepParam{3, 200, 1000, false},
        SweepParam{4, 200, 1000, true},
        SweepParam{5, 1000, 100000, false},
        SweepParam{6, 37, 5, false},     // domain smaller than table
        SweepParam{7, 1, 10, false},     // single-tuple table
        SweepParam{8, 2, 2, false}));    // two tuples, two values

// QPF-budget invariant: cost of a warm selection is bounded by
// |Pa| + |Pb| + lg k + 2.
TEST(SelectionBudgetTest, WarmQueryRespectsTheoreticalBound) {
  Rng data_rng(21);
  PlainTable plain = RandomTable(3000, 1, &data_rng, 0, 1000000);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);
  Rng qrng(23);
  for (int i = 0; i < 150; ++i) {
    const Value c = qrng.UniformInt64(0, 1000000);
    // Bound computed on the chain as it stands BEFORE the query (the query
    // itself may split the scanned partitions).
    const Pop& pop = index.pop(0);
    size_t max_two = 0, max_one = 0;
    for (size_t p = 0; p < pop.k(); ++p) {
      const size_t sz = pop.size_at(p);
      if (sz >= max_one) {
        max_two = max_one;
        max_one = sz;
      } else if (sz > max_two) {
        max_two = sz;
      }
    }
    size_t lg = 0;
    while ((1u << lg) < pop.k()) ++lg;
    SelectionStats stats;
    index.Select(db.MakeComparison(0, CompareOp::kLt, c), &stats);
    if (i < 5) continue;  // let the chain warm up
    EXPECT_LE(stats.qpf_uses, max_one + max_two + lg + 2) << "query " << i;
  }
}

}  // namespace
}  // namespace prkb::core
