#include <algorithm>
#include <vector>

#include "edbms/cipherbase_qpf.h"
#include "ext/minmax.h"
#include "ext/skyline.h"
#include "gtest/gtest.h"
#include "prkb/selection.h"
#include "tests/test_util.h"
#include "workload/query_gen.h"

namespace prkb::ext {
namespace {

using edbms::CipherbaseEdbms;
using edbms::CompareOp;
using edbms::PlainTable;
using edbms::TupleId;
using edbms::Value;
using testutil::RandomTable;

constexpr uint64_t kSeed = 606;

/// Warms a chain with random comparison queries.
void Warm(core::PrkbIndex* index, CipherbaseEdbms* db, edbms::AttrId attr,
          Value domain_hi, int queries, uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < queries; ++i) {
    index->Select(db->MakeComparison(attr, CompareOp::kLt,
                                     rng.UniformInt64(0, domain_hi)));
  }
}

TupleId OracleMin(const PlainTable& plain, edbms::AttrId attr) {
  TupleId best = 0;
  for (TupleId t = 1; t < plain.num_rows(); ++t) {
    if (plain.at(attr, t) < plain.at(attr, best)) best = t;
  }
  return best;
}

TupleId OracleMax(const PlainTable& plain, edbms::AttrId attr) {
  TupleId best = 0;
  for (TupleId t = 1; t < plain.num_rows(); ++t) {
    if (plain.at(attr, t) > plain.at(attr, best)) best = t;
  }
  return best;
}

TEST(MinMaxTest, FindsExtremesOnWarmChain) {
  Rng data_rng(1);
  PlainTable plain = RandomTable(1000, 1, &data_rng, 0, 1000000);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  core::PrkbIndex index(&db);
  index.EnableAttr(0);
  Warm(&index, &db, 0, 1000000, 80, 2);

  const auto mn = FindMin(index, &db, 0);
  const auto mx = FindMax(index, &db, 0);
  ASSERT_TRUE(mn.found);
  ASSERT_TRUE(mx.found);
  EXPECT_EQ(plain.at(0, mn.tid), plain.at(0, OracleMin(plain, 0)));
  EXPECT_EQ(plain.at(0, mx.tid), plain.at(0, OracleMax(plain, 0)));
  // The chain prunes the TM work to the two end partitions.
  EXPECT_LT(mn.tm_decrypts, 1000u / 2);
}

TEST(MinMaxTest, FallsBackToFullScanWithoutIndex) {
  Rng data_rng(2);
  PlainTable plain = RandomTable(50, 1, &data_rng, 0, 100);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  core::PrkbIndex index(&db);  // attr not enabled
  const auto mn = FindMin(index, &db, 0);
  ASSERT_TRUE(mn.found);
  EXPECT_EQ(plain.at(0, mn.tid), plain.at(0, OracleMin(plain, 0)));
  EXPECT_EQ(mn.tm_decrypts, 50u);
}

TEST(MinMaxTest, EmptyTableReportsNotFound) {
  PlainTable plain(1);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  core::PrkbIndex index(&db);
  index.EnableAttr(0);
  EXPECT_FALSE(FindMin(index, &db, 0).found);
}

// Oracle skyline: minimal in both attributes, strict dominance.
std::vector<TupleId> OracleSkyline(const PlainTable& plain) {
  std::vector<TupleId> out;
  for (TupleId a = 0; a < plain.num_rows(); ++a) {
    bool dominated = false;
    for (TupleId b = 0; b < plain.num_rows() && !dominated; ++b) {
      if (a == b) continue;
      const bool le_x = plain.at(0, b) <= plain.at(0, a);
      const bool le_y = plain.at(1, b) <= plain.at(1, a);
      const bool lt_any =
          plain.at(0, b) < plain.at(0, a) || plain.at(1, b) < plain.at(1, a);
      dominated = le_x && le_y && lt_any;
    }
    if (!dominated) out.push_back(a);
  }
  return out;
}

/// Determines chain orientation from ground truth (stands in for the DO).
bool MinAtFront(const core::Pop& pop, const std::vector<Value>& column) {
  if (pop.k() < 2) return true;
  Value front_min = column[pop.tuples(0, 1)[0]];
  Value back_min = column[pop.tuples(pop.k() - 1, pop.k())[0]];
  return front_min < back_min;
}

class SkylineSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SkylineSweepTest, MatchesOracleOnWarmGrids) {
  const uint64_t seed = GetParam();
  Rng data_rng(seed);
  PlainTable plain = RandomTable(300, 2, &data_rng, 0, 10000);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  core::PrkbIndex index(&db);
  index.EnableAttr(0);
  index.EnableAttr(1);
  Warm(&index, &db, 0, 10000, 40, seed * 3 + 1);
  Warm(&index, &db, 1, 10000, 40, seed * 3 + 2);

  const auto res = SkylineMinMin(
      index, &db, 0, 1, MinAtFront(index.pop(0), plain.column(0)),
      MinAtFront(index.pop(1), plain.column(1)));
  auto got = res.skyline;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, OracleSkyline(plain));
  // Grid pruning must beat the trivial all-candidates bound.
  EXPECT_LT(res.candidates, 300u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SkylineSweepTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(SkylineTest, ColdGridDegeneratesToFullCandidates) {
  Rng data_rng(7);
  PlainTable plain = RandomTable(50, 2, &data_rng, 0, 100);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  core::PrkbIndex index(&db);
  index.EnableAttr(0);
  index.EnableAttr(1);
  const auto res = SkylineMinMin(index, &db, 0, 1, true, true);
  EXPECT_EQ(res.candidates, 50u);  // k=1 on both: nothing can be pruned
  auto got = res.skyline;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, OracleSkyline(plain));
}

TEST(SkylineTest, DuplicatePointsAllSurvive) {
  PlainTable plain(2);
  plain.AddRow({1, 9});
  plain.AddRow({1, 9});
  plain.AddRow({5, 5});
  plain.AddRow({9, 1});
  plain.AddRow({7, 7});  // dominated by (5,5)
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  core::PrkbIndex index(&db);
  index.EnableAttr(0);
  index.EnableAttr(1);
  const auto res = SkylineMinMin(index, &db, 0, 1, true, true);
  auto got = res.skyline;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<TupleId>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace prkb::ext
