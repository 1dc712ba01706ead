#include <memory>
#include <vector>

#include "edbms/cipherbase_qpf.h"
#include "gtest/gtest.h"
#include "prkb/selection.h"
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
using testutil::OracleSelectAll;
using testutil::RandomTable;
using testutil::Sorted;

constexpr uint64_t kSeed = 4242;

/// Builds the paper's canonical d-dimensional box query: two comparison
/// trapdoors per dimension, 'Xi > lo AND Xi < hi'.
struct BoxQuery {
  std::vector<Trapdoor> trapdoors;
  std::vector<PlainPredicate> plains;
};

BoxQuery MakeBox(CipherbaseEdbms* db, const std::vector<Value>& lo,
                 const std::vector<Value>& hi) {
  BoxQuery q;
  for (size_t d = 0; d < lo.size(); ++d) {
    const auto attr = static_cast<edbms::AttrId>(d);
    q.trapdoors.push_back(db->MakeComparison(attr, CompareOp::kGt, lo[d]));
    q.trapdoors.push_back(db->MakeComparison(attr, CompareOp::kLt, hi[d]));
    q.plains.push_back(
        PlainPredicate{.attr = attr, .op = CompareOp::kGt, .lo = lo[d]});
    q.plains.push_back(
        PlainPredicate{.attr = attr, .op = CompareOp::kLt, .lo = hi[d]});
  }
  return q;
}

TEST(MultidimTest, ColdMdQueryMatchesOracle2D) {
  Rng data_rng(1);
  PlainTable plain = RandomTable(300, 2, &data_rng, 0, 1000);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);
  index.EnableAttr(1);
  const auto q = MakeBox(&db, {200, 300}, {700, 800});
  const auto got = index.SelectRangeMd(q.trapdoors);
  EXPECT_EQ(Sorted(got), OracleSelectAll(plain, q.plains));
}

TEST(MultidimTest, SdPlusMatchesOracle2D) {
  Rng data_rng(2);
  PlainTable plain = RandomTable(300, 2, &data_rng, 0, 1000);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);
  index.EnableAttr(1);
  const auto q = MakeBox(&db, {200, 300}, {700, 800});
  const auto got = index.SelectRangeSdPlus(q.trapdoors);
  EXPECT_EQ(Sorted(got), OracleSelectAll(plain, q.plains));
}

TEST(MultidimTest, MdCheaperThanSdPlusOnWarmChains) {
  Rng data_rng(3);
  PlainTable plain = RandomTable(4000, 3, &data_rng, 0, 1000000);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);

  // Two identically warmed indexes.
  auto warm = [&](PrkbIndex* index) {
    Rng qrng(5);
    for (int i = 0; i < 120; ++i) {
      const auto attr = static_cast<edbms::AttrId>(qrng.UniformInt(0, 2));
      index->Select(db.MakeComparison(attr, CompareOp::kLt,
                                      qrng.UniformInt64(0, 1000000)));
    }
  };
  PrkbIndex a(&db), b(&db);
  for (edbms::AttrId attr = 0; attr < 3; ++attr) {
    a.EnableAttr(attr);
    b.EnableAttr(attr);
  }
  warm(&a);
  warm(&b);

  const auto q =
      MakeBox(&db, {100000, 200000, 300000}, {400000, 500000, 600000});
  SelectionStats md, sdp;
  const auto got_md = a.SelectRangeMd(q.trapdoors, &md);
  const auto got_sdp = b.SelectRangeSdPlus(q.trapdoors, &sdp);
  EXPECT_EQ(Sorted(got_md), Sorted(got_sdp));
  EXPECT_EQ(Sorted(got_md), OracleSelectAll(plain, q.plains));
  // Sec. 6.2's whole point: the grid prunes most NS-band tuples without QPF.
  EXPECT_LT(md.qpf_uses, sdp.qpf_uses);
}

TEST(MultidimTest, DegeneratesToOneDimension) {
  Rng data_rng(4);
  PlainTable plain = RandomTable(200, 1, &data_rng, 0, 500);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);
  const auto q = MakeBox(&db, {100}, {300});
  const auto got = index.SelectRangeMd(q.trapdoors);
  EXPECT_EQ(Sorted(got), OracleSelectAll(plain, q.plains));
}

TEST(MultidimTest, EmptyBoxReturnsNothing) {
  Rng data_rng(5);
  PlainTable plain = RandomTable(200, 2, &data_rng, 0, 500);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);
  index.EnableAttr(1);
  const auto q = MakeBox(&db, {400, 400}, {100, 100});  // hi < lo
  EXPECT_TRUE(index.SelectRangeMd(q.trapdoors).empty());
}

TEST(MultidimTest, FallsBackWhenAttrNotEnabled) {
  Rng data_rng(6);
  PlainTable plain = RandomTable(100, 2, &data_rng, 0, 500);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);  // attr 1 NOT enabled
  const auto q = MakeBox(&db, {100, 100}, {400, 400});
  const auto got = index.SelectRangeMd(q.trapdoors);
  EXPECT_EQ(Sorted(got), OracleSelectAll(plain, q.plains));
}

struct MdSweep {
  uint64_t seed;
  size_t rows;
  size_t dims;
  Value domain;
  bool eager;
  // The ctest names of this sweep are a byte dump of the parameter, so the
  // padding after `eager` is an explicit zero field: left implicit, it picks
  // up whatever bytes the stack held.
  uint8_t zero_pad[7] = {};
};

class MultidimPropertyTest : public ::testing::TestWithParam<MdSweep> {};

TEST_P(MultidimPropertyTest, RandomBoxSequenceStaysExactAndConsistent) {
  const MdSweep param = GetParam();
  Rng data_rng(param.seed);
  PlainTable plain =
      RandomTable(param.rows, param.dims, &data_rng, 0, param.domain);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db, PrkbOptions{.seed = param.seed,
                                   .eager_md_update = param.eager});
  for (size_t d = 0; d < param.dims; ++d) {
    index.EnableAttr(static_cast<edbms::AttrId>(d));
  }

  Rng qrng(param.seed ^ 0xF00D);
  for (int i = 0; i < 40; ++i) {
    std::vector<Value> lo(param.dims), hi(param.dims);
    for (size_t d = 0; d < param.dims; ++d) {
      lo[d] = qrng.UniformInt64(0, param.domain);
      hi[d] = lo[d] + qrng.UniformInt64(0, param.domain / 2);
    }
    const auto q = MakeBox(&db, lo, hi);
    const auto got = index.SelectRangeMd(q.trapdoors);
    ASSERT_EQ(Sorted(got), OracleSelectAll(plain, q.plains))
        << "box query " << i;
    for (size_t d = 0; d < param.dims; ++d) {
      ASSERT_TRUE(index.pop(static_cast<edbms::AttrId>(d))
                      .ValidateAgainstPlain(plain.column(
                          static_cast<edbms::AttrId>(d)))
                      .ok())
          << "dim " << d << " after box query " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MultidimPropertyTest,
    ::testing::Values(MdSweep{1, 120, 2, 400, false},
                      MdSweep{2, 120, 2, 400, true},
                      MdSweep{3, 200, 3, 1000, false},
                      MdSweep{4, 200, 3, 1000, true},
                      MdSweep{5, 80, 4, 50, false},   // heavy duplication
                      MdSweep{6, 80, 4, 50, true},
                      MdSweep{7, 60, 1, 200, false},  // 1-D degenerate
                      MdSweep{8, 300, 2, 1000000, false}));

TEST(MultidimTest, EagerModeBuildsFinerChains) {
  Rng data_rng(9);
  PlainTable plain = RandomTable(1000, 3, &data_rng, 0, 100000);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex lazy(&db, PrkbOptions{.seed = 1, .eager_md_update = false});
  PrkbIndex eager(&db, PrkbOptions{.seed = 1, .eager_md_update = true});
  for (edbms::AttrId a = 0; a < 3; ++a) {
    lazy.EnableAttr(a);
    eager.EnableAttr(a);
  }
  Rng qrng(10);
  for (int i = 0; i < 25; ++i) {
    std::vector<Value> lo(3), hi(3);
    for (size_t d = 0; d < 3; ++d) {
      lo[d] = qrng.UniformInt64(0, 100000);
      hi[d] = lo[d] + 30000;
    }
    const auto q = MakeBox(&db, lo, hi);
    lazy.SelectRangeMd(q.trapdoors);
    eager.SelectRangeMd(q.trapdoors);
  }
  size_t k_lazy = 0, k_eager = 0;
  for (edbms::AttrId a = 0; a < 3; ++a) {
    k_lazy += lazy.pop(a).k();
    k_eager += eager.pop(a).k();
  }
  EXPECT_GE(k_eager, k_lazy);
}

}  // namespace
}  // namespace prkb::core
