// Randomised robustness suites:
//  - PopFuzz: long random mutation sequences keep every structural invariant;
//  - IoFuzz: bit-flipped / truncated snapshots never crash the decoder and
//    always surface an error status;
//  - DistributionSweep: selection exactness is independent of the data
//    distribution (the paper's footnote 10: uniform/normal/correlated/
//    anti-correlated behave alike).

#include <vector>

#include "edbms/cipherbase_qpf.h"
#include "gtest/gtest.h"
#include "prkb/prkb_io.h"
#include "prkb/selection.h"
#include "tests/test_util.h"
#include "workload/query_gen.h"
#include "workload/synthetic_table.h"

namespace prkb::core {
namespace {

using edbms::CipherbaseEdbms;
using edbms::PlainPredicate;
using edbms::PlainTable;
using edbms::TupleId;
using edbms::Value;
using testutil::OracleSelect;
using testutil::Sorted;

class PopFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PopFuzzTest, RandomWorkloadPreservesEveryInvariant) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const size_t rows = 30 + rng.UniformInt(0, 200);
  const Value domain = 1 + static_cast<Value>(rng.UniformInt(1, 500));
  PlainTable plain = testutil::RandomTable(rows, 1, &rng, 0, domain);
  auto db = CipherbaseEdbms::FromPlainTable(seed, plain);
  PrkbIndex index(&db, PrkbOptions{.seed = seed ^ 0x77});
  index.EnableAttr(0);

  for (int step = 0; step < 300; ++step) {
    const double dice = rng.UniformDouble();
    if (dice < 0.45) {
      PlainPredicate p{.attr = 0,
                       .op = static_cast<edbms::CompareOp>(
                           rng.UniformInt(0, 3)),
                       .lo = rng.UniformInt64(-5, domain + 5)};
      const auto got = index.Select(db.MakeComparison(0, p.op, p.lo));
      ASSERT_EQ(Sorted(got), OracleSelect(plain, p, &db)) << "step " << step;
    } else if (dice < 0.65) {
      const Value lo = rng.UniformInt64(-5, domain + 5);
      const Value hi = lo + rng.UniformInt64(0, domain / 2 + 1);
      PlainPredicate p{.attr = 0,
                       .kind = edbms::PredicateKind::kBetween,
                       .lo = lo,
                       .hi = hi};
      const auto got = index.Select(db.MakeBetween(0, lo, hi));
      ASSERT_EQ(Sorted(got), OracleSelect(plain, p, &db)) << "step " << step;
    } else if (dice < 0.85) {
      const Value v = rng.UniformInt64(0, domain);
      index.Insert({v});
      plain.AddRow({v});
    } else {
      const auto tid =
          static_cast<TupleId>(rng.UniformInt(0, db.num_rows() - 1));
      if (db.IsLive(tid)) index.Delete(tid);
    }
    ASSERT_TRUE(index.pop(0).Validate().ok()) << "step " << step;
    ASSERT_TRUE(index.pop(0).ValidateAgainstPlain(plain.column(0)).ok())
        << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PopFuzzTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808));

TEST(IoFuzzTest, MutatedSnapshotsErrorOutCleanly) {
  Rng data_rng(1);
  PlainTable plain = testutil::RandomTable(150, 1, &data_rng, 0, 1000);
  auto db = CipherbaseEdbms::FromPlainTable(9, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);
  workload::QueryGen gen(0, 1000, 2);
  for (int i = 0; i < 25; ++i) {
    const auto p = gen.RandomComparison(0);
    index.Select(db.MakeComparison(p.attr, p.op, p.lo));
  }
  const std::string path = "/tmp/prkb_fuzz_snapshot.bin";
  ASSERT_TRUE(SavePrkb(index, path).ok());

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);

  Rng rng(3);
  int clean_failures = 0;
  for (int iter = 0; iter < 200; ++iter) {
    auto mutated = bytes;
    // Flip a few bytes and/or truncate.
    const int flips = 1 + static_cast<int>(rng.UniformInt(0, 4));
    for (int i = 0; i < flips; ++i) {
      mutated[rng.UniformInt(0, mutated.size() - 1)] ^=
          static_cast<uint8_t>(1 + rng.UniformInt(0, 254));
    }
    if (rng.Bernoulli(0.3)) {
      mutated.resize(rng.UniformInt(0, mutated.size()));
    }
    const std::string mpath = "/tmp/prkb_fuzz_mutated.bin";
    std::FILE* mf = std::fopen(mpath.c_str(), "wb");
    ASSERT_NE(mf, nullptr);
    std::fwrite(mutated.data(), 1, mutated.size(), mf);
    std::fclose(mf);

    PrkbIndex victim(&db);
    const Status s = LoadPrkb(&victim, mpath);  // must not crash
    clean_failures += !s.ok();
    // When a mutation slips past all checks the loaded chain must still be
    // structurally valid (Validate runs inside DecodeFrom).
    std::remove(mpath.c_str());
  }
  // Many flips land in opaque payload bytes (sealed trapdoors, spare tuple-id
  // space) and legitimately decode; the decoder's real obligations are "never
  // crash" (this test ran to completion) and "reject structural damage".
  // Truncations and length-field damage must still fail en masse.
  EXPECT_GT(clean_failures, 50);
  std::remove(path.c_str());
}

struct DistCase {
  workload::Distribution dist;
  // The ctest names of this sweep are a byte dump of the parameter, so the
  // padding after `dist` is an explicit zero field: left implicit, it picks up
  // address bytes that change from run to run.
  uint32_t zero_pad = 0;
  uint64_t seed;
};

class DistributionSweepTest : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistributionSweepTest, ExactForEveryDistribution) {
  const DistCase param = GetParam();
  workload::SyntheticSpec spec;
  spec.rows = 400;
  spec.attrs = 2;
  spec.domain_lo = 0;
  spec.domain_hi = 100000;
  spec.dist = param.dist;
  spec.seed = param.seed;
  PlainTable plain = workload::MakeSyntheticTable(spec);
  auto db = CipherbaseEdbms::FromPlainTable(7, plain);
  PrkbIndex index(&db, PrkbOptions{.seed = param.seed});
  index.EnableAttr(0);
  index.EnableAttr(1);

  workload::QueryGen gen(0, 100000, param.seed + 1);
  for (int i = 0; i < 40; ++i) {
    const auto attr = static_cast<edbms::AttrId>(i % 2);
    const auto p = gen.RandomComparison(attr);
    const auto got = index.Select(db.MakeComparison(p.attr, p.op, p.lo));
    ASSERT_EQ(Sorted(got), OracleSelect(plain, p)) << "query " << i;
  }
  for (edbms::AttrId a = 0; a < 2; ++a) {
    EXPECT_TRUE(index.pop(a).ValidateAgainstPlain(plain.column(a)).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DistributionSweepTest,
    ::testing::Values(
        DistCase{.dist = workload::Distribution::kUniform, .seed = 1},
        DistCase{.dist = workload::Distribution::kNormal, .seed = 2},
        DistCase{.dist = workload::Distribution::kCorrelated, .seed = 3},
        DistCase{.dist = workload::Distribution::kAntiCorrelated, .seed = 4},
        DistCase{.dist = workload::Distribution::kZipf, .seed = 5},
        DistCase{.dist = workload::Distribution::kLogNormal, .seed = 6}));

}  // namespace
}  // namespace prkb::core
