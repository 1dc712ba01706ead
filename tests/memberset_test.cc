// Property tests for the Roaring-style compressed membership set
// (prkb/memberset.h) against a std::set oracle, exercised across the
// array / bitmap / run container-type boundaries.
#include "prkb/memberset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/serial.h"
#include "edbms/cipherbase_qpf.h"
#include "obs/metrics.h"
#include "prkb/selection.h"
#include "tests/test_util.h"
#include "workload/query_gen.h"
#include "workload/synthetic_table.h"

namespace prkb::core {
namespace {

using edbms::TupleId;

std::vector<TupleId> ToVec(const std::set<TupleId>& s) {
  return std::vector<TupleId>(s.begin(), s.end());
}

/// Checks every read-side accessor of `ms` against the oracle.
void ExpectMatches(const MemberSet& ms, const std::set<TupleId>& oracle) {
  ASSERT_EQ(ms.Size(), oracle.size());
  EXPECT_EQ(ms.Empty(), oracle.empty());
  EXPECT_EQ(ms.ToVector(), ToVec(oracle));
  // Iteration is ascending (winner assembly and the on-disk encodings are
  // deterministic functions of the set).
  std::vector<TupleId> seen;
  ms.ForEach([&seen](TupleId tid) { seen.push_back(tid); });
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(seen, ToVec(oracle));
  // Rank-select agrees with sorted order.
  if (!oracle.empty()) {
    EXPECT_EQ(ms.Select(0), *oracle.begin());
    EXPECT_EQ(ms.Select(oracle.size() - 1), *oracle.rbegin());
    size_t mid = oracle.size() / 2;
    EXPECT_EQ(ms.Select(mid), ToVec(oracle)[mid]);
  }
}

/// Value shapes that force each container kind and its transitions:
///   dense contiguous runs (run containers), sparse scatter (array),
///   above-threshold scatter (bitmap), and mixes straddling 64Ki chunks.
std::vector<TupleId> ShapedValues(int shape, Rng* rng) {
  std::vector<TupleId> vals;
  switch (shape % 5) {
    case 0:  // one long run
      for (TupleId t = 100; t < 5200; ++t) vals.push_back(t);
      break;
    case 1:  // sparse array
      for (int i = 0; i < 600; ++i) {
        vals.push_back(static_cast<TupleId>(rng->UniformInt(0, 65535)));
      }
      break;
    case 2:  // dense scatter past the array→bitmap threshold (4096)
      for (int i = 0; i < 9000; ++i) {
        vals.push_back(static_cast<TupleId>(rng->UniformInt(0, 30000)));
      }
      break;
    case 3:  // runs with gaps, crossing the 65536 chunk boundary
      for (TupleId t = 65000; t < 66000; ++t) vals.push_back(t);
      for (TupleId t = 131000; t < 131100; ++t) vals.push_back(t);
      vals.push_back(7);
      break;
    default:  // scatter across many chunks
      for (int i = 0; i < 3000; ++i) {
        vals.push_back(static_cast<TupleId>(rng->UniformInt(0, 1 << 20)));
      }
      break;
  }
  return vals;
}

TEST(MemberSetTest, AddRemoveContainsMatchOracleAcrossShapes) {
  Rng rng(0xC0FFEE);
  for (int shape = 0; shape < 10; ++shape) {
    MemberSet ms;
    std::set<TupleId> oracle;
    for (TupleId v : ShapedValues(shape, &rng)) {
      ms.Add(v);
      oracle.insert(v);
    }
    ExpectMatches(ms, oracle);
    // Remove a random half; every container must shrink consistently
    // (bitmap→array demotion happens under the hood).
    std::vector<TupleId> all = ToVec(oracle);
    for (size_t i = 0; i < all.size(); i += 2) {
      EXPECT_TRUE(ms.Remove(all[i]));
      oracle.erase(all[i]);
    }
    EXPECT_FALSE(ms.Remove(999999999));  // absent: no-op, reports false
    ExpectMatches(ms, oracle);
    for (TupleId v : all) {
      EXPECT_EQ(ms.Contains(v), oracle.contains(v)) << v;
    }
  }
}

TEST(MemberSetTest, SetOperationsMatchOracle) {
  Rng rng(42);
  for (int trial = 0; trial < 8; ++trial) {
    const auto va = ShapedValues(trial, &rng);
    const auto vb = ShapedValues(trial + 2, &rng);
    const MemberSet a = MemberSet::FromTuples(va);
    const MemberSet b = MemberSet::FromTuples(vb);
    const std::set<TupleId> oa(va.begin(), va.end());
    const std::set<TupleId> ob(vb.begin(), vb.end());

    std::set<TupleId> u = oa, inter, diff;
    u.insert(ob.begin(), ob.end());
    for (TupleId t : oa) {
      if (ob.contains(t)) inter.insert(t);
      else diff.insert(t);
    }
    ExpectMatches(MemberSet::Union(a, b), u);
    ExpectMatches(MemberSet::Intersect(a, b), inter);
    ExpectMatches(MemberSet::Difference(a, b), diff);

    MemberSet c = a;
    c.UnionWith(b);
    ExpectMatches(c, u);
  }
}

TEST(MemberSetTest, SplitAsDifferenceReassemblesExactly) {
  // The WAL split-replay identity: right = old \ left, left ∪ right = old.
  Rng rng(7);
  const auto vals = ShapedValues(2, &rng);
  const MemberSet old = MemberSet::FromTuples(vals);
  std::vector<TupleId> half(vals.begin(),
                            vals.begin() + static_cast<long>(vals.size() / 3));
  const MemberSet left = MemberSet::Intersect(old, MemberSet::FromTuples(half));
  const MemberSet right = MemberSet::Difference(old, left);
  EXPECT_EQ(left.Size() + right.Size(), old.Size());
  EXPECT_TRUE(MemberSet::Intersect(left, right).Empty());
  EXPECT_TRUE(MemberSet::Union(left, right) == old);
}

TEST(MemberSetTest, EncodingRoundTripsAndIsDeterministic) {
  Rng rng(99);
  for (int shape = 0; shape < 5; ++shape) {
    auto vals = ShapedValues(shape, &rng);
    const MemberSet ms = MemberSet::FromTuples(vals);
    Encoder enc;
    ms.EncodeTo(&enc);

    // Same set built in a different insertion order encodes identically.
    std::shuffle(vals.begin(), vals.end(), std::mt19937(shape));
    MemberSet scrambled;
    for (TupleId v : vals) scrambled.Add(v);
    scrambled.Optimize();
    Encoder enc2;
    scrambled.EncodeTo(&enc2);
    EXPECT_EQ(enc.buffer(), enc2.buffer());

    MemberSet back;
    Decoder dec(enc.buffer());
    ASSERT_TRUE(back.DecodeFrom(&dec).ok());
    EXPECT_TRUE(dec.Done());
    EXPECT_TRUE(back == ms);
  }
}

TEST(MemberSetTest, DecodeRejectsCorruptPayloads) {
  const MemberSet ms = MemberSet::FromTuples({1, 2, 3, 1000, 70000});
  Encoder enc;
  ms.EncodeTo(&enc);
  const std::vector<uint8_t>& good = enc.buffer();
  // Truncations at every prefix either fail cleanly or round-trip: they must
  // never crash or mis-size.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    MemberSet victim;
    Decoder dec(good.data(), cut);
    const Status s = victim.DecodeFrom(&dec);
    if (s.ok()) EXPECT_LE(victim.Size(), ms.Size());
  }
}

TEST(MemberSetTest, CompressionBeatsRawVectorsOnRunHeavyData) {
  // A contiguous block — the shape initPRKB produces — must compress to a
  // tiny fraction of the raw 4-byte-per-tuple footprint (ISSUE: ≥5×).
  std::vector<TupleId> run(100000);
  for (size_t i = 0; i < run.size(); ++i) run[i] = static_cast<TupleId>(i);
  MemberSet ms = MemberSet::FromTuples(run);
  ms.Optimize();
  EXPECT_LT(ms.SizeBytes() * 5, run.size() * sizeof(TupleId));
  EXPECT_GE(ms.ContainerCount(), 1u);
}

TEST(MemberSetTest, ClusteredChainBeatsRawFiveFoldWithOracleWinners) {
  // A 100k-row chain split by 120 random comparisons (k ~ 121), in two data
  // shapes. Clustered: the value tracks the tuple id (sequential-key
  // ingest), so value-contiguous partitions are tuple-id runs and the
  // published `memberset.bytes` must sit more than 5x under raw 4-byte
  // vectors. Uniform: the paper's setup, partitions scatter over the id
  // space (array/bitmap containers, no ratio asserted). Compression must
  // change no answer: every winner set equals the plaintext oracle's.
  constexpr size_t kRows = 100'000;
  constexpr uint64_t kSeed = 42;
  constexpr edbms::Value kDomainHi = static_cast<edbms::Value>(kRows) * 3;
  for (const bool clustered : {true, false}) {
    SCOPED_TRACE(clustered ? "clustered" : "uniform");
    edbms::PlainTable plain(1);
    if (clustered) {
      Rng rng(kSeed);
      for (size_t i = 0; i < kRows; ++i) {
        plain.AddRow({static_cast<edbms::Value>(i) * 3 +
                      static_cast<edbms::Value>(rng.UniformInt(0, 2))});
      }
    } else {
      workload::SyntheticSpec spec;
      spec.rows = kRows;
      spec.domain_hi = kDomainHi;
      spec.seed = kSeed + 1;
      plain = workload::MakeSyntheticTable(spec);
    }
    auto db = edbms::CipherbaseEdbms::FromPlainTable(kSeed, plain);
    PrkbIndex index(&db, PrkbOptions{.seed = kSeed});
    index.EnableAttr(0);
    workload::QueryGen gen(1, kDomainHi, kSeed + 7);
    for (int q = 0; q < 120; ++q) {
      const edbms::PlainPredicate p = gen.RandomComparison(0);
      ASSERT_EQ(
          testutil::Sorted(index.Select(db.MakeComparison(0, p.op, p.lo))),
          testutil::OracleSelect(plain, p))
          << "query " << q;
    }
    EXPECT_GE(index.pop(0).k(), 100u);
    index.SizeBytes();  // publishes the memberset.* gauges
    const int64_t bytes =
        obs::MetricsRegistry::Global().GetGauge("memberset.bytes")->value();
    EXPECT_EQ(bytes, static_cast<int64_t>(index.pop(0).MembershipBytes()));
    if (clustered) {
      EXPECT_LT(bytes * 5, static_cast<int64_t>(kRows * sizeof(TupleId)));
    }
  }
}

}  // namespace
}  // namespace prkb::core
