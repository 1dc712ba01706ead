#include <algorithm>
#include <random>
#include <thread>
#include <vector>

#include "edbms/cipherbase_qpf.h"
#include "edbms/sdb_qpf.h"
#include "edbms/service_provider.h"
#include "edbms/trusted_machine.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"

namespace prkb::edbms {
namespace {

constexpr uint64_t kSeed = 0xC0FFEE;

PlainTable SmallTable() {
  PlainTable t(2);
  t.AddRow({10, 100});
  t.AddRow({20, 50});
  t.AddRow({-5, 200});
  t.AddRow({20, 0});
  return t;
}

// ------------------------------------------------------------- Predicates

TEST(PlainPredicateTest, ComparisonSemantics) {
  PlainPredicate p{.attr = 0, .op = CompareOp::kLt, .lo = 10};
  EXPECT_TRUE(p.Satisfies(9));
  EXPECT_FALSE(p.Satisfies(10));
  p.op = CompareOp::kLe;
  EXPECT_TRUE(p.Satisfies(10));
  p.op = CompareOp::kGt;
  EXPECT_FALSE(p.Satisfies(10));
  EXPECT_TRUE(p.Satisfies(11));
  p.op = CompareOp::kGe;
  EXPECT_TRUE(p.Satisfies(10));
}

TEST(PlainPredicateTest, BetweenIsInclusive) {
  PlainPredicate p{.attr = 0, .kind = PredicateKind::kBetween, .lo = 5,
                   .hi = 8};
  EXPECT_FALSE(p.Satisfies(4));
  EXPECT_TRUE(p.Satisfies(5));
  EXPECT_TRUE(p.Satisfies(8));
  EXPECT_FALSE(p.Satisfies(9));
}

TEST(PlainPredicateTest, ToStringMentionsOperator) {
  PlainPredicate p{.attr = 1, .op = CompareOp::kGe, .lo = 42};
  EXPECT_EQ(p.ToString(), "C1 >= 42");
  PlainPredicate b{.attr = 0, .kind = PredicateKind::kBetween, .lo = 1,
                   .hi = 2};
  EXPECT_EQ(b.ToString(), "C0 BETWEEN 1 AND 2");
}

// ------------------------------------------------------------- Encryption

TEST(EncryptionTest, ValueRoundTrip) {
  DataOwner owner(kSeed);
  for (Value v : {Value{0}, Value{1}, Value{-1}, Value{1LL << 40},
                  Value{-(1LL << 40)}}) {
    const auto row = owner.EncryptRow({v});
    EXPECT_EQ(owner.DecryptValue(row[0]), v);
  }
}

TEST(EncryptionTest, EqualPlaintextsGetDistinctCiphertexts) {
  DataOwner owner(kSeed);
  const auto a = owner.EncryptRow({42});
  const auto b = owner.EncryptRow({42});
  EXPECT_NE(a[0].nonce, b[0].nonce);
  EXPECT_NE(a[0].ct, b[0].ct);  // distinct nonces => distinct streams
}

TEST(EncryptionTest, TrustedMachineSharesKeys) {
  DataOwner owner(kSeed);
  TrustedMachine tm(kSeed);
  const auto row = owner.EncryptRow({1234});
  EXPECT_EQ(tm.DecryptValue(row[0]), 1234);
}

TEST(EncryptionTest, TamperedTrapdoorIsRejected) {
  DataOwner owner(kSeed);
  TrustedMachine tm(kSeed);
  Trapdoor td = owner.MakeComparison(0, CompareOp::kLt, 7);
  td.blob[10] ^= 0xFF;
  const auto cell = owner.EncryptRow({1})[0];
  bool ok = true;
  tm.EvalPredicate(td, cell, &ok);
  EXPECT_FALSE(ok);
}

TEST(EncryptionTest, TrapdoorBoundToAttrAndKind) {
  DataOwner owner(kSeed);
  TrustedMachine tm(kSeed);
  Trapdoor td = owner.MakeComparison(0, CompareOp::kLt, 7);
  td.attr = 1;  // relabeled by a malicious SP
  bool ok = true;
  tm.EvalPredicate(td, owner.EncryptRow({1, 1})[0], &ok);
  EXPECT_FALSE(ok);
}

// -------------------------------------------------------- Trusted machine

// Batch sizes around the TM's 8-block keystream step and 64-cell chunk.
constexpr size_t kBatchSizes[] = {0, 1, 7, 8, 9, 63, 64, 65, 1000};

// Cells drawn from a narrow range so ties with the constants occur, with
// their plaintexts for the oracle, and one trapdoor per comparison operator
// plus a BETWEEN.
struct TmFixture {
  DataOwner owner{kSeed};
  TrustedMachine tm{kSeed};
  std::vector<Value> plain;
  std::vector<EncValue> enc;
  std::vector<PlainPredicate> preds;
  std::vector<Trapdoor> tds;

  TmFixture() {
    std::mt19937_64 rng(7);
    for (size_t i = 0; i < 1000; ++i) {
      plain.push_back(static_cast<Value>(rng() % 41) - 20);
      enc.push_back(owner.EncryptRow({plain.back()})[0]);
    }
    for (CompareOp op : {CompareOp::kLt, CompareOp::kGt, CompareOp::kLe,
                         CompareOp::kGe}) {
      preds.push_back(PlainPredicate{.attr = 0, .op = op, .lo = 3});
      tds.push_back(owner.MakeComparison(0, op, 3));
    }
    preds.push_back(PlainPredicate{
        .attr = 0, .kind = PredicateKind::kBetween, .lo = -5, .hi = 5});
    tds.push_back(owner.MakeBetween(0, -5, 5));
  }

  std::vector<const EncValue*> Cells(size_t n) const {
    std::vector<const EncValue*> cells;
    for (size_t i = 0; i < n; ++i) cells.push_back(&enc[i]);
    return cells;
  }
};

// Snapshot of every counter a TM entry moves.
struct TmCounts {
  uint64_t evals, trips, entries, tm_evals, batches;

  static TmCounts Of(const TrustedMachine& tm) {
    auto& reg = obs::MetricsRegistry::Global();
    return {tm.predicate_evals(), tm.round_trips(),
            reg.GetCounter("tm.entries")->value(),
            reg.GetCounter("tm.evals")->value(),
            reg.GetHistogram("tm.batch_cells")->count()};
  }
  TmCounts operator-(const TmCounts& o) const {
    return {evals - o.evals, trips - o.trips, entries - o.entries,
            tm_evals - o.tm_evals, batches - o.batches};
  }
};

void ExpectCounts(const TmCounts& got, uint64_t evals, uint64_t entries,
                  uint64_t batches) {
  EXPECT_EQ(got.evals, evals);
  EXPECT_EQ(got.trips, entries);
  EXPECT_EQ(got.entries, entries);
  EXPECT_EQ(got.tm_evals, evals);
  EXPECT_EQ(got.batches, batches);
}

TEST(TrustedMachineTest, BatchEntriesMatchScalarForEveryOperatorAndSize) {
  TmFixture f;
  for (size_t n : kBatchSizes) {
    const auto cells = f.Cells(n);
    for (size_t p = 0; p < f.tds.size(); ++p) {
      const Trapdoor& td = f.tds[p];
      TmCounts before = TmCounts::Of(f.tm);
      BitVector scalar(n);
      for (size_t i = 0; i < n; ++i) {
        bool ok = false;
        scalar.Assign(i, f.tm.EvalPredicate(td, *cells[i], &ok));
        ASSERT_TRUE(ok);
        ASSERT_EQ(scalar.Get(i), f.preds[p].Satisfies(f.plain[i]))
            << f.preds[p].ToString() << " i=" << i;
      }
      ExpectCounts(TmCounts::Of(f.tm) - before, n, n, 0);

      before = TmCounts::Of(f.tm);
      bool ok = false;
      EXPECT_EQ(f.tm.EvalPredicateBatch(td, cells, &ok), scalar)
          << f.preds[p].ToString() << " n=" << n;
      EXPECT_TRUE(ok);
      ExpectCounts(TmCounts::Of(f.tm) - before, n, 1, 1);

      const std::vector<const Trapdoor*> same(n, &td);
      before = TmCounts::Of(f.tm);
      ok = false;
      EXPECT_EQ(f.tm.EvalPredicateMulti(same, cells, &ok), scalar)
          << f.preds[p].ToString() << " n=" << n;
      EXPECT_TRUE(ok);
      ExpectCounts(TmCounts::Of(f.tm) - before, n, 1, 1);
    }
  }
}

TEST(TrustedMachineTest, MultiWithMixedTrapdoorsMatchesScalar) {
  TmFixture f;
  std::mt19937_64 rng(11);
  for (size_t n : kBatchSizes) {
    // Runs of 1..9 lanes under one trapdoor, as fused probe rounds send
    // them, with some runs handed over as separate copies of the trapdoor.
    std::vector<Trapdoor> copies(f.tds);
    std::vector<const Trapdoor*> tds;
    while (tds.size() < n) {
      const size_t p = rng() % f.tds.size();
      const Trapdoor* td = rng() % 2 == 0 ? &f.tds[p] : &copies[p];
      for (size_t run = 1 + rng() % 9; run > 0 && tds.size() < n; --run) {
        tds.push_back(td);
      }
    }
    const auto cells = f.Cells(n);
    BitVector scalar(n);
    for (size_t i = 0; i < n; ++i) {
      scalar.Assign(i, f.tm.EvalPredicate(*tds[i], *cells[i]));
    }
    const TmCounts before = TmCounts::Of(f.tm);
    bool ok = false;
    EXPECT_EQ(f.tm.EvalPredicateMulti(tds, cells, &ok), scalar) << "n=" << n;
    EXPECT_TRUE(ok);
    ExpectCounts(TmCounts::Of(f.tm) - before, n, 1, 1);
  }
}

// A forged trapdoor that reuses a verified trapdoor's uid, placed inside a
// run of that trapdoor's lanes, fails its own lanes only. The verified cache
// vouches for the exact trapdoor it checked, not for its uid.
TEST(TrustedMachineTest, ForgedLaneInsideARunOfItsUidFailsAlone) {
  TmFixture f;
  const Trapdoor& good = f.tds[0];
  Trapdoor forged = good;
  forged.blob[10] ^= 0xFF;
  Trapdoor relabeled = good;
  relabeled.kind = PredicateKind::kBetween;

  const size_t n = 70;
  std::vector<const Trapdoor*> tds(n, &good);
  tds[10] = &forged;
  tds[11] = &forged;
  tds[40] = &relabeled;
  const auto cells = f.Cells(n);
  bool ok = true;
  const BitVector got = f.tm.EvalPredicateMulti(tds, cells, &ok);
  EXPECT_FALSE(ok);
  for (size_t i = 0; i < n; ++i) {
    const bool want =
        tds[i] == &good && f.preds[0].Satisfies(f.plain[i]);
    EXPECT_EQ(got.Get(i), want) << "lane " << i;
  }

  // The scalar and batch entries refuse them too, after `good` is cached.
  ok = true;
  EXPECT_FALSE(f.tm.EvalPredicate(forged, *cells[0], &ok));
  EXPECT_FALSE(ok);
  ok = true;
  EXPECT_EQ(f.tm.EvalPredicateBatch(relabeled, cells, &ok).Count(), 0u);
  EXPECT_FALSE(ok);
  ok = false;
  f.tm.EvalPredicate(good, *cells[0], &ok);
  EXPECT_TRUE(ok);
}

// Four threads open freshly issued trapdoors at once, so Open's insert path
// races its shared-lock lookup (run under TSan in CI).
TEST(TrustedMachineTest, ConcurrentBatchAndMultiEntriesStayExact) {
  TmFixture f;
  std::vector<Trapdoor> fresh;
  std::vector<PlainPredicate> preds;
  for (int round = 0; round < 8; ++round) {
    for (size_t p = 0; p < f.preds.size(); ++p) {
      PlainPredicate pred = f.preds[p];
      pred.lo += round;
      pred.hi += round;
      preds.push_back(pred);
      fresh.push_back(pred.kind == PredicateKind::kBetween
                          ? f.owner.MakeBetween(0, pred.lo, pred.hi)
                          : f.owner.MakeComparison(0, pred.op, pred.lo));
    }
  }
  const auto cells = f.Cells(200);
  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t k = 0; k < fresh.size(); ++k) {
        const size_t j = (k + static_cast<size_t>(t) * 5) % fresh.size();
        const size_t j2 = (j + 1) % fresh.size();
        bool ok = false;
        const BitVector batch = f.tm.EvalPredicateBatch(fresh[j], cells, &ok);
        mismatches[t] += ok ? 0 : 1;
        // Multi: first half of the lanes under j, second half under j2.
        std::vector<const Trapdoor*> tds(cells.size(), &fresh[j]);
        for (size_t i = cells.size() / 2; i < cells.size(); ++i) {
          tds[i] = &fresh[j2];
        }
        const BitVector multi = f.tm.EvalPredicateMulti(tds, cells, &ok);
        mismatches[t] += ok ? 0 : 1;
        for (size_t i = 0; i < cells.size(); ++i) {
          const bool half2 = i >= cells.size() / 2;
          mismatches[t] += batch.Get(i) != preds[j].Satisfies(f.plain[i]);
          mismatches[t] +=
              multi.Get(i) != preds[half2 ? j2 : j].Satisfies(f.plain[i]);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
  EXPECT_EQ(f.tm.predicate_evals(), kThreads * fresh.size() * 2 * 200);
  EXPECT_EQ(f.tm.round_trips(), kThreads * fresh.size() * 2);
}

// A long-running TM is shown a fresh trapdoor with every query. Through 10^6
// of them the verified cache never holds more than its capacity, a trapdoor
// opened again right away still answers from the cache, and the hit and
// miss counters account for every open.
TEST(TrustedMachineTest, VerifiedCacheStaysBoundedOverAMillionTrapdoors) {
  DataOwner owner(kSeed);
  TrustedMachine tm(kSeed);
  const EncValue cell = owner.EncryptRow({7})[0];
  obs::Counter* hits =
      obs::MetricsRegistry::Global().GetCounter("tm.trapdoor_hits");
  obs::Counter* misses =
      obs::MetricsRegistry::Global().GetCounter("tm.trapdoor_misses");
  const uint64_t hits0 = hits->value();
  const uint64_t misses0 = misses->value();

  constexpr uint64_t kTrapdoors = 1'000'000;
  uint64_t wrong = 0;
  size_t max_size = 0;
  for (uint64_t i = 0; i < kTrapdoors; ++i) {
    const Value c = static_cast<Value>(i % 16);
    const Trapdoor td = owner.MakeComparison(0, CompareOp::kLt, c);
    wrong += tm.EvalPredicate(td, cell) != (7 < c);  // miss: MAC checked
    wrong += tm.EvalPredicate(td, cell) != (7 < c);  // hit
    max_size = std::max(max_size, tm.verified_size());
  }
  EXPECT_EQ(wrong, 0u);
  // Filled to the bound, never past it.
  EXPECT_EQ(max_size, TrustedMachine::kVerifiedCapacity);
  EXPECT_EQ(misses->value() - misses0, kTrapdoors);
  EXPECT_EQ(hits->value() - hits0, kTrapdoors);
}

// --------------------------------------------------------------- Backends

template <typename T>
class EdbmsBackendTest : public ::testing::Test {
 public:
  static T MakeDb(const PlainTable& plain) {
    return T::FromPlainTable(kSeed, plain);
  }
};

using Backends = ::testing::Types<CipherbaseEdbms, SdbEdbms>;
TYPED_TEST_SUITE(EdbmsBackendTest, Backends);

TYPED_TEST(EdbmsBackendTest, QpfMatchesPlainEvaluation) {
  const PlainTable plain = SmallTable();
  auto db = TestFixture::MakeDb(plain);
  struct Case {
    AttrId attr;
    CompareOp op;
    Value c;
  };
  const Case cases[] = {
      {0, CompareOp::kLt, 15}, {0, CompareOp::kGt, 10},
      {0, CompareOp::kLe, 20}, {0, CompareOp::kGe, 20},
      {1, CompareOp::kLt, 60}, {1, CompareOp::kGt, 100},
  };
  for (const auto& c : cases) {
    const Trapdoor td = db.MakeComparison(c.attr, c.op, c.c);
    PlainPredicate p{.attr = c.attr, .op = c.op, .lo = c.c};
    for (TupleId tid = 0; tid < plain.num_rows(); ++tid) {
      EXPECT_EQ(db.Eval(td, tid), p.Satisfies(plain.at(c.attr, tid)))
          << p.ToString() << " tid=" << tid;
    }
  }
}

TYPED_TEST(EdbmsBackendTest, BetweenQpfMatchesPlainEvaluation) {
  const PlainTable plain = SmallTable();
  auto db = TestFixture::MakeDb(plain);
  const Trapdoor td = db.MakeBetween(1, 40, 120);
  PlainPredicate p{.attr = 1, .kind = PredicateKind::kBetween, .lo = 40,
                   .hi = 120};
  for (TupleId tid = 0; tid < plain.num_rows(); ++tid) {
    EXPECT_EQ(db.Eval(td, tid), p.Satisfies(plain.at(1, tid)));
  }
}

TYPED_TEST(EdbmsBackendTest, UsesCounterCountsEveryEval) {
  auto db = TestFixture::MakeDb(SmallTable());
  const Trapdoor td = db.MakeComparison(0, CompareOp::kLt, 15);
  EXPECT_EQ(db.uses(), 0u);
  db.Eval(td, 0);
  db.Eval(td, 1);
  EXPECT_EQ(db.uses(), 2u);
  db.ResetUses();
  EXPECT_EQ(db.uses(), 0u);
}

TYPED_TEST(EdbmsBackendTest, InsertAndDelete) {
  auto db = TestFixture::MakeDb(SmallTable());
  const TupleId tid = db.Insert({99, 1});
  EXPECT_EQ(tid, 4u);
  EXPECT_TRUE(db.IsLive(tid));
  const Trapdoor td = db.MakeComparison(0, CompareOp::kGt, 50);
  EXPECT_TRUE(db.Eval(td, tid));
  db.Delete(tid);
  EXPECT_FALSE(db.IsLive(tid));
}

TYPED_TEST(EdbmsBackendTest, StoredBytesGrowWithRows) {
  auto db = TestFixture::MakeDb(SmallTable());
  const size_t before = db.StoredBytes();
  db.Insert({1, 2});
  EXPECT_GT(db.StoredBytes(), before);
}

// ---------------------------------------------------------------- Baseline

TEST(BaselineScannerTest, SelectMatchesGroundTruth) {
  const PlainTable plain = SmallTable();
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  BaselineScanner scan(&db);
  const Trapdoor td = db.MakeComparison(0, CompareOp::kGe, 10);
  SelectionStats stats;
  const auto got = scan.Select(td, &stats);
  EXPECT_EQ(got, (std::vector<TupleId>{0, 1, 3}));
  EXPECT_EQ(stats.qpf_uses, plain.num_rows());
}

TEST(BaselineScannerTest, SkipsTombstonedRows) {
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, SmallTable());
  db.Delete(1);
  BaselineScanner scan(&db);
  const Trapdoor td = db.MakeComparison(0, CompareOp::kGe, 10);
  EXPECT_EQ(scan.Select(td), (std::vector<TupleId>{0, 3}));
}

TEST(BaselineScannerTest, ConjunctionShortCircuits) {
  const PlainTable plain = SmallTable();
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  BaselineScanner scan(&db);
  // First predicate matches only tuple 2; second is never evaluated for the
  // other three tuples.
  const Trapdoor a = db.MakeComparison(0, CompareOp::kLt, 0);
  const Trapdoor b = db.MakeComparison(1, CompareOp::kGt, 100);
  SelectionStats stats;
  const auto got = scan.SelectConjunction({a, b}, &stats);
  EXPECT_EQ(got, (std::vector<TupleId>{2}));
  EXPECT_EQ(stats.qpf_uses, 4u + 1u);
}

TEST(SdbEdbmsTest, TracksRoundsAndBytes) {
  auto db = SdbEdbms::FromPlainTable(kSeed, SmallTable());
  const Trapdoor td = db.MakeComparison(0, CompareOp::kLt, 100);
  db.Eval(td, 0);
  db.Eval(td, 1);
  EXPECT_EQ(db.rounds(), 2u);
  EXPECT_GT(db.bytes_transferred(), 0u);
}

}  // namespace
}  // namespace prkb::edbms
