// Shared-lock concurrency stress: mixed repeat/fresh selections racing
// inserts and deletes on ConcurrentPrkbIndex, cross-checked against a
// plaintext oracle. Sized to run under TSan in CI: the point is interleaving
// coverage (shared-shared on cache hits, shared-exclusive on mutation
// fallbacks, exclusive-exclusive on churn), not volume.
//
// Invariant exploited for mid-flight checking: churn never touches the
// initially-loaded tuples [0, kStableRows), and no partition can empty while
// every stable tuple survives — so the stable slice of every selection result
// must match the plaintext oracle exactly at any interleaving, and the warmed
// cuts (hence the fast-path cache entries) outlive the whole run.

#include <atomic>
#include <thread>
#include <vector>

#include "edbms/cipherbase_qpf.h"
#include "gtest/gtest.h"
#include "prkb/concurrent.h"
#include "tests/test_util.h"
#include "workload/query_gen.h"

namespace prkb {
namespace {

using edbms::CompareOp;
using edbms::PlainPredicate;
using edbms::TupleId;
using edbms::Value;

constexpr size_t kStableRows = 300;
constexpr int kSelectorThreads = 4;
constexpr int kOpsPerSelector = 40;

struct HotQuery {
  edbms::Trapdoor td;
  PlainPredicate pred;
  std::vector<TupleId> stable;  // oracle answer over the stable prefix
};

TEST(ConcurrentStressTest, MixedRepeatFreshChurnStaysExact) {
  Rng data_rng(21);
  auto plain = testutil::RandomTable(kStableRows, 1, &data_rng, 0, 1000);
  auto db = edbms::CipherbaseEdbms::FromPlainTable(42, plain);
  core::ConcurrentPrkbIndex index(&db);
  index.EnableAttr(0);

  // Hot set: warmed single-threaded so every repeat is a pure shared-lock
  // cache hit. One BETWEEN (warmed after a comparison boundary exists so
  // both its ends split and link).
  std::vector<HotQuery> hot;
  for (const Value c : {250, 500, 750}) {
    HotQuery q;
    q.pred.attr = 0;
    q.pred.op = CompareOp::kLt;
    q.pred.lo = c;
    q.td = db.MakeComparison(0, CompareOp::kLt, c);
    q.stable = testutil::OracleSelect(plain, q.pred);
    index.Select(q.td);
    hot.push_back(std::move(q));
  }
  {
    HotQuery q;
    q.pred.attr = 0;
    q.pred.kind = edbms::PredicateKind::kBetween;
    q.pred.lo = 300;
    q.pred.hi = 600;
    q.td = db.MakeBetween(0, 300, 600);
    q.stable = testutil::OracleSelect(plain, q.pred);
    index.Select(q.td);
    hot.push_back(std::move(q));
  }

  const uint64_t hits_before = core::CacheMetrics::Get().hits->value();

  // Fresh predicates, pre-issued per selector thread (the DataOwner is not
  // part of the SP-side concurrency story).
  std::vector<std::vector<HotQuery>> fresh(kSelectorThreads);
  workload::QueryGen gen(0, 1000, 3);
  for (int t = 0; t < kSelectorThreads; ++t) {
    for (int i = 0; i < 8; ++i) {
      HotQuery q;
      q.pred = gen.RandomComparison(0);
      q.td = db.MakeComparison(q.pred.attr, q.pred.op, q.pred.lo);
      q.stable = testutil::OracleSelect(plain, q.pred);
      fresh[t].push_back(std::move(q));
    }
  }

  std::atomic<int> failures{0};
  auto check = [&](const HotQuery& q, std::vector<TupleId> got) {
    // Stable slice must be oracle-exact; anything else must be churn-born.
    std::vector<TupleId> stable_got;
    for (TupleId tid : got) {
      if (tid < kStableRows) stable_got.push_back(tid);
    }
    if (testutil::Sorted(std::move(stable_got)) != q.stable) {
      failures.fetch_add(1);
    }
  };

  auto selector = [&](int t) {
    Rng rng(100 + t);
    for (int i = 0; i < kOpsPerSelector; ++i) {
      // ~75% repeats of the hot set, ~25% fresh predicates.
      if (rng.UniformInt64(0, 3) != 0) {
        const HotQuery& q = hot[rng.UniformInt64(0, hot.size() - 1)];
        check(q, index.Select(q.td));
      } else {
        const HotQuery& q = fresh[t][rng.UniformInt64(0, fresh[t].size() - 1)];
        check(q, index.Select(q.td));
      }
    }
  };

  // Churn thread: inserts fresh rows and deletes only rows it inserted, so
  // the stable prefix is never touched.
  std::vector<TupleId> churn_tids;
  std::vector<Value> churn_vals;
  auto churner = [&] {
    Rng rng(999);
    for (int i = 0; i < 30; ++i) {
      const Value v = rng.UniformInt64(0, 1000);
      churn_tids.push_back(index.Insert({v}));
      churn_vals.push_back(v);
      if (i % 3 == 2) index.Delete(churn_tids[churn_tids.size() - 2]);
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kSelectorThreads; ++t) threads.emplace_back(selector, t);
  threads.emplace_back(churner);
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(core::CacheMetrics::Get().hits->value(), hits_before);

  // Quiesced replay: every hot query re-answered single-threaded must match
  // the full oracle including surviving churn rows, off the cache.
  index.WithLocked([&](core::PrkbIndex& inner) {
    EXPECT_TRUE(inner.pop(0).Validate().ok());
    return 0;
  });
  for (const HotQuery& q : hot) {
    std::vector<TupleId> expect = q.stable;
    for (size_t i = 0; i < churn_tids.size(); ++i) {
      if (db.IsLive(churn_tids[i]) && q.pred.Satisfies(churn_vals[i])) {
        expect.push_back(churn_tids[i]);
      }
    }
    edbms::SelectionStats stats;
    EXPECT_EQ(testutil::Sorted(index.Select(q.td, &stats)),
              testutil::Sorted(std::move(expect)));
    EXPECT_EQ(stats.qpf_uses, 0u);  // warmed cuts survive the churn
  }
}

TEST(ConcurrentStressTest, ReadOnlyStatsRaceSelections) {
  Rng data_rng(22);
  auto plain = testutil::RandomTable(200, 1, &data_rng, 0, 1000);
  auto db = edbms::CipherbaseEdbms::FromPlainTable(43, plain);
  core::ConcurrentPrkbIndex index(&db);
  index.EnableAttr(0);

  const auto td = db.MakeComparison(0, CompareOp::kLt, 500);
  index.Select(td);

  std::thread reader([&] {
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(index.IsEnabled(0));
      ASSERT_EQ(index.EnabledAttrs(), std::vector<edbms::AttrId>{0});
      ASSERT_GT(index.StatsFor(0).tuples, 0u);
      ASSERT_GT(index.SizeBytes(), 0u);
    }
  });
  std::thread selector([&] {
    for (int i = 0; i < 200; ++i) index.Select(td);
  });
  std::thread inserter([&] {
    Rng rng(7);
    for (int i = 0; i < 20; ++i) index.Insert({rng.UniformInt64(0, 1000)});
  });
  reader.join();
  selector.join();
  inserter.join();

  index.WithLocked([&](core::PrkbIndex& inner) {
    EXPECT_TRUE(inner.pop(0).Validate().ok());
    EXPECT_EQ(inner.pop(0).num_tuples(), 220u);
    return 0;
  });
}

TEST(ConcurrentStressTest, MdSelectionsRaceEagerInsertsAndDeletes) {
  // 2-attribute PRKB(MD) boxes (exclusive) and single-attribute selections
  // (shared, retrying exclusive-per-stripe) race eager inserts and deletes
  // that re-place tuples through cuts of every kind. Churn only deletes rows
  // it inserted, so the stable slice of every answer must match the oracle
  // at any interleaving; after the run both chains must still be a partial
  // order of the plain values.
  Rng data_rng(23);
  auto plain = testutil::RandomTable(kStableRows, 2, &data_rng, 0, 1000);
  auto db = edbms::CipherbaseEdbms::FromPlainTable(44, plain);
  core::ConcurrentPrkbIndex index(&db);
  index.EnableAttr(0);
  index.EnableAttr(1);

  // Warm both chains with comparison cuts and linked BETWEEN pairs so
  // placement exercises the quantile and the general pick paths.
  workload::QueryGen gen(0, 1000, 5);
  Rng warm_rng(6);
  for (int i = 0; i < 24; ++i) {
    const edbms::AttrId attr = i % 2;
    if (i % 3 == 2) {
      const Value lo = warm_rng.UniformInt64(0, 850);
      index.Select(db.MakeBetween(attr, lo, lo + 150));
    } else {
      const PlainPredicate p = gen.RandomComparison(attr);
      index.Select(db.MakeComparison(attr, p.op, p.lo));
    }
  }

  struct Box {
    std::vector<PlainPredicate> preds;
    std::vector<edbms::Trapdoor> tds;
    std::vector<TupleId> stable;  // oracle answer over the stable prefix
  };
  std::vector<std::vector<Box>> boxes(kSelectorThreads);
  for (int t = 0; t < kSelectorThreads; ++t) {
    for (int i = 0; i < 6; ++i) {
      Box b;
      b.preds = gen.RandomBox({0, 1}, 0.5);
      for (const auto& p : b.preds) {
        b.tds.push_back(db.MakeComparison(p.attr, p.op, p.lo));
      }
      b.stable = testutil::OracleSelectAll(plain, b.preds);
      boxes[t].push_back(std::move(b));
    }
  }

  std::atomic<int> failures{0};
  auto stable_slice = [](std::vector<TupleId> got) {
    std::vector<TupleId> out;
    for (TupleId tid : got) {
      if (tid < kStableRows) out.push_back(tid);
    }
    return testutil::Sorted(std::move(out));
  };
  auto selector = [&](int t) {
    Rng rng(200 + t);
    for (int i = 0; i < 24; ++i) {
      const Box& b = boxes[t][rng.UniformInt64(0, boxes[t].size() - 1)];
      if (i % 4 == 3) {
        // One side of the box alone, through the shared-lock path.
        const size_t side = rng.UniformInt64(0, b.tds.size() - 1);
        const auto want = testutil::OracleSelect(plain, b.preds[side]);
        if (stable_slice(index.Select(b.tds[side])) != want) {
          failures.fetch_add(1);
        }
        continue;
      }
      if (stable_slice(index.SelectRangeMd(b.tds)) != b.stable) {
        failures.fetch_add(1);
      }
    }
  };

  std::vector<TupleId> churn_tids;
  std::vector<std::vector<Value>> churn_rows;
  auto churner = [&] {
    Rng rng(998);
    for (int i = 0; i < 30; ++i) {
      std::vector<Value> row = {rng.UniformInt64(0, 1000),
                                rng.UniformInt64(0, 1000)};
      churn_tids.push_back(index.Insert(row));
      churn_rows.push_back(std::move(row));
      if (i % 3 == 2) index.Delete(churn_tids[churn_tids.size() - 2]);
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kSelectorThreads; ++t) threads.emplace_back(selector, t);
  threads.emplace_back(churner);
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  for (size_t i = 0; i < churn_tids.size(); ++i) {
    ASSERT_EQ(churn_tids[i], plain.num_rows());
    plain.AddRow(churn_rows[i]);
  }
  index.WithLocked([&](core::PrkbIndex& inner) {
    for (edbms::AttrId attr : {0u, 1u}) {
      EXPECT_TRUE(inner.pop(attr)
                      .ValidateAgainstPlain(testutil::ColumnOf(plain, attr))
                      .ok());
    }
    return 0;
  });
  // Quiesced: every box answers exactly, surviving churn rows included.
  for (const auto& per_thread : boxes) {
    for (const Box& b : per_thread) {
      EXPECT_EQ(testutil::Sorted(index.SelectRangeMd(b.tds)),
                testutil::OracleSelectAll(plain, b.preds, &db));
    }
  }
}

}  // namespace
}  // namespace prkb
