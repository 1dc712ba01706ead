// Golden pins on the exact winner vectors of the zero-QPF reads: the order in
// which a selection returns its tuples is a deterministic function of the
// chain (each partition's run, ascending, in chain order, then the scanned
// winners), so any change to how the chain stores or walks its tuples must
// reproduce every vector element for element — not just the same sets. The
// totals were recorded from the chain that assembled winners by walking one
// compressed membership set per partition.

#include <cstdint>
#include <vector>

#include "common/serial.h"
#include "edbms/cipherbase_qpf.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "prkb/selection.h"
#include "tests/test_util.h"
#include "workload/query_gen.h"

namespace prkb::core {
namespace {

using edbms::CipherbaseEdbms;
using edbms::PlainPredicate;
using edbms::PlainTable;
using edbms::Trapdoor;
using edbms::TupleId;
using edbms::Value;
using testutil::OracleSelect;
using testutil::OracleSelectAll;
using testutil::Sorted;

constexpr uint64_t kDbSeed = 0x0DE12;

/// Order-sensitive FNV-1a fold: every vector contributes its elements in
/// the order returned, then a terminator.
struct Fnv {
  uint64_t h = 0xCBF29CE484222325ULL;
  void Mix(uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ULL;
  }
  void Fold(const std::vector<TupleId>& winners) {
    for (TupleId tid : winners) Mix(tid);
    Mix(0xFF);
  }
};

struct OrderTotals {
  uint64_t cmp;      // fresh comparisons, as returned
  uint64_t btw;      // fresh BETWEENs, as returned
  uint64_t repeat;   // re-sent trapdoors (fast path when the cut survives)
  uint64_t sdplus;   // SD+ conjunctions, as returned
  uint64_t md;       // PRKB(MD) boxes, sorted (MD order is not pinned)
  uint64_t uses;
  uint64_t trips;
  uint64_t chains;   // FNV-1a over both chains' EncodeTo bytes
  uint64_t coarsen_merges;
};

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

/// 600 rows x 2 attributes under default options, then 320 mixed
/// operations: fresh comparisons and BETWEENs, repeats of earlier trapdoors,
/// SD+ and MD boxes, eager inserts, four-row buffered flushes, and a delete
/// every 20 operations. Every answer is checked against the
/// plaintext oracle; the returned hashes pin the exact vectors.
OrderTotals RunOrderWorkload(uint64_t seed) {
  Rng data_rng(seed);
  PlainTable plain = testutil::RandomTable(600, 2, &data_rng, 0, 5000);
  auto db = CipherbaseEdbms::FromPlainTable(kDbSeed, plain);
  PrkbIndex index(&db, PrkbOptions{});
  index.EnableAttr(0);
  index.EnableAttr(1);
  workload::QueryGen gen(0, 5000, seed + 1);
  Rng op_rng(seed + 2);
  const uint64_t coarsen_before = CounterValue("update.coarsen_merges");

  Fnv cmp, btw, repeat, sdplus, md;
  std::vector<std::pair<Trapdoor, PlainPredicate>> issued;
  std::vector<TupleId> live;
  for (TupleId t = 0; t < 600; ++t) live.push_back(t);
  const auto new_row = [&] {
    const std::vector<Value> row = {op_rng.UniformInt64(0, 5000),
                                    op_rng.UniformInt64(0, 5000)};
    plain.AddRow(row);
    return row;
  };
  const auto box_tds = [&](const std::vector<PlainPredicate>& box) {
    std::vector<Trapdoor> tds;
    for (const auto& p : box) {
      tds.push_back(p.kind == edbms::PredicateKind::kBetween
                        ? db.MakeBetween(p.attr, p.lo, p.hi)
                        : db.MakeComparison(p.attr, p.op, p.lo));
    }
    return tds;
  };

  for (int i = 0; i < 320; ++i) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " op " << i);
    const edbms::AttrId attr = i % 2;
    if (i % 20 == 19) {
      const size_t at = op_rng.UniformInt(0, live.size() - 1);
      index.Delete(live[at]);
      live.erase(live.begin() + static_cast<ptrdiff_t>(at));
    }
    switch (i % 10) {
      case 0:
      case 1: {
        const PlainPredicate p = gen.RandomComparison(attr);
        const Trapdoor td = db.MakeComparison(p.attr, p.op, p.lo);
        const auto got = index.Select(td);
        EXPECT_EQ(Sorted(got), OracleSelect(plain, p, &db));
        cmp.Fold(got);
        issued.emplace_back(td, p);
        break;
      }
      case 2:
      case 3: {
        PlainPredicate p;
        p.attr = attr;
        p.kind = edbms::PredicateKind::kBetween;
        p.lo = op_rng.UniformInt64(0, 4500);
        p.hi = p.lo + op_rng.UniformInt64(0, 600);
        const Trapdoor td = db.MakeBetween(attr, p.lo, p.hi);
        const auto got = index.Select(td);
        EXPECT_EQ(Sorted(got), OracleSelect(plain, p, &db));
        btw.Fold(got);
        issued.emplace_back(td, p);
        break;
      }
      case 4:
      case 5: {
        const auto& [td, p] = issued[op_rng.UniformInt(0, issued.size() - 1)];
        const auto got = index.Select(td);
        EXPECT_EQ(Sorted(got), OracleSelect(plain, p, &db));
        repeat.Fold(got);
        break;
      }
      case 6: {
        const auto box = gen.RandomBox({0, 1}, 0.4);
        const auto got = index.SelectRangeSdPlus(box_tds(box));
        EXPECT_EQ(Sorted(got), OracleSelectAll(plain, box, &db));
        sdplus.Fold(got);
        break;
      }
      case 7: {
        const auto box = gen.RandomBox({0, 1}, 0.4);
        const auto got = Sorted(index.SelectRangeMd(box_tds(box)));
        EXPECT_EQ(got, OracleSelectAll(plain, box, &db));
        md.Fold(got);
        break;
      }
      case 8: {
        live.push_back(index.Insert(new_row()));
        break;
      }
      default: {
        // Buffered placement: store four rows, append them to both buffers
        // and flush both in one batch. The buffers are empty again before
        // the next selection, whose plan would otherwise weigh a buffer scan
        // against a flush with timing-calibrated costs.
        for (int r = 0; r < 4; ++r) {
          const TupleId tid = db.Insert(new_row());
          live.push_back(tid);
          index.BufferAppendAttr(0, tid);
          index.BufferAppendAttr(1, tid);
        }
        index.FlushBuffered(0);
        index.FlushBuffered(1);
        break;
      }
    }
  }
  Fnv chains;
  for (edbms::AttrId a : {0u, 1u}) {
    EXPECT_TRUE(
        index.pop(a).ValidateAgainstPlain(testutil::ColumnOf(plain, a)).ok());
    Encoder enc;
    index.pop(a).EncodeTo(&enc);
    for (uint8_t b : enc.Release()) chains.Mix(b);
  }
  return OrderTotals{cmp.h,       btw.h,           repeat.h,
                     sdplus.h,    md.h,            db.uses(),
                     db.round_trips(), chains.h,
                     CounterValue("update.coarsen_merges") - coarsen_before};
}

TEST(WinnerOrderTest, ExactWinnerVectorsArePinned) {
  struct Golden {
    uint64_t seed;
    OrderTotals want;
  };
  const Golden golden[] = {
      {7,
       {0x0ebd215fa3c70e91ULL, 0x6cba300eb7bc6562ULL, 0xe01d259d692204f0ULL,
        0xdd750b5eeee34093ULL, 0xfc30b873cf06daedULL, 43388, 33557,
        0xb909bc16607fc7ceULL, 12}},
      {8,
       {0x44028eda38ebe884ULL, 0xbad02e02048e744eULL, 0xd148c9704c8036aeULL,
        0x5c41c78880e2b6a0ULL, 0x6a44ac8e933bbb59ULL, 43351, 34018,
        0x1943628524b45443ULL, 9}},
      {9,
       {0xd04c2a1d6375cdaeULL, 0xe562b504fe385439ULL, 0x3d3a6b4bc29eb005ULL,
        0xa70792e87e7ae087ULL, 0x14622ccf9db43526ULL, 47772, 38024,
        0xe5f6b157bb89c02bULL, 10}},
  };
  const uint64_t hits_before = CounterValue("prkb.cache.hits");
  uint64_t coarsen = 0;
  for (const Golden& g : golden) {
    SCOPED_TRACE(::testing::Message() << "seed " << g.seed);
    const OrderTotals got = RunOrderWorkload(g.seed);
    EXPECT_EQ(got.cmp, g.want.cmp);
    EXPECT_EQ(got.btw, g.want.btw);
    EXPECT_EQ(got.repeat, g.want.repeat);
    EXPECT_EQ(got.sdplus, g.want.sdplus);
    EXPECT_EQ(got.md, g.want.md);
    EXPECT_EQ(got.uses, g.want.uses);
    EXPECT_EQ(got.trips, g.want.trips);
    EXPECT_EQ(got.chains, g.want.chains);
    EXPECT_EQ(got.coarsen_merges, g.want.coarsen_merges);
    coarsen += got.coarsen_merges;
  }
  // The workload must reach the coarsen fallback and the fast path, or the
  // pins would not cover merges and zero-QPF repeats.
  EXPECT_GT(coarsen, 0u);
  EXPECT_GT(CounterValue("prkb.cache.hits"), hits_before);
}

}  // namespace
}  // namespace prkb::core
