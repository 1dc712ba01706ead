// Google-benchmark microbenchmarks for the primitive operations underneath
// the experiments: crypto blocks (AES-NI where present, and the portable
// fallback), QPF evaluation one cell and one 64-cell batch at a time,
// QFilter, insert placement (on a comparison-only chain and on a mixed
// comparison/BETWEEN chain) and a 2-attribute PRKB(MD) box on warm chains.
// These quantify the constant factors the paper's cost model rests on
// (one QPF use >> one plain comparison).

#include <benchmark/benchmark.h>

#include <vector>

#include "crypto/aes128.h"
#include "crypto/hmac.h"
#include "edbms/cipherbase_qpf.h"
#include "prkb/probe_sched.h"
#include "prkb/selection.h"
#include "workload/query_gen.h"
#include "workload/synthetic_table.h"

namespace prkb::bench {
namespace {

void BM_AesEncryptBlock(benchmark::State& state) {
  crypto::Aes128 aes(crypto::Aes128::Key{1, 2, 3, 4});
  uint8_t block[16] = {0};
  for (auto _ : state) {
    aes.EncryptBlock(block, block);
    benchmark::DoNotOptimize(block);
  }
}
BENCHMARK(BM_AesEncryptBlock);

// The table-lookup fallback EncryptBlock runs where the CPU has no AES-NI.
void BM_AesEncryptBlockPortable(benchmark::State& state) {
  crypto::Aes128 aes(crypto::Aes128::Key{1, 2, 3, 4});
  uint8_t block[16] = {0};
  for (auto _ : state) {
    crypto::detail::EncryptBlockPortable(aes, block, block);
    benchmark::DoNotOptimize(block);
  }
}
BENCHMARK(BM_AesEncryptBlockPortable);

void BM_HmacSha256(benchmark::State& state) {
  crypto::HmacSha256 mac(std::vector<uint8_t>{1, 2, 3});
  uint8_t msg[8] = {7};
  for (auto _ : state) {
    auto tag = mac.Compute(msg, sizeof(msg));
    benchmark::DoNotOptimize(tag);
  }
}
BENCHMARK(BM_HmacSha256);

struct QpfFixtureState {
  edbms::CipherbaseEdbms db;
  edbms::Trapdoor td;

  QpfFixtureState()
      : db(edbms::CipherbaseEdbms(1, 1)),
        td() {
    for (int i = 0; i < 1000; ++i) db.Insert({i});
    td = db.MakeComparison(0, edbms::CompareOp::kLt, 500);
  }
};

void BM_QpfEval(benchmark::State& state) {
  static QpfFixtureState* fixture = new QpfFixtureState();
  edbms::TupleId tid = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture->db.Eval(fixture->td, tid));
    tid = (tid + 1) % 1000;
  }
}
BENCHMARK(BM_QpfEval);

// One 64-cell TM entry (the batched scan's default batch): gather, batched
// CTR decrypt and compare. items_per_second counts cells.
void BM_TmEvalBatch(benchmark::State& state) {
  static QpfFixtureState* fixture = new QpfFixtureState();
  constexpr size_t kCells = 64;
  std::vector<edbms::TupleId> tids(kCells);
  edbms::TupleId next = 0;
  for (auto _ : state) {
    for (auto& tid : tids) {
      tid = next;
      next = (next + 1) % 1000;
    }
    benchmark::DoNotOptimize(fixture->db.EvalBatch(fixture->td, tids));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kCells));
}
BENCHMARK(BM_TmEvalBatch);

void BM_PlainComparison(benchmark::State& state) {
  // The cost QPF evaluation replaces — the paper's "one cycle" reference.
  volatile int64_t c = 500;
  int64_t v = 123;
  for (auto _ : state) {
    benchmark::DoNotOptimize(v < c);
    v = (v + 7) % 1000;
  }
}
BENCHMARK(BM_PlainComparison);

struct WarmIndexState {
  edbms::CipherbaseEdbms db;
  core::PrkbIndex index;
  workload::QueryGen gen;

  WarmIndexState()
      : db(MakeDb()), index(&db, core::PrkbOptions{.seed = 3}),
        gen(1, 30'000'000, 5) {
    index.EnableAttr(0);
    for (int i = 0; i < 400; ++i) {
      const auto p = gen.RandomComparison(0);
      index.Select(db.MakeComparison(p.attr, p.op, p.lo));
    }
  }

  static edbms::CipherbaseEdbms MakeDb() {
    workload::SyntheticSpec spec;
    spec.rows = 100000;
    spec.seed = 2;
    return edbms::CipherbaseEdbms::FromPlainTable(
        1, workload::MakeSyntheticTable(spec));
  }
};

WarmIndexState* WarmIndex() {
  static WarmIndexState* state = new WarmIndexState();
  return state;
}

void BM_QFilterOnWarmChain(benchmark::State& state) {
  auto* s = WarmIndex();
  Rng rng(9);
  for (auto _ : state) {
    const auto p = s->gen.RandomComparison(0);
    const auto td = s->db.MakeComparison(p.attr, p.op, p.lo);
    benchmark::DoNotOptimize(core::QFilter(s->index.pop(0), td, &s->db, &rng,
                                           core::kBinarySearchSched));
  }
}
BENCHMARK(BM_QFilterOnWarmChain);

void BM_WarmSelect(benchmark::State& state) {
  auto* s = WarmIndex();
  for (auto _ : state) {
    const auto p = s->gen.RandomComparison(0);
    benchmark::DoNotOptimize(
        s->index.Select(s->db.MakeComparison(p.attr, p.op, p.lo)));
  }
}
BENCHMARK(BM_WarmSelect);

void BM_InsertPlacement(benchmark::State& state) {
  auto* s = WarmIndex();
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        s->index.Insert({rng.UniformInt64(1, 30'000'000)}));
  }
}
BENCHMARK(BM_InsertPlacement);

/// Two attributes over 20 000 rows, each chain warmed past k = 1000 by a mix
/// of comparisons, BETWEEN bands and 2-attribute MD boxes — the chain shape
/// the ledger's SQL workload builds. BETWEEN cuts make insert placement
/// reach the general (worst-case separator) pick path, which the
/// comparison-only chain above never does.
struct MixedWarmIndexState {
  edbms::CipherbaseEdbms db;
  core::PrkbIndex index;
  workload::QueryGen gen;

  MixedWarmIndexState()
      : db(MakeDb()), index(&db, core::PrkbOptions{.seed = 3}),
        gen(1, 30'000'000, 7) {
    index.EnableAttr(0);
    index.EnableAttr(1);
    Rng rng(8);
    for (int i = 0; index.pop(0).k() < 1000 || index.pop(1).k() < 1000; ++i) {
      const edbms::AttrId attr = i % 2;
      if (i % 5 == 4) {
        std::vector<edbms::Trapdoor> tds;
        for (const auto& p : gen.RandomBox({0, 1}, 0.3)) {
          tds.push_back(db.MakeComparison(p.attr, p.op, p.lo));
        }
        index.SelectRangeMd(tds);
      } else if (i % 5 >= 2) {
        const edbms::Value lo = rng.UniformInt64(1, 29'000'000);
        index.Select(db.MakeBetween(attr, lo, lo + 1'000'000));
      } else {
        const auto p = gen.RandomComparison(attr);
        index.Select(db.MakeComparison(p.attr, p.op, p.lo));
      }
    }
  }

  static edbms::CipherbaseEdbms MakeDb() {
    workload::SyntheticSpec spec;
    spec.rows = 20000;
    spec.attrs = 2;
    spec.seed = 4;
    return edbms::CipherbaseEdbms::FromPlainTable(
        1, workload::MakeSyntheticTable(spec));
  }
};

/// One eager 2-attribute insert: a placement search per chain. Each
/// benchmark below owns its index and runs a fixed iteration count, so the
/// chains it measures do not depend on how fast earlier iterations ran.
void BM_InsertPlacementMixedChain(benchmark::State& state) {
  static auto* s = new MixedWarmIndexState();
  Rng rng(12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s->index.Insert(
        {rng.UniformInt64(1, 30'000'000), rng.UniformInt64(1, 30'000'000)}));
  }
  state.counters["k"] = static_cast<double>(s->index.pop(0).k());
}
BENCHMARK(BM_InsertPlacementMixedChain)->Iterations(4000);

/// One fresh 2-attribute PRKB(MD) box (30% per dimension) on warm chains.
void BM_MdSelectWarm(benchmark::State& state) {
  static auto* s = new MixedWarmIndexState();
  for (auto _ : state) {
    std::vector<edbms::Trapdoor> tds;
    for (const auto& p : s->gen.RandomBox({0, 1}, 0.3)) {
      tds.push_back(s->db.MakeComparison(p.attr, p.op, p.lo));
    }
    benchmark::DoNotOptimize(s->index.SelectRangeMd(tds));
  }
}
BENCHMARK(BM_MdSelectWarm)->Iterations(400);

/// One chain over 20 000 rows warmed by fresh comparisons to k = 3 000,
/// the chain length the ledger's 15 s SQL run reaches: partitions hold ~7
/// tuples, so a sure answer spans thousands of partitions.
struct AssemblyWarmState {
  edbms::CipherbaseEdbms db;
  core::PrkbIndex index;
  workload::QueryGen gen;
  std::vector<edbms::Trapdoor> warm;

  AssemblyWarmState()
      : db(MixedWarmIndexState::MakeDb()),
        index(&db, core::PrkbOptions{.seed = 3}),
        gen(1, 30'000'000, 13) {
    index.EnableAttr(0);
    while (index.pop(0).k() < 3000) {
      const auto p = gen.RandomComparison(0);
      warm.push_back(db.MakeComparison(p.attr, p.op, p.lo));
      index.Select(warm.back());
    }
  }
};

/// Winner assembly on a warm chain: a fast-path repeat (the whole answer is
/// the satisfied side of one cut, zero QPF) plus a fresh comparison (TW
/// run, QFilter, QScan and one split).
void BM_WinnerAssemblyWarm(benchmark::State& state) {
  static auto* s = new AssemblyWarmState();
  Rng rng(14);
  for (auto _ : state) {
    const auto& repeat = s->warm[rng.UniformInt(0, s->warm.size() - 1)];
    benchmark::DoNotOptimize(s->index.Select(repeat));
    const auto p = s->gen.RandomComparison(0);
    benchmark::DoNotOptimize(
        s->index.Select(s->db.MakeComparison(p.attr, p.op, p.lo)));
  }
  state.counters["k"] = static_cast<double>(s->index.pop(0).k());
}
BENCHMARK(BM_WinnerAssemblyWarm)->Iterations(2000);

}  // namespace
}  // namespace prkb::bench

BENCHMARK_MAIN();
