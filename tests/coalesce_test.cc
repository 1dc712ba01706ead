// Differential suite for the cross-query round bus (DESIGN.md §15): merged
// entries must change *when* bits travel, never *which* bits — winners stay
// byte-identical to an uncoalesced run and to the plaintext oracle, and
// per-selection accounting is preserved exactly. The concurrent-submitter
// cases double as the TSan target for the collector-election protocol.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "edbms/cipherbase_qpf.h"
#include "gtest/gtest.h"
#include "net/coalesce.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "prkb/concurrent.h"
#include "prkb/selection.h"
#include "workload/query_gen.h"
#include "workload/synthetic_table.h"

namespace prkb {
namespace {

using edbms::ProbeRequest;
using edbms::SelectionStats;
using edbms::Trapdoor;
using edbms::TupleId;
using net::CoalescedEdbms;
using net::RoundBus;
using net::RoundBusOptions;

/// Deterministic Θ stand-in that records every backend entry it serves.
class FakeOracle : public edbms::QpfOracle {
 public:
  /// A positive `entry_ns` makes this a serial backend: entries queue on
  /// one mutex and each holds it for `entry_ns`, like a trusted machine
  /// that serves one entry at a time.
  explicit FakeOracle(uint64_t entry_ns = 0) : entry_ns_(entry_ns) {}

  static bool Formula(const Trapdoor& td, TupleId tid) {
    return (td.uid + tid) % 3 == 0;
  }

  struct CapturedItem {
    const Trapdoor* td;
    uint64_t uid;
    TupleId tid;
  };

  uint64_t entries() const {
    return entries_.load(std::memory_order_relaxed);
  }
  std::vector<std::vector<CapturedItem>> captured() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return captured_;
  }

 private:
  void Serve() {
    entries_.fetch_add(1, std::memory_order_relaxed);
    if (entry_ns_ == 0) return;
    const std::lock_guard<std::mutex> lock(serial_mu_);
    std::this_thread::sleep_for(std::chrono::nanoseconds(entry_ns_));
  }
  bool DoEval(const Trapdoor& td, TupleId tid) override {
    Serve();
    return Formula(td, tid);
  }
  BitVector DoEvalMany(std::span<const ProbeRequest> reqs) override {
    Serve();
    {
      const std::lock_guard<std::mutex> lock(mu_);
      auto& cap = captured_.emplace_back();
      cap.reserve(reqs.size());
      for (const ProbeRequest& r : reqs) {
        cap.push_back(CapturedItem{r.td, r.td->uid, r.tid});
      }
    }
    BitVector out(reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
      out.Assign(i, Formula(*reqs[i].td, reqs[i].tid));
    }
    return out;
  }

  const uint64_t entry_ns_;
  std::atomic<uint64_t> entries_{0};
  std::mutex serial_mu_;
  mutable std::mutex mu_;
  std::vector<std::vector<CapturedItem>> captured_;
};

Trapdoor MakeFakeTrapdoor(uint64_t uid) {
  Trapdoor td;
  td.attr = static_cast<edbms::AttrId>(uid % 7);
  td.uid = uid;
  td.blob.assign(edbms::kTrapdoorBlobSize,
                 static_cast<uint8_t>(uid * 37 + 11));
  return td;
}

TEST(RoundBusTest, LoneSubmissionIsPassthrough) {
  FakeOracle fake;
  RoundBus bus(&fake);  // linger 0 until a fitted latency arrives

  const Trapdoor td = MakeFakeTrapdoor(5);
  std::vector<ProbeRequest> reqs;
  for (TupleId tid = 0; tid < 9; ++tid) reqs.push_back({&td, tid});

  const BitVector bits = bus.Exchange(reqs);
  ASSERT_EQ(bits.size(), reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(bits.Get(i), FakeOracle::Formula(td, reqs[i].tid));
  }
  EXPECT_EQ(fake.entries(), 1u);
  const RoundBus::Stats st = bus.stats();
  EXPECT_EQ(st.rounds, 1u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_EQ(st.merged_rounds, 0u);
  EXPECT_EQ(st.linger_ns, 0u);
}

TEST(RoundBusTest, AdaptiveLingerFollowsFittedLatency) {
  FakeOracle fake;
  RoundBusOptions opts;  // defaults: adaptive, frac 1/8, floor 100µs
  RoundBus bus(&fake, opts);

  EXPECT_EQ(bus.linger_ns(), 0u);
  bus.SetFittedLatency(10'000);  // loopback-grade: stays zero
  EXPECT_EQ(bus.linger_ns(), 0u);
  bus.SetFittedLatency(1'000'000);
  EXPECT_EQ(bus.linger_ns(), 125'000u);
  bus.SetFittedLatency(1'000'000'000);  // clamped
  EXPECT_EQ(bus.linger_ns(), opts.max_linger_ns);
  bus.SetFittedLatency(0);  // transport got fast again: back to passthrough
  EXPECT_EQ(bus.linger_ns(), 0u);
}

constexpr size_t kReqsPerRound = 16;

/// Starts `threads` submitters together; each exchanges `rounds` rounds of
/// kReqsPerRound probes under its own trapdoor. Returns the number of bits
/// that came back wrong.
uint64_t DriveSubmitters(RoundBus* bus, size_t threads, size_t rounds) {
  std::vector<Trapdoor> tds;
  tds.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    tds.push_back(MakeFakeTrapdoor(100 + i));
  }

  std::atomic<size_t> ready{0};
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (size_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      ready.fetch_add(1);
      while (ready.load() < threads) std::this_thread::yield();
      for (size_t r = 0; r < rounds; ++r) {
        std::vector<ProbeRequest> reqs;
        reqs.reserve(kReqsPerRound);
        for (size_t i = 0; i < kReqsPerRound; ++i) {
          reqs.push_back(
              {&tds[w], static_cast<TupleId>(r * kReqsPerRound + i)});
        }
        const BitVector bits = bus->Exchange(reqs);
        if (bits.size() != reqs.size()) {
          wrong.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < reqs.size(); ++i) {
          if (bits.Get(i) != FakeOracle::Formula(tds[w], reqs[i].tid)) {
            wrong.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  return wrong.load();
}

TEST(RoundBusTest, ConcurrentSubmittersMergeIntoFewerEntries) {
  FakeOracle fake;
  RoundBusOptions opts;
  opts.adaptive_linger = false;
  opts.linger_ns = 5'000'000;  // 5ms: every thread's round lands in-window
  RoundBus bus(&fake, opts);

  constexpr size_t kThreads = 8;
  constexpr size_t kRoundsPerThread = 5;
  EXPECT_EQ(DriveSubmitters(&bus, kThreads, kRoundsPerThread), 0u);
  const RoundBus::Stats st = bus.stats();
  EXPECT_EQ(st.rounds, kThreads * kRoundsPerThread);
  EXPECT_EQ(st.requests, kThreads * kRoundsPerThread * kReqsPerRound);
  // With a 5ms window and µs-scale rounds, concurrent selections must share
  // entries; demanding ≤ half leaves wide scheduling headroom.
  EXPECT_LE(fake.entries(), kThreads * kRoundsPerThread / 2);
  EXPECT_GT(st.merged_rounds, 0u);
  EXPECT_GT(bus.factor(), 1.0);

  // 64 submitters in front of a serial backend that takes 300 us per entry,
  // with the window the bus derives from a fitted 300 us latency: while one
  // entry is served the next fills, so entries per logical round must fall
  // at least 4x below the one entry per round of an uncoalesced transport.
  constexpr size_t kSerialThreads = 64;
  constexpr size_t kSerialRounds = 6;
  FakeOracle serial(300'000);
  RoundBus serial_bus(&serial);
  serial_bus.SetFittedLatency(300'000);
  EXPECT_EQ(DriveSubmitters(&serial_bus, kSerialThreads, kSerialRounds), 0u);
  EXPECT_EQ(serial_bus.stats().rounds, kSerialThreads * kSerialRounds);
  EXPECT_LE(4 * serial.entries(), kSerialThreads * kSerialRounds)
      << serial.entries() << " entries";
}

TEST(RoundBusTest, ValueEqualTrapdoorsDedupAcrossRequests) {
  FakeOracle fake;
  RoundBusOptions opts;
  // A nonzero window so Submit queues instead of taking the lone-caller
  // passthrough; queue order then makes the merge deterministic.
  opts.linger_ns = 2'000'000;
  RoundBus bus(&fake, opts);
  const Trapdoor original = MakeFakeTrapdoor(77);
  const Trapdoor copy = original;  // value-equal, distinct address
  ASSERT_NE(&original, &copy);

  std::vector<ProbeRequest> r1;
  std::vector<ProbeRequest> r2;
  for (TupleId tid = 0; tid < 4; ++tid) r1.push_back({&original, tid});
  for (TupleId tid = 4; tid < 8; ++tid) r2.push_back({&copy, tid});

  // Two rounds queued before any Await: the first waiter collects both into
  // one entry.
  const uint64_t t1 = bus.Submit(r1);
  const uint64_t t2 = bus.Submit(r2);
  const BitVector b1 = bus.Await(t1);
  const BitVector b2 = bus.Await(t2);

  ASSERT_EQ(b1.size(), 4u);
  ASSERT_EQ(b2.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(b1.Get(i), FakeOracle::Formula(original, i));
    EXPECT_EQ(b2.Get(i), FakeOracle::Formula(copy, i + 4));
  }
  EXPECT_EQ(fake.entries(), 1u);
  const auto captured = fake.captured();
  ASSERT_EQ(captured.size(), 1u);
  // The merged entry references one canonical trapdoor for both selections.
  const Trapdoor* canon = captured[0][0].td;
  for (const auto& item : captured[0]) {
    EXPECT_EQ(item.td, canon);
    EXPECT_EQ(item.uid, original.uid);
  }
  EXPECT_GE(bus.stats().dedup_tds, 1u);
  EXPECT_GE(bus.stats().merged_rounds, 2u);
}

TEST(RoundBusTest, OverflowSplitsStayUnderTheEntryBudget) {
  FakeOracle fake;
  RoundBusOptions opts;
  opts.max_entry_bytes = 512;  // force splits with a handful of trapdoors
  RoundBus bus(&fake, opts);

  std::vector<Trapdoor> tds;
  for (uint64_t i = 0; i < 10; ++i) tds.push_back(MakeFakeTrapdoor(200 + i));
  std::vector<ProbeRequest> reqs;
  for (size_t i = 0; i < 200; ++i) {
    reqs.push_back({&tds[i % tds.size()], static_cast<TupleId>(i)});
  }

  const BitVector bits = bus.Exchange(reqs);
  ASSERT_EQ(bits.size(), reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(bits.Get(i), FakeOracle::Formula(*reqs[i].td, reqs[i].tid));
  }
  EXPECT_GT(fake.entries(), 1u);
  EXPECT_GE(bus.stats().overflow_splits, 1u);

  // Every shipped chunk must actually encode under the budget — the byte
  // estimate is required to be conservative w.r.t. the real wire codec.
  for (const auto& chunk : fake.captured()) {
    std::vector<ProbeRequest> chunk_reqs;
    chunk_reqs.reserve(chunk.size());
    for (const auto& item : chunk) chunk_reqs.push_back({item.td, item.tid});
    EXPECT_LE(net::EncodeEvalManyReq(chunk_reqs).size(),
              opts.max_entry_bytes);
  }
}

TEST(CoalescedEdbmsTest, WinnersAndAccountingMatchUncoalescedAndPlaintext) {
  workload::SyntheticSpec spec;
  spec.rows = 20000;
  spec.seed = 61;
  const auto plain = workload::MakeSyntheticTable(spec);
  auto db = edbms::CipherbaseEdbms::FromPlainTable(3, plain);
  CoalescedEdbms bus_db(&db);

  // Twin indexes over the same encrypted store: identical options and seed,
  // one probing direct, one through the bus. Selections only mutate index
  // state, so the runs cannot influence each other.
  core::PrkbIndex direct(&db, core::PrkbOptions{.seed = 11});
  core::PrkbIndex coalesced(&bus_db, core::PrkbOptions{.seed = 11});
  direct.EnableAttr(0);
  coalesced.EnableAttr(0);

  workload::QueryGen gen(spec.domain_lo, spec.domain_hi, 13);
  for (int q = 0; q < 60; ++q) {
    const auto p = gen.RandomComparison(0);
    const Trapdoor td = db.MakeComparison(p.attr, p.op, p.lo);

    SelectionStats st_direct;
    SelectionStats st_bus;
    std::vector<TupleId> w_direct = direct.Select(td, &st_direct);
    std::vector<TupleId> w_bus = coalesced.Select(td, &st_bus);
    std::sort(w_direct.begin(), w_direct.end());
    std::sort(w_bus.begin(), w_bus.end());

    ASSERT_EQ(w_direct, w_bus) << "query " << q;
    std::vector<TupleId> w_plain;
    for (TupleId tid = 0; tid < plain.num_rows(); ++tid) {
      if (p.Satisfies(plain.at(0, tid))) w_plain.push_back(tid);
    }
    ASSERT_EQ(w_bus, w_plain) << "query " << q;

    // Logical accounting is preserved exactly: same uses, same logical
    // round trips, query by query.
    EXPECT_EQ(st_direct.qpf_uses, st_bus.qpf_uses) << "query " << q;
    EXPECT_EQ(st_direct.qpf_round_trips, st_bus.qpf_round_trips)
        << "query " << q;
  }
}

TEST(CoalescedEdbmsTest, LingerZeroPassthroughThroughPrkbIndex) {
  workload::SyntheticSpec spec;
  spec.rows = 5000;
  spec.seed = 67;
  const auto plain = workload::MakeSyntheticTable(spec);
  auto db = edbms::CipherbaseEdbms::FromPlainTable(5, plain);
  CoalescedEdbms bus_db(&db);
  EXPECT_EQ(bus_db.bus().linger_ns(), 0u);
  EXPECT_EQ(bus_db.CoalescingFactor(), 1.0);

  core::PrkbIndex index(&bus_db, core::PrkbOptions{.seed = 3});
  index.EnableAttr(0);
  workload::QueryGen gen(spec.domain_lo, spec.domain_hi, 71);
  for (int q = 0; q < 20; ++q) {
    const auto p = gen.RandomComparison(0);
    std::vector<TupleId> got =
        index.Select(db.MakeComparison(p.attr, p.op, p.lo));
    std::sort(got.begin(), got.end());
    std::vector<TupleId> want;
    for (TupleId tid = 0; tid < plain.num_rows(); ++tid) {
      if (p.Satisfies(plain.at(0, tid))) want.push_back(tid);
    }
    ASSERT_EQ(got, want) << "query " << q;
  }
  // Single-stream, linger 0: every round flushed alone.
  const RoundBus::Stats st = bus_db.bus().stats();
  EXPECT_EQ(st.rounds, st.entries);
  EXPECT_EQ(st.merged_rounds, 0u);
}

TEST(CoalescedEdbmsTest, ConcurrentSelectionsStayExact) {
  // TSan target: many selections through one bus with a real linger window,
  // against ConcurrentPrkbIndex's shared-lock fast paths.
  workload::SyntheticSpec spec;
  spec.rows = 3000;
  spec.attrs = 4;
  spec.seed = 73;
  const auto plain = workload::MakeSyntheticTable(spec);
  auto db = edbms::CipherbaseEdbms::FromPlainTable(7, plain);
  RoundBusOptions opts;
  opts.adaptive_linger = false;
  opts.linger_ns = 50'000;
  CoalescedEdbms bus_db(&db, opts);

  core::ConcurrentPrkbIndex index(&bus_db, core::PrkbOptions{.seed = 5});
  for (edbms::AttrId a = 0; a < 4; ++a) index.EnableAttr(a);

  constexpr size_t kThreads = 8;
  // Trapdoors are issued up front: the data owner's issuing side is a
  // single-client surface, and the concurrency under test is the bus.
  struct Op {
    edbms::PlainPredicate p;
    edbms::Trapdoor td;
  };
  std::vector<std::vector<Op>> ops(kThreads);
  for (size_t w = 0; w < kThreads; ++w) {
    workload::QueryGen gen(spec.domain_lo, spec.domain_hi, 100 + w);
    for (int q = 0; q < 10; ++q) {
      const auto attr = static_cast<edbms::AttrId>((w + q) % 4);
      const auto p = gen.RandomComparison(attr);
      ops[w].push_back(Op{p, db.MakeComparison(p.attr, p.op, p.lo)});
    }
  }
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (const Op& op : ops[w]) {
        std::vector<TupleId> got = index.Select(op.td);
        std::sort(got.begin(), got.end());
        std::vector<TupleId> want;
        for (TupleId tid = 0; tid < plain.num_rows(); ++tid) {
          if (op.p.Satisfies(plain.at(op.p.attr, tid))) want.push_back(tid);
        }
        if (got != want) wrong.fetch_add(1);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(wrong.load(), 0u);
}

}  // namespace
}  // namespace prkb
