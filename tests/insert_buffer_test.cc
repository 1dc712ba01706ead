// Deferred-insert buffer tests (prkb/insert_buffer.h, DESIGN.md §14):
// buffer semantics on the chain, snapshot round trips, the eager-vs-buffered
// differential (flush route is byte-identical to eager placement, scan route
// is winner-identical), cap-triggered synchronous flushes, WAL crash
// recovery through buffered appends and mid-flush torn tails, and the
// stripe-locked concurrent append path.
#include "prkb/insert_buffer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/serial.h"
#include "edbms/cipherbase_qpf.h"
#include "edbms/service_provider.h"
#include "prkb/concurrent.h"
#include "prkb/pop.h"
#include "prkb/selection.h"
#include "prkb/wal.h"
#include "tests/test_util.h"

namespace prkb::core {
namespace {

namespace fs = std::filesystem;
using edbms::CompareOp;
using edbms::TupleId;

// ---- InsertBuffer unit tests ----------------------------------------------

TEST(InsertBufferTest, AppendRemoveKeepOrder) {
  InsertBuffer buf;
  EXPECT_TRUE(buf.Empty());
  buf.Append(7);
  buf.Append(3);
  buf.Append(11);
  EXPECT_EQ(buf.Size(), 3u);
  EXPECT_TRUE(buf.Contains(3));
  EXPECT_FALSE(buf.Contains(4));
  EXPECT_EQ(buf.order(), (std::vector<TupleId>{7, 3, 11}));

  EXPECT_TRUE(buf.Remove(3));
  EXPECT_FALSE(buf.Remove(3));  // already gone
  EXPECT_EQ(buf.order(), (std::vector<TupleId>{7, 11}));

  std::vector<TupleId> out = {99};
  buf.AppendTo(&out);
  EXPECT_EQ(out, (std::vector<TupleId>{99, 7, 11}));

  buf.Clear();
  EXPECT_TRUE(buf.Empty());
  EXPECT_FALSE(buf.Contains(7));
}

TEST(InsertBufferTest, EncodeDecodeRoundTrip) {
  InsertBuffer buf;
  buf.Append(42);
  buf.Append(1);
  buf.Append(100000);
  Encoder enc;
  buf.EncodeTo(&enc);

  InsertBuffer copy;
  copy.Append(555);  // DecodeFrom must clear pre-existing content
  Decoder dec(enc.buffer());
  ASSERT_TRUE(copy.DecodeFrom(&dec).ok());
  EXPECT_EQ(copy.order(), buf.order());
  EXPECT_FALSE(copy.Contains(555));
}

TEST(InsertBufferTest, DecodeRejectsDuplicateTuple) {
  Encoder enc;
  enc.PutVarint(2);
  enc.PutVarint(5);
  enc.PutVarint(5);
  InsertBuffer buf;
  Decoder dec(enc.buffer());
  EXPECT_FALSE(buf.DecodeFrom(&dec).ok());
}

// ---- Chain-level buffer semantics -----------------------------------------

class BufferSemanticsTest : public testing::Test {
 protected:
  void SetUp() override {
    Rng rng(2026);
    plain_ = testutil::RandomTable(240, 2, &rng, 0, 999);
    db_ = std::make_unique<edbms::CipherbaseEdbms>(
        edbms::CipherbaseEdbms::FromPlainTable(77, plain_));
  }

  TupleId Store(edbms::Value a, edbms::Value b) {
    plain_.AddRow({a, b});
    return db_->Insert({a, b});
  }

  edbms::PlainTable plain_{2};
  std::unique_ptr<edbms::CipherbaseEdbms> db_;
};

TEST_F(BufferSemanticsTest, BufferedTupleStaysOffChainUntilFlush) {
  PrkbOptions opts;
  opts.buffered_inserts = true;
  PrkbIndex index(db_.get(), opts);
  index.EnableAttr(0);
  index.Select(db_->MakeComparison(0, CompareOp::kGe, 500));

  const TupleId tid = Store(123, 456);
  index.PlaceStored(tid);
  const Pop& pop = index.pop(0);
  EXPECT_TRUE(pop.insert_buffer().Contains(tid));
  EXPECT_EQ(pop.partition_of(tid), Pop::kNoPartition);
  EXPECT_TRUE(pop.Validate().ok());

  index.FlushBuffered(0);
  EXPECT_TRUE(pop.insert_buffer().Empty());
  EXPECT_NE(pop.partition_of(tid), Pop::kNoPartition);
  EXPECT_TRUE(pop.Validate().ok());
  EXPECT_TRUE(pop.ValidateAgainstPlain(testutil::ColumnOf(plain_, 0)).ok());
}

TEST_F(BufferSemanticsTest, DeleteOfBufferedTupleJustDropsIt) {
  PrkbOptions opts;
  opts.buffered_inserts = true;
  PrkbIndex index(db_.get(), opts);
  index.EnableAttr(0);
  const TupleId tid = Store(321, 9);
  const uint64_t uses0 = db_->uses();
  index.PlaceStored(tid);
  index.EraseFromChains(tid);
  EXPECT_EQ(db_->uses(), uses0);  // append + unbuffer: zero QPF end to end
  EXPECT_FALSE(index.pop(0).insert_buffer().Contains(tid));
  EXPECT_EQ(index.pop(0).partition_of(tid), Pop::kNoPartition);
}

TEST_F(BufferSemanticsTest, CapTriggersSynchronousFlush) {
  PrkbOptions opts;
  opts.buffered_inserts = true;
  opts.max_buffered_inserts = 3;
  PrkbIndex index(db_.get(), opts);
  index.EnableAttr(0);
  index.Select(db_->MakeComparison(0, CompareOp::kGe, 500));

  std::vector<TupleId> tids;
  for (int i = 0; i < 3; ++i) tids.push_back(Store(100 + 17 * i, 0));
  index.PlaceStored(tids[0]);
  index.PlaceStored(tids[1]);
  EXPECT_EQ(index.pop(0).insert_buffer().Size(), 2u);
  index.PlaceStored(tids[2]);  // reaches the cap: flushes in place
  EXPECT_TRUE(index.pop(0).insert_buffer().Empty());
  for (const TupleId tid : tids) {
    EXPECT_NE(index.pop(0).partition_of(tid), Pop::kNoPartition);
  }
}

TEST_F(BufferSemanticsTest, SnapshotRoundTripPreservesBuffer) {
  PrkbOptions opts;
  opts.buffered_inserts = true;
  PrkbIndex index(db_.get(), opts);
  index.EnableAttr(0);
  index.Select(db_->MakeComparison(0, CompareOp::kGe, 500));
  index.PlaceStored(Store(42, 0));
  index.PlaceStored(Store(977, 0));
  ASSERT_EQ(index.pop(0).insert_buffer().Size(), 2u);

  Encoder enc;
  index.pop(0).EncodeTo(&enc);
  Pop copy;
  Decoder dec(enc.buffer());
  ASSERT_TRUE(copy.DecodeFrom(&dec).ok());
  EXPECT_EQ(copy.insert_buffer().order(), index.pop(0).insert_buffer().order());
  Encoder enc2;
  copy.EncodeTo(&enc2);
  EXPECT_EQ(enc2.buffer(), enc.buffer());
}

// ---- Eager vs buffered differential ---------------------------------------

/// Byte image of one chain (memberships, cuts, cache, buffer).
std::vector<uint8_t> PopBytes(const Pop& pop) {
  Encoder enc;
  pop.EncodeTo(&enc);
  return enc.Release();
}

class DifferentialTest : public BufferSemanticsTest {};

TEST_F(DifferentialTest, FlushRouteIsByteIdenticalToEagerPlacement) {
  // Two indexes over the SAME store see identical trapdoors and tuples, so
  // the buffered index's flush must reproduce the eager chains bit for bit
  // — and spend exactly as many QPF uses, just in fewer round trips.
  PrkbOptions eager_opts;
  PrkbOptions buf_opts;
  buf_opts.buffered_inserts = true;
  // High transport latency prices the one-off flush below the recurring
  // scan at the first query that touches the chain.
  eager_opts.rt_latency_hint_ns = 300000.0;
  buf_opts.rt_latency_hint_ns = 300000.0;
  PrkbIndex eager(db_.get(), eager_opts);
  PrkbIndex buffered(db_.get(), buf_opts);
  for (PrkbIndex* idx : {&eager, &buffered}) {
    idx->EnableAttr(0);
    idx->EnableAttr(1);
  }

  // Warm both chains with the same trapdoor objects (comparison-only: the
  // byte-identity contract excludes coarsen-merge fallbacks).
  for (const edbms::Value v : {300, 700, 150, 850, 500}) {
    const auto td0 = db_->MakeComparison(0, CompareOp::kGe, v);
    const auto td1 = db_->MakeComparison(1, CompareOp::kLt, v + 23);
    testutil::Sorted(eager.Select(td0));
    testutil::Sorted(buffered.Select(td0));
    eager.Select(td1);
    buffered.Select(td1);
  }

  // A batch of inserts: eager places now, buffered defers.
  std::vector<TupleId> fresh;
  Rng rng(99);
  for (int i = 0; i < 25; ++i) {
    fresh.push_back(
        Store(rng.UniformInt64(0, 999), rng.UniformInt64(0, 999)));
  }
  const uint64_t eager0 = db_->uses();
  for (const TupleId tid : fresh) eager.PlaceStored(tid);
  const uint64_t eager_spend = db_->uses() - eager0;
  const uint64_t buf0 = db_->uses();
  for (const TupleId tid : fresh) buffered.PlaceStored(tid);
  EXPECT_EQ(db_->uses(), buf0);  // appends are zero-QPF
  EXPECT_EQ(buffered.pop(0).insert_buffer().Size(), fresh.size());

  // The next selection flushes; after it both indexes must agree bit for bit.
  const auto td = db_->MakeComparison(0, CompareOp::kGe, 450);
  const uint64_t esel0 = db_->uses();
  const auto ewin = testutil::Sorted(eager.Select(td));
  const uint64_t eager_sel = db_->uses() - esel0;
  const uint64_t bsel0 = db_->uses();
  const auto bwin = testutil::Sorted(buffered.Select(td));
  const uint64_t buf_spend = db_->uses() - bsel0;

  EXPECT_EQ(bwin, ewin);
  const edbms::PlainPredicate pred{
      0, edbms::PredicateKind::kComparison, CompareOp::kGe, 450, 0};
  EXPECT_EQ(bwin, testutil::OracleSelect(plain_, pred, db_.get()));
  EXPECT_TRUE(buffered.pop(0).insert_buffer().Empty());
  EXPECT_EQ(PopBytes(buffered.pop(0)), PopBytes(eager.pop(0)));

  // Attribute 1 still holds its buffer; flushing it directly must also land
  // on the eager bytes.
  EXPECT_EQ(buffered.pop(1).insert_buffer().Size(), fresh.size());
  const uint64_t bf0 = db_->uses();
  buffered.FlushBuffered(1);
  const uint64_t buf_flush1 = db_->uses() - bf0;
  EXPECT_EQ(PopBytes(buffered.pop(1)), PopBytes(eager.pop(1)));
  // Same placement probes + same selection probes, deferred vs eager
  // (eager_spend covers both attributes' placements; the buffered side paid
  // attr 0 inside the select and attr 1 just now — fewer round trips, equal
  // QPF uses).
  EXPECT_EQ(buf_spend + buf_flush1, eager_spend + eager_sel);
}

TEST_F(DifferentialTest, ScanRouteAnswersExactlyWithoutFlushing) {
  PrkbOptions eager_opts;
  PrkbOptions buf_opts;
  buf_opts.buffered_inserts = true;
  // A sub-1 horizon prices the scan below any flush on a multi-partition
  // chain, so the buffer stays resident across queries.
  buf_opts.buffer_flush_horizon = 0.25;
  PrkbIndex eager(db_.get(), eager_opts);
  PrkbIndex buffered(db_.get(), buf_opts);
  eager.EnableAttr(0);
  buffered.EnableAttr(0);
  for (const edbms::Value v : {250, 750, 500}) {
    const auto td = db_->MakeComparison(0, CompareOp::kGe, v);
    eager.Select(td);
    buffered.Select(td);
  }

  Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    const TupleId tid = Store(rng.UniformInt64(0, 999), 0);
    eager.PlaceStored(tid);
    buffered.PlaceStored(tid);
  }
  ASSERT_EQ(buffered.pop(0).insert_buffer().Size(), 10u);

  // Fresh predicate: chain answer + buffer scan merge, buffer untouched.
  const auto td = db_->MakeComparison(0, CompareOp::kGe, 333);
  const auto expect = testutil::Sorted(eager.Select(td));
  EXPECT_EQ(testutil::Sorted(buffered.Select(td)), expect);
  EXPECT_EQ(buffered.pop(0).insert_buffer().Size(), 10u);

  // Repeat predicate: fast-path cache hit still merges the buffer scan.
  edbms::SelectionStats stats;
  EXPECT_EQ(testutil::Sorted(buffered.Select(td, &stats)), expect);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.qpf_uses, 10u);  // exactly one evaluation per buffered tuple
  EXPECT_EQ(buffered.pop(0).insert_buffer().Size(), 10u);
  EXPECT_TRUE(buffered.pop(0).Validate().ok());
}

// ---- WAL: buffered appends and mid-flush crashes --------------------------

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

std::vector<uint8_t> StateBytes(const PrkbIndex& index) {
  Encoder enc;
  for (edbms::AttrId attr : index.EnabledAttrs()) {
    enc.PutU32(attr);
    index.pop(attr).EncodeTo(&enc);
  }
  return enc.Release();
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void CloneWalDir(const std::string& src, const std::string& dst,
                 size_t log_bytes) {
  fs::remove_all(dst);
  fs::create_directories(dst);
  if (fs::exists(src + "/snapshot.prkb")) {
    fs::copy_file(src + "/snapshot.prkb", dst + "/snapshot.prkb");
  }
  auto log = ReadFile(src + "/wal.log");
  if (log_bytes < log.size()) log.resize(log_bytes);
  WriteFile(dst + "/wal.log", log);
}

class WalBufferTest : public BufferSemanticsTest {
 protected:
  static PrkbOptions BufferedOpts() {
    PrkbOptions opts;
    opts.buffered_inserts = true;
    opts.rt_latency_hint_ns = 300000.0;  // selections flush
    return opts;
  }
};

TEST_F(WalBufferTest, CrashRecoveryReplaysDeferredState) {
  const std::string dir = FreshDir("ibuf_wal_diff");
  PrkbIndex live(db_.get(), BufferedOpts());
  WalOptions wopts;
  wopts.fsync_on_commit = false;
  wopts.compact_threshold_bytes = 0;
  auto wal = PrkbWal::Open(&live, dir, wopts);
  ASSERT_TRUE(wal.ok()) << wal.status().message();
  live.EnableAttr(0);
  live.EnableAttr(1);
  ASSERT_TRUE((*wal)->Commit().ok());

  // Mixed workload: splits, buffered appends, a delete that unbuffers, a
  // flush-triggering selection, and a tail of appends left UNFLUSHED — the
  // deferred state itself must be durable.
  std::vector<std::vector<uint8_t>> states;
  std::vector<size_t> log_sizes;
  auto checkpoint = [&] {
    states.push_back(StateBytes(live));
    log_sizes.push_back(fs::file_size(dir + "/wal.log"));
  };
  for (const edbms::Value v : {200, 800, 500}) {
    live.Select(db_->MakeComparison(0, CompareOp::kGe, v));
    checkpoint();
  }
  std::vector<TupleId> fresh;
  for (int i = 0; i < 6; ++i) {
    fresh.push_back(Store(100 + 141 * i, 13 * i));
    live.PlaceStored(fresh.back());
    checkpoint();
  }
  live.EraseFromChains(fresh[2]);
  checkpoint();
  live.Select(db_->MakeComparison(0, CompareOp::kLt, 450));  // flushes attr 0
  checkpoint();
  live.PlaceStored(Store(999, 999));  // left pending at shutdown
  checkpoint();
  ASSERT_FALSE(live.pop(1).insert_buffer().Empty());

  for (size_t i = 0; i < states.size(); ++i) {
    const std::string rdir = FreshDir("ibuf_wal_replay");
    CloneWalDir(dir, rdir, log_sizes[i]);
    PrkbIndex recovered(db_.get(), BufferedOpts());
    const uint64_t qpf_before = db_->uses();
    auto rwal = PrkbWal::Open(&recovered, rdir, wopts);
    ASSERT_TRUE(rwal.ok()) << "checkpoint " << i << ": "
                           << rwal.status().message();
    EXPECT_EQ(db_->uses(), qpf_before) << "recovery re-paid QPF";
    EXPECT_EQ(StateBytes(recovered), states[i]) << "checkpoint " << i;
    for (edbms::AttrId attr : recovered.EnabledAttrs()) {
      EXPECT_TRUE(recovered.pop(attr).Validate().ok());
    }
  }
}

TEST_F(WalBufferTest, TornTailMidFlushRecoversValidPrefix) {
  const std::string dir = FreshDir("ibuf_wal_torn");
  WalOptions wopts;
  wopts.fsync_on_commit = false;
  wopts.compact_threshold_bytes = 0;
  {
    PrkbIndex live(db_.get(), BufferedOpts());
    auto wal = PrkbWal::Open(&live, dir, wopts);
    ASSERT_TRUE(wal.ok());
    live.EnableAttr(0);
    live.Select(db_->MakeComparison(0, CompareOp::kGe, 500));
    for (int i = 0; i < 8; ++i) live.PlaceStored(Store(991 - 113 * i, 0));
    // The flush emits add records then the kBufFlush marker; tearing
    // anywhere inside that run must leave a validly-buffered suffix.
    live.Select(db_->MakeComparison(0, CompareOp::kLt, 300));
    live.PlaceStored(Store(640, 0));
  }
  const auto log = ReadFile(dir + "/wal.log");
  ASSERT_GT(log.size(), 64u);

  for (size_t cut = 8; cut <= log.size(); cut += 7) {
    const std::string rdir = FreshDir("ibuf_wal_torn_replay");
    CloneWalDir(dir, rdir, cut);
    PrkbIndex recovered(db_.get(), BufferedOpts());
    auto rwal = PrkbWal::Open(&recovered, rdir, wopts);
    ASSERT_TRUE(rwal.ok()) << "cut at " << cut << ": "
                           << rwal.status().message();
    if (recovered.IsEnabled(0)) {
      ASSERT_TRUE(recovered.pop(0).Validate().ok()) << "cut at " << cut;
    }
    const auto once = StateBytes(recovered);
    PrkbIndex again(db_.get(), BufferedOpts());
    auto rwal2 = PrkbWal::Open(&again, rdir, wopts);
    ASSERT_TRUE(rwal2.ok());
    EXPECT_EQ(StateBytes(again), once);
  }
}

// ---- Concurrent facade: stripe-locked appends -----------------------------

TEST_F(BufferSemanticsTest, ConcurrentBufferedInsertsStayExact) {
  PrkbOptions opts;
  opts.buffered_inserts = true;
  opts.rt_latency_hint_ns = 300000.0;
  ConcurrentPrkbIndex index(db_.get(), opts);
  index.EnableAttr(0);
  index.EnableAttr(1);
  index.Select(db_->MakeComparison(0, CompareOp::kGe, 500));
  index.Select(db_->MakeComparison(1, CompareOp::kLt, 500));

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 20;
  // Rows and trapdoors are produced up front: encryption and trapdoor
  // issuance live in the client-side DataOwner, which sits outside the
  // SP-side concurrency story (same idiom as concurrent_stress_test.cc).
  std::vector<std::vector<std::vector<edbms::Value>>> rows(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    Rng rng(1000 + w);
    for (int i = 0; i < kPerWriter; ++i) {
      rows[w].push_back({rng.UniformInt64(0, 999), rng.UniformInt64(0, 999)});
    }
  }
  std::vector<std::vector<edbms::Trapdoor>> reader_tds(2);
  for (int r = 0; r < 2; ++r) {
    Rng rng(50 + r);
    for (int i = 0; i < 15; ++i) {
      reader_tds[r].push_back(db_->MakeComparison(
          static_cast<edbms::AttrId>(i % 2), CompareOp::kGe,
          rng.UniformInt64(0, 999)));
    }
  }

  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 2);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      ready.fetch_add(1);
      while (ready.load() < kWriters) {
      }
      for (const auto& row : rows[w]) index.Insert(row);
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      for (const auto& td : reader_tds[r]) index.Select(td);
    });
  }
  for (auto& t : threads) t.join();

  // Every chain still satisfies the off-chain-buffer invariant...
  index.WithLocked([](PrkbIndex& inner) {
    for (edbms::AttrId attr : inner.EnabledAttrs()) {
      EXPECT_TRUE(inner.pop(attr).Validate().ok());
    }
    return 0;
  });
  // ...and final answers match the exhaustive baseline exactly.
  for (const edbms::Value v : {111, 555, 888}) {
    for (const edbms::AttrId attr : {0u, 1u}) {
      const auto td = db_->MakeComparison(attr, CompareOp::kGe, v);
      const auto expect =
          testutil::Sorted(edbms::BaselineScanner(db_.get()).Select(td));
      EXPECT_EQ(testutil::Sorted(index.Select(td)), expect);
    }
  }
}

}  // namespace
}  // namespace prkb::core
