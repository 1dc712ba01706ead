// Durability tests for the PRKB write-ahead log (prkb/wal.h):
// crash-recovery differential (truncated-log replay is byte-identical to the
// uninterrupted run, with zero QPF spend), torn-tail severing, CRC-corruption
// severing, and compaction equivalence.
#include "prkb/wal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "edbms/cipherbase_qpf.h"
#include "prkb/prkb_io.h"
#include "prkb/selection.h"
#include "tests/test_util.h"

namespace prkb::core {
namespace {

namespace fs = std::filesystem;
using edbms::CompareOp;
using edbms::PlainPredicate;
using edbms::TupleId;

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

/// Deterministic byte image of the whole index: every enabled chain's
/// EncodeTo (memberships, cuts with ids, fast-path cache) in attr order.
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

/// Copies a WAL directory with the log truncated to `log_bytes`.
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

/// A deterministic mixed workload (selects that split chains, BETWEENs,
/// repeats that populate the fast-path cache, inserts, deletes). Returns the
/// state image and durable log size after every operation.
struct WorkloadTrace {
  std::vector<std::vector<uint8_t>> states;
  std::vector<size_t> log_sizes;
};

WorkloadTrace RunWorkload(edbms::CipherbaseEdbms* db, PrkbIndex* index,
                          const std::string& wal_dir) {
  WorkloadTrace trace;
  auto checkpoint = [&] {
    trace.states.push_back(StateBytes(*index));
    trace.log_sizes.push_back(fs::file_size(wal_dir + "/wal.log"));
  };
  const std::vector<edbms::Value> cuts = {200, 500, 800, 350, 650, 500};
  for (const edbms::Value v : cuts) {
    index->Select(db->MakeComparison(0, CompareOp::kGe, v));
    checkpoint();
    index->Select(db->MakeComparison(1, CompareOp::kLt, v + 37));
    checkpoint();
  }
  index->Select(db->MakeBetween(0, 300, 700));
  checkpoint();
  index->Insert({123, 456});
  checkpoint();
  index->Insert({999, 1});
  checkpoint();
  index->Delete(3);
  checkpoint();
  index->Delete(17);
  checkpoint();
  // Repeats: fast-path remember records and zero-QPF answers.
  index->Select(db->MakeComparison(0, CompareOp::kGe, 500));
  checkpoint();
  index->Select(db->MakeBetween(0, 300, 700));
  checkpoint();
  return trace;
}

class WalTest : public testing::Test {
 protected:
  void SetUp() override {
    Rng rng(2026);
    plain_ = testutil::RandomTable(240, 2, &rng, 0, 999);
    db_ = std::make_unique<edbms::CipherbaseEdbms>(
        edbms::CipherbaseEdbms::FromPlainTable(77, plain_));
  }

  edbms::PlainTable plain_{2};
  std::unique_ptr<edbms::CipherbaseEdbms> db_;
};

TEST_F(WalTest, CrashRecoveryDifferential) {
  const std::string dir = FreshDir("wal_diff");
  PrkbIndex live(db_.get());
  WalOptions opts;
  opts.fsync_on_commit = false;  // keep the differential sweep fast
  opts.compact_threshold_bytes = 0;
  auto wal = PrkbWal::Open(&live, dir, opts);
  ASSERT_TRUE(wal.ok()) << wal.status().message();
  live.EnableAttr(0);
  live.EnableAttr(1);
  ASSERT_TRUE((*wal)->Commit().ok());

  const WorkloadTrace trace = RunWorkload(db_.get(), &live, dir);

  // Kill the process at every commit boundary: a WAL clone truncated to that
  // durable frontier must recover to the exact bytes the live index had —
  // chains, memberships, cut ids, fast-path cache — without one QPF call.
  for (size_t i = 0; i < trace.states.size(); ++i) {
    const std::string rdir = FreshDir("wal_diff_replay");
    CloneWalDir(dir, rdir, trace.log_sizes[i]);
    PrkbIndex recovered(db_.get());
    const uint64_t qpf_before = db_->uses();
    auto rwal = PrkbWal::Open(&recovered, rdir, opts);
    ASSERT_TRUE(rwal.ok()) << "checkpoint " << i << ": "
                           << rwal.status().message();
    EXPECT_EQ(db_->uses(), qpf_before) << "recovery spent QPF";
    EXPECT_GT((*rwal)->stats().replayed_records, 0u);
    EXPECT_EQ(StateBytes(recovered), trace.states[i]) << "checkpoint " << i;
    for (edbms::AttrId attr : recovered.EnabledAttrs()) {
      EXPECT_TRUE(recovered.pop(attr).Validate().ok());
    }
  }
}

TEST_F(WalTest, TornTailSeversAtLastGoodRecord) {
  const std::string dir = FreshDir("wal_torn");
  WalOptions opts;
  opts.fsync_on_commit = false;
  opts.compact_threshold_bytes = 0;
  std::vector<uint8_t> final_state;
  {
    PrkbIndex live(db_.get());
    auto wal = PrkbWal::Open(&live, dir, opts);
    ASSERT_TRUE(wal.ok());
    live.EnableAttr(0);
    RunWorkload(db_.get(), &live, dir);
    final_state = StateBytes(live);
  }
  const auto log = ReadFile(dir + "/wal.log");
  ASSERT_GT(log.size(), 64u);

  // Every possible torn tail — truncation at each byte offset past the
  // header — must recover to a valid prefix state, never fail or crash.
  for (size_t cut = 8; cut <= log.size(); cut += 7) {
    const std::string rdir = FreshDir("wal_torn_replay");
    CloneWalDir(dir, rdir, cut);
    PrkbIndex recovered(db_.get());
    auto rwal = PrkbWal::Open(&recovered, rdir, opts);
    ASSERT_TRUE(rwal.ok()) << "cut at " << cut << ": "
                           << rwal.status().message();
    // A cut inside the very first record recovers an empty index (the
    // enable itself was not durable yet) — also a valid prefix state.
    if (recovered.IsEnabled(0)) {
      ASSERT_TRUE(recovered.pop(0).Validate().ok());
    }
    // The severed log was truncated on disk to its last good record, so a
    // second recovery replays the identical state.
    const auto once = StateBytes(recovered);
    PrkbIndex again(db_.get());
    auto rwal2 = PrkbWal::Open(&again, rdir, opts);
    ASSERT_TRUE(rwal2.ok());
    EXPECT_EQ(StateBytes(again), once);
  }
  // An untouched log still recovers the full final state.
  const std::string rdir = FreshDir("wal_torn_full");
  CloneWalDir(dir, rdir, log.size());
  PrkbIndex recovered(db_.get());
  auto rwal = PrkbWal::Open(&recovered, rdir, opts);
  ASSERT_TRUE(rwal.ok());
  EXPECT_EQ(StateBytes(recovered), final_state);
}

TEST_F(WalTest, CrcCorruptionSeversNotCrashes) {
  const std::string dir = FreshDir("wal_crc");
  WalOptions opts;
  opts.fsync_on_commit = false;
  opts.compact_threshold_bytes = 0;
  {
    PrkbIndex live(db_.get());
    auto wal = PrkbWal::Open(&live, dir, opts);
    ASSERT_TRUE(wal.ok());
    live.EnableAttr(0);
    RunWorkload(db_.get(), &live, dir);
  }
  const auto log = ReadFile(dir + "/wal.log");

  // Flip one byte in the middle of the record stream: recovery must sever at
  // (or before) the flipped frame and still produce a valid chain.
  for (const double frac : {0.3, 0.6, 0.9}) {
    auto bad = log;
    const size_t at = 8 + static_cast<size_t>(
                              static_cast<double>(bad.size() - 9) * frac);
    bad[at] ^= 0x41;
    const std::string rdir = FreshDir("wal_crc_replay");
    CloneWalDir(dir, rdir, 0);
    WriteFile(rdir + "/wal.log", bad);
    PrkbIndex recovered(db_.get());
    auto rwal = PrkbWal::Open(&recovered, rdir, opts);
    ASSERT_TRUE(rwal.ok()) << rwal.status().message();
    EXPECT_TRUE(recovered.pop(0).Validate().ok());
    // Severed: the replayed record count is below the pristine log's.
    PrkbIndex full(db_.get());
    const std::string fdir = FreshDir("wal_crc_full");
    CloneWalDir(dir, fdir, log.size());
    auto fwal = PrkbWal::Open(&full, fdir, opts);
    ASSERT_TRUE(fwal.ok());
    EXPECT_LT((*rwal)->stats().replayed_records,
              (*fwal)->stats().replayed_records);
  }
}

TEST_F(WalTest, AddRecordOfACoveredTupleFailsTheOpen) {
  // A framed, CRC-valid add record that places a tuple already on the chain
  // cannot come from a live run (AddTuple requires an uncovered tuple). Such
  // a log is corrupt and must fail the open rather than corrupt the chain —
  // also when both adds sit in one run of add records, which replay applies
  // as a single batch.
  const std::string dir = FreshDir("wal_dup_add");
  WalOptions opts;
  opts.fsync_on_commit = false;
  opts.compact_threshold_bytes = 0;
  {
    PrkbIndex live(db_.get());
    auto wal = PrkbWal::Open(&live, dir, opts);
    ASSERT_TRUE(wal.ok());
    live.EnableAttr(0);
    live.Select(db_->MakeComparison(0, CompareOp::kLt, 500));
  }
  const auto log = ReadFile(dir + "/wal.log");
  const auto add_frame = [](uint64_t pos, uint64_t tid) {
    Encoder payload;
    payload.PutU8(4);   // record type: add (docs/PERSISTENCE.md §3)
    payload.PutU32(0);  // attribute
    payload.PutVarint(pos);
    payload.PutVarint(tid);
    const std::vector<uint8_t> body = payload.Release();
    Encoder frame;
    frame.PutU32(static_cast<uint32_t>(body.size()));
    frame.PutU32(Crc32(body.data(), body.size()));
    std::vector<uint8_t> out = frame.Release();
    out.insert(out.end(), body.begin(), body.end());
    return out;
  };
  const std::vector<std::vector<std::vector<uint8_t>>> cases = {
      {add_frame(0, 3)},                         // tuple 3 is on the chain
      {add_frame(0, 5000), add_frame(1, 5000)},  // a fresh tuple, twice
  };
  for (const auto& frames : cases) {
    auto bad = log;
    for (const auto& f : frames) bad.insert(bad.end(), f.begin(), f.end());
    const std::string rdir = FreshDir("wal_dup_add_replay");
    CloneWalDir(dir, rdir, 0);
    WriteFile(rdir + "/wal.log", bad);
    PrkbIndex recovered(db_.get());
    auto rwal = PrkbWal::Open(&recovered, rdir, opts);
    ASSERT_FALSE(rwal.ok());
    EXPECT_EQ(rwal.status().code(), Status::Code::kCorruption)
        << rwal.status().ToString();
  }
}

TEST_F(WalTest, CompactionPreservesStateAndTruncatesLog) {
  const std::string dir = FreshDir("wal_compact");
  WalOptions opts;
  opts.fsync_on_commit = false;
  opts.compact_threshold_bytes = 0;
  PrkbIndex live(db_.get());
  auto wal = PrkbWal::Open(&live, dir, opts);
  ASSERT_TRUE(wal.ok());
  live.EnableAttr(0);
  live.EnableAttr(1);
  RunWorkload(db_.get(), &live, dir);
  const auto before = StateBytes(live);
  ASSERT_GT(fs::file_size(dir + "/wal.log"), 8u);

  ASSERT_TRUE((*wal)->Compact().ok());
  EXPECT_EQ(fs::file_size(dir + "/wal.log"), 8u);  // back to the header
  EXPECT_TRUE(fs::exists(dir + "/snapshot.prkb"));
  EXPECT_EQ((*wal)->stats().compactions, 1u);

  // Recovery now costs one snapshot load and still lands on the same bytes.
  PrkbIndex recovered(db_.get());
  auto rwal = PrkbWal::Open(&recovered, dir, opts);
  ASSERT_TRUE(rwal.ok());
  EXPECT_EQ((*rwal)->stats().replayed_records, 0u);
  EXPECT_EQ(StateBytes(recovered), before);

  // And post-compaction mutations keep logging on the fresh tail. The two
  // indexes now share one WAL dir, so only `recovered` may keep writing.
  wal->reset();
  recovered.Select(db_->MakeComparison(0, CompareOp::kGe, 111));
  EXPECT_GT(fs::file_size(dir + "/wal.log"), 8u);
}

TEST_F(WalTest, AutoCompactionTriggersAtThreshold) {
  const std::string dir = FreshDir("wal_auto");
  WalOptions opts;
  opts.fsync_on_commit = false;
  opts.compact_threshold_bytes = 512;  // tiny: force frequent folding
  PrkbIndex live(db_.get());
  auto wal = PrkbWal::Open(&live, dir, opts);
  ASSERT_TRUE(wal.ok());
  live.EnableAttr(0);
  live.EnableAttr(1);
  RunWorkload(db_.get(), &live, dir);
  EXPECT_GT((*wal)->stats().compactions, 0u);

  PrkbIndex recovered(db_.get());
  auto rwal = PrkbWal::Open(&recovered, dir, opts);
  ASSERT_TRUE(rwal.ok());
  EXPECT_EQ(StateBytes(recovered), StateBytes(live));
}

TEST_F(WalTest, FirstAttachToWarmIndexSnapshotsWholesale) {
  // Chains that predate the WAL cannot be reconstructed from init records
  // alone (their cuts and cache predate the log): Open() must capture them
  // in a snapshot immediately.
  PrkbIndex live(db_.get());
  live.EnableAttr(0);
  live.Select(db_->MakeComparison(0, CompareOp::kGe, 500));
  live.Select(db_->MakeBetween(0, 250, 750));
  const auto warm = StateBytes(live);

  const std::string dir = FreshDir("wal_warm");
  WalOptions opts;
  opts.fsync_on_commit = false;
  auto wal = PrkbWal::Open(&live, dir, opts);
  ASSERT_TRUE(wal.ok());
  EXPECT_TRUE(fs::exists(dir + "/snapshot.prkb"));

  PrkbIndex recovered(db_.get());
  auto rwal = PrkbWal::Open(&recovered, dir, opts);
  ASSERT_TRUE(rwal.ok());
  EXPECT_EQ(StateBytes(recovered), warm);
}

TEST_F(WalTest, RepeatPredicateStaysZeroQpfAfterRecovery)  {
  // The fast-path cache survives the log: a predicate answered before the
  // crash is answered after recovery with zero QPF uses — the PRKB's whole
  // value proposition, now durable.
  const std::string dir = FreshDir("wal_fastpath");
  WalOptions opts;
  opts.fsync_on_commit = false;
  const auto td_cmp = db_->MakeComparison(0, CompareOp::kGe, 444);
  const auto td_btw = db_->MakeBetween(0, 200, 600);
  std::vector<TupleId> cmp_win, btw_win;
  {
    PrkbIndex live(db_.get());
    auto wal = PrkbWal::Open(&live, dir, opts);
    ASSERT_TRUE(wal.ok());
    live.EnableAttr(0);
    cmp_win = testutil::Sorted(live.Select(td_cmp));
    btw_win = testutil::Sorted(live.Select(td_btw));
  }
  PrkbIndex recovered(db_.get());
  auto rwal = PrkbWal::Open(&recovered, dir, opts);
  ASSERT_TRUE(rwal.ok());
  edbms::SelectionStats stats;
  EXPECT_EQ(testutil::Sorted(recovered.Select(td_cmp, &stats)), cmp_win);
  EXPECT_EQ(stats.qpf_uses, 0u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(testutil::Sorted(recovered.Select(td_btw, &stats)), btw_win);
  EXPECT_EQ(stats.qpf_uses, 0u);
}

TEST_F(WalTest, RecoversGoldenDirectoryFromAnEarlierBuild) {
  // tests/golden/wal_v3 holds a WAL directory written by an earlier build
  // (before the chain layout became the only membership) over this
  // fixture's table and key:
  //   snapshot.prkb — attribute 0 after x0 >= 500, x0 < 250 and
  //                   600 <= x0 <= 800;
  //   wal.log       — 29 records: enabling attribute 1 (init); x1 >= 400,
  //                   x1 < 700 and 300 <= x1 <= 800 (comparison splits,
  //                   linked BETWEEN splits, remembers); x0 < 700; two
  //                   inserted rows (adds); deletes of tuples 3 and 17
  //                   (removes); MergeAt(0) on attribute 1; rows 242 and 243
  //                   appended to both insert buffers and attribute 0
  //                   flushed (appends, adds, flush); 243 deleted (a
  //                   buffered remove on attribute 1); x0 >= 500 repeated.
  // Today's code must replay every record, satisfy the plaintext oracle
  // and land on exactly the chain bytes the writing build recovered.
  const std::string dir = FreshDir("wal_golden");
  fs::copy(std::string(PRKB_GOLDEN_DIR) + "/wal_v3", dir);
  WalOptions opts;
  opts.fsync_on_commit = false;
  opts.compact_threshold_bytes = 0;
  PrkbIndex recovered(db_.get());
  auto rwal = PrkbWal::Open(&recovered, dir, opts);
  ASSERT_TRUE(rwal.ok()) << rwal.status().ToString();
  EXPECT_EQ((*rwal)->stats().replayed_records, 29u);

  edbms::PlainTable plain = plain_;
  for (const std::vector<edbms::Value>& row :
       std::vector<std::vector<edbms::Value>>{
           {123, 456}, {999, 1}, {555, 777}, {42, 900}}) {
    plain.AddRow(row);
  }
  for (edbms::AttrId attr : {0u, 1u}) {
    ASSERT_TRUE(recovered.IsEnabled(attr));
    const Status s = recovered.pop(attr).ValidateAgainstPlain(
        plain.column(attr));
    EXPECT_TRUE(s.ok()) << "attr " << attr << ": " << s.ToString();
  }
  EXPECT_EQ(recovered.pop(0).insert_buffer().Size(), 0u);
  EXPECT_EQ(recovered.pop(1).insert_buffer().order(),
            (std::vector<TupleId>{242}));

  // FNV-1a of every chain's EncodeTo, recorded by the writing build.
  uint64_t hash = 1469598103934665603ULL;
  for (uint8_t b : StateBytes(recovered)) {
    hash = (hash ^ b) * 1099511628211ULL;
  }
  EXPECT_EQ(hash, 0xb4ece23e5e788d95ULL);
}

}  // namespace
}  // namespace prkb::core
