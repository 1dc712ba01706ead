#include "prkb/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "obs/metrics.h"
#include "prkb/prkb_io.h"
#include "prkb/selection.h"

namespace prkb::core {
namespace {

// wal.log header. The version rides in the last byte.
constexpr uint8_t kLogMagic[8] = {'P', 'R', 'K', 'B', 'W', 'A', 'L', '1'};

// Record payload types ([u8 type][u32 attr][body] — docs/PERSISTENCE.md §3).
enum RecordType : uint8_t {
  kInit = 1,             // body: memberset
  kSplit = 2,            // body: varint left_pos, u8 left_label, trapdoor,
                         //       memberset (left half only)
  kLink = 3,             // body: varint low_cut, varint high_cut
  kAdd = 4,              // body: varint pos, varint tid
  kRemove = 5,           // body: varint tid
  kMerge = 6,            // body: varint pos
  kRememberCmp = 7,      // body: varint cut_id
  kRememberBetween = 8,  // body: varint low_cut, varint high_cut
  kBufAppend = 9,        // body: varint tid (deferred-insert buffer append)
  kBufFlush = 10,        // body: varint count (flush boundary marker; the
                         //       kAdd/kInit/kSplit records of the flush
                         //       precede it, so a torn tail mid-flush leaves
                         //       the unplaced suffix validly buffered)
};

// Upper bound on one record's framed payload; anything larger on disk is
// treated as a torn/corrupt tail. Generous: the largest legitimate record is
// an init/split memberset, ~2 bytes per tuple worst case.
constexpr uint32_t kMaxRecordBytes = 1u << 30;

struct WalMetrics {
  obs::Counter* appends;
  obs::Counter* bytes;
  obs::Counter* fsyncs;
  obs::Counter* replayed;
  obs::Counter* compactions;
  static const WalMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static const WalMetrics m = {
        reg.GetCounter("wal.appends"),
        reg.GetCounter("wal.bytes"),
        reg.GetCounter("wal.fsyncs"),
        reg.GetCounter("wal.replayed_records"),
        reg.GetCounter("wal.compactions"),
    };
    return m;
  }
};

Status FsyncFile(std::FILE* f) {
  if (std::fflush(f) != 0) return Status::IoError("fflush failed");
  if (::fsync(fileno(f)) != 0) {
    return Status::IoError(std::string("fsync failed: ") +
                           std::strerror(errno));
  }
  return Status::Ok();
}

// Durability of a rename requires fsyncing the containing directory too.
Status FsyncPath(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("open for fsync failed: " + path);
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::IoError("fsync failed: " + path);
  return Status::Ok();
}

}  // namespace

/// Turns one chain's mutation callbacks into framed log records. Stateless
/// apart from the (wal, attr) binding: every callback encodes a payload and
/// hands it to PrkbWal::Append, which owns all synchronisation.
class PrkbWal::AttrSink : public PopListener {
 public:
  AttrSink(PrkbWal* wal, edbms::AttrId attr) : wal_(wal), attr_(attr) {}

  void OnInit(const MemberSet& members) override {
    Encoder enc;
    Head(&enc, kInit);
    members.EncodeTo(&enc);
    wal_->Append(enc.buffer());
  }

  void OnSplit(size_t left_pos, const MemberSet& left_members,
               const edbms::Trapdoor& td, bool left_label) override {
    Encoder enc;
    Head(&enc, kSplit);
    enc.PutVarint(left_pos);
    enc.PutU8(left_label ? 1 : 0);
    EncodeTrapdoor(&enc, td);
    left_members.EncodeTo(&enc);
    wal_->Append(enc.buffer());
  }

  void OnLinkBetween(uint64_t low_cut, uint64_t high_cut) override {
    Encoder enc;
    Head(&enc, kLink);
    enc.PutVarint(low_cut);
    enc.PutVarint(high_cut);
    wal_->Append(enc.buffer());
  }

  void OnAdd(size_t pos, edbms::TupleId tid) override {
    Encoder enc;
    Head(&enc, kAdd);
    enc.PutVarint(pos);
    enc.PutVarint(tid);
    wal_->Append(enc.buffer());
  }

  void OnRemove(edbms::TupleId tid) override {
    Encoder enc;
    Head(&enc, kRemove);
    enc.PutVarint(tid);
    wal_->Append(enc.buffer());
  }

  void OnMerge(size_t pos) override {
    Encoder enc;
    Head(&enc, kMerge);
    enc.PutVarint(pos);
    wal_->Append(enc.buffer());
  }

  void OnRememberComparison(uint64_t cut_id) override {
    Encoder enc;
    Head(&enc, kRememberCmp);
    enc.PutVarint(cut_id);
    wal_->Append(enc.buffer());
  }

  void OnRememberBetween(uint64_t low_cut, uint64_t high_cut) override {
    Encoder enc;
    Head(&enc, kRememberBetween);
    enc.PutVarint(low_cut);
    enc.PutVarint(high_cut);
    wal_->Append(enc.buffer());
  }

  void OnBufferAppend(edbms::TupleId tid) override {
    Encoder enc;
    Head(&enc, kBufAppend);
    enc.PutVarint(tid);
    wal_->Append(enc.buffer());
  }

  void OnBufferFlush(size_t placed) override {
    Encoder enc;
    Head(&enc, kBufFlush);
    enc.PutVarint(placed);
    wal_->Append(enc.buffer());
  }

 private:
  void Head(Encoder* enc, RecordType type) const {
    enc->PutU8(type);
    enc->PutU32(attr_);
  }

  PrkbWal* wal_;
  const edbms::AttrId attr_;
};

PrkbWal::PrkbWal(PrkbIndex* index, std::string dir, WalOptions options)
    : index_(index), dir_(std::move(dir)), options_(options) {}

PrkbWal::~PrkbWal() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    (void)CommitLocked();  // best effort: don't lose buffered records
    if (log_ != nullptr) std::fclose(log_);
    log_ = nullptr;
  }
  // Detach every listener (sinks_ entries may outlive the chains they were
  // hooked to if the attr was re-installed; only detach our own sinks).
  for (const auto& [attr, sink] : sinks_) {
    if (index_->IsEnabled(attr) &&
        index_->pop(attr).listener() == sink.get()) {
      index_->pop(attr).set_listener(nullptr);
    }
  }
  if (index_->wal_ == this) index_->wal_ = nullptr;
}

Result<std::unique_ptr<PrkbWal>> PrkbWal::Open(PrkbIndex* index,
                                               const std::string& dir,
                                               WalOptions options) {
  if (index->wal() != nullptr) {
    return Status::InvalidArgument("index already has a WAL attached");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create WAL dir " + dir);

  std::unique_ptr<PrkbWal> wal(new PrkbWal(index, dir, options));
  PRKB_RETURN_IF_ERROR(wal->Recover());
  PRKB_RETURN_IF_ERROR(wal->OpenFiles());
  PRKB_RETURN_IF_ERROR(wal->AttachAll());
  return wal;
}

std::string PrkbWal::SnapshotPath() const { return dir_ + "/snapshot.prkb"; }
std::string PrkbWal::LogPath() const { return dir_ + "/wal.log"; }

Status PrkbWal::Recover() {
  // 1. Snapshot, if any.
  recovered_attrs_.clear();
  std::error_code ec;
  if (std::filesystem::exists(SnapshotPath(), ec)) {
    std::vector<edbms::AttrId> loaded;
    PRKB_RETURN_IF_ERROR(LoadPrkb(index_, SnapshotPath(), &loaded));
    recovered_attrs_.insert(loaded.begin(), loaded.end());
  }

  // 2. The log. Absent or header-less → treated as fresh (OpenFiles rewrites
  //    it). A record tail that is torn (short) or CRC-corrupt severs the
  //    log: everything before the first bad frame is applied, the file is
  //    truncated to that point, and recovery succeeds — exactly the
  //    "crashed mid-append" contract. A record that frames correctly but
  //    fails to *apply* is a real corruption and fails the open loudly.
  if (!std::filesystem::exists(LogPath(), ec)) return Status::Ok();
  std::FILE* f = std::fopen(LogPath().c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open " + LogPath());
  std::fseek(f, 0, SEEK_END);
  const long fsize = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> buf(static_cast<size_t>(fsize < 0 ? 0 : fsize));
  const size_t got = std::fread(buf.data(), 1, buf.size(), f);
  std::fclose(f);
  if (got != buf.size()) return Status::IoError("short read " + LogPath());

  if (buf.size() < sizeof(kLogMagic)) return Status::Ok();  // fresh
  if (std::memcmp(buf.data(), kLogMagic, sizeof(kLogMagic)) != 0) {
    return Status::Corruption("bad WAL magic in " + LogPath());
  }

  size_t off = sizeof(kLogMagic);
  size_t good_end = off;
  PendingAdds adds;
  while (off + 8 <= buf.size()) {
    uint32_t len = 0;
    uint32_t crc = 0;
    Decoder frame(buf.data() + off, 8);
    (void)frame.GetU32(&len);
    (void)frame.GetU32(&crc);
    if (len == 0 || len > kMaxRecordBytes) break;        // torn/garbage tail
    if (off + 8 + len > buf.size()) break;               // torn tail
    const uint8_t* payload = buf.data() + off + 8;
    if (Crc32(payload, len) != crc) break;               // bit rot: sever
    PRKB_RETURN_IF_ERROR(ApplyRecord(payload, len, &adds));
    ++stats_.replayed_records;
    WalMetrics::Get().replayed->Add(1);
    off += 8 + len;
    good_end = off;
  }
  PRKB_RETURN_IF_ERROR(ApplyPendingAdds(&adds));
  if (good_end < buf.size()) {
    std::filesystem::resize_file(LogPath(), good_end, ec);
    if (ec) return Status::IoError("cannot truncate " + LogPath());
  }
  stats_.log_bytes = good_end;
  return Status::Ok();
}

Status PrkbWal::ApplyPendingAdds(PendingAdds* adds) {
  if (adds->placements.empty()) return Status::Ok();
  // Each queued tuple was checked uncovered when it queued; a tuple queued
  // twice would pass that check both times.
  std::vector<edbms::TupleId> tids;
  tids.reserve(adds->placements.size());
  for (const auto& [pid, tid] : adds->placements) tids.push_back(tid);
  std::sort(tids.begin(), tids.end());
  if (std::adjacent_find(tids.begin(), tids.end()) != tids.end()) {
    return Status::Corruption("add of covered tuple");
  }
  index_->pop(adds->attr).AddTuples(adds->placements);
  adds->placements.clear();
  return Status::Ok();
}

Status PrkbWal::ApplyRecord(const uint8_t* payload, size_t size,
                            PendingAdds* adds) {
  Decoder dec(payload, size);
  uint8_t type = 0;
  uint32_t attr = 0;
  PRKB_RETURN_IF_ERROR(dec.GetU8(&type));
  PRKB_RETURN_IF_ERROR(dec.GetU32(&attr));
  if (type != kAdd || attr != adds->attr) {
    PRKB_RETURN_IF_ERROR(ApplyPendingAdds(adds));
  }

  if (type == kInit) {
    MemberSet ms;
    PRKB_RETURN_IF_ERROR(ms.DecodeFrom(&dec));
    if (!dec.Done()) return Status::Corruption("trailing bytes in init");
    // Re-run initPRKB in place (listener not yet attached — Recover runs
    // before AttachAll — so replay emits no records). InitSingle resets the
    // chain but keeps the not-covered part of the insert buffer, matching
    // the live operation — a flush seeding an empty chain inits with just
    // the first buffered tuple.
    index_->pops_[attr].InitSingle(ms.ToVector());
    recovered_attrs_.insert(attr);
    return Status::Ok();
  }

  if (!index_->IsEnabled(attr)) {
    return Status::Corruption("WAL record for unknown attribute");
  }
  Pop& pop = index_->pop(attr);

  switch (type) {
    case kSplit: {
      uint64_t left_pos = 0;
      uint8_t left_label = 0;
      edbms::Trapdoor td;
      MemberSet left;
      PRKB_RETURN_IF_ERROR(dec.GetVarint(&left_pos));
      PRKB_RETURN_IF_ERROR(dec.GetU8(&left_label));
      PRKB_RETURN_IF_ERROR(DecodeTrapdoor(&dec, &td));
      PRKB_RETURN_IF_ERROR(left.DecodeFrom(&dec));
      if (!dec.Done()) return Status::Corruption("trailing bytes in split");
      if (left_pos >= pop.k()) {
        return Status::Corruption("split position out of range");
      }
      const PartitionId pid = pop.pid_at(left_pos);
      // The record ships only the left delta; the right half is recomputed
      // as a set difference against the pre-split membership.
      MemberSet right = MemberSet::Difference(pop.members(pid), left);
      if (left.Empty() || right.Empty() ||
          left.Size() + right.Size() != pop.members(pid).Size()) {
        return Status::Corruption("split halves do not partition the members");
      }
      pop.SplitPartitionSets(pid, std::move(left), std::move(right), td,
                             left_label != 0);
      return Status::Ok();
    }
    case kLink: {
      uint64_t low = 0, high = 0;
      PRKB_RETURN_IF_ERROR(dec.GetVarint(&low));
      PRKB_RETURN_IF_ERROR(dec.GetVarint(&high));
      if (!dec.Done()) return Status::Corruption("trailing bytes in link");
      if (pop.FindCut(low) == nullptr || pop.FindCut(high) == nullptr) {
        return Status::Corruption("link references unknown cut");
      }
      pop.LinkBetweenCuts(low, high);
      return Status::Ok();
    }
    case kAdd: {
      uint64_t pos = 0, tid = 0;
      PRKB_RETURN_IF_ERROR(dec.GetVarint(&pos));
      PRKB_RETURN_IF_ERROR(dec.GetVarint(&tid));
      if (!dec.Done()) return Status::Corruption("trailing bytes in add");
      if (pos >= pop.k()) return Status::Corruption("add position range");
      const auto t = static_cast<edbms::TupleId>(tid);
      if (pop.partition_of(t) != Pop::kNoPartition) {
        return Status::Corruption("add of covered tuple");
      }
      // Queued adds move no position, so `pos` names the same partition
      // when the batch applies.
      adds->attr = attr;
      adds->placements.emplace_back(pop.pid_at(pos), t);
      return Status::Ok();
    }
    case kRemove: {
      uint64_t tid = 0;
      PRKB_RETURN_IF_ERROR(dec.GetVarint(&tid));
      if (!dec.Done()) return Status::Corruption("trailing bytes in remove");
      if (pop.partition_of(static_cast<edbms::TupleId>(tid)) ==
              Pop::kNoPartition &&
          !pop.insert_buffer().Contains(static_cast<edbms::TupleId>(tid))) {
        return Status::Corruption("remove of uncovered tuple");
      }
      pop.RemoveTuple(static_cast<edbms::TupleId>(tid));
      return Status::Ok();
    }
    case kMerge: {
      uint64_t pos = 0;
      PRKB_RETURN_IF_ERROR(dec.GetVarint(&pos));
      if (!dec.Done()) return Status::Corruption("trailing bytes in merge");
      if (pos + 1 >= pop.k()) return Status::Corruption("merge position");
      pop.MergeAt(pos);
      return Status::Ok();
    }
    case kRememberCmp: {
      uint64_t cut_id = 0;
      PRKB_RETURN_IF_ERROR(dec.GetVarint(&cut_id));
      if (!dec.Done()) return Status::Corruption("trailing bytes in rm-cmp");
      const Pop::Cut* cut = pop.FindCut(cut_id);
      if (cut == nullptr) return Status::Corruption("remember unknown cut");
      // Own-cut invariant: the entry's fingerprint IS the anchor cut's.
      pop.RememberComparison(cut->fp, cut_id);
      return Status::Ok();
    }
    case kRememberBetween: {
      uint64_t low = 0, high = 0;
      PRKB_RETURN_IF_ERROR(dec.GetVarint(&low));
      PRKB_RETURN_IF_ERROR(dec.GetVarint(&high));
      if (!dec.Done()) return Status::Corruption("trailing bytes in rm-btw");
      const Pop::Cut* cut = pop.FindCut(low);
      if (cut == nullptr || pop.FindCut(high) == nullptr) {
        return Status::Corruption("remember unknown cut");
      }
      pop.RememberBetween(cut->fp, low, high);
      return Status::Ok();
    }
    case kBufAppend: {
      uint64_t tid = 0;
      PRKB_RETURN_IF_ERROR(dec.GetVarint(&tid));
      if (!dec.Done()) return Status::Corruption("trailing bytes in buf-app");
      const auto t = static_cast<edbms::TupleId>(tid);
      if (pop.partition_of(t) != Pop::kNoPartition ||
          pop.insert_buffer().Contains(t)) {
        return Status::Corruption("buffer append of covered/buffered tuple");
      }
      pop.BufferAppend(t);
      return Status::Ok();
    }
    case kBufFlush: {
      uint64_t count = 0;
      PRKB_RETURN_IF_ERROR(dec.GetVarint(&count));
      if (!dec.Done()) return Status::Corruption("trailing bytes in buf-fl");
      // Every placement record of the flush precedes this marker, and
      // AddTuple/InitSingle drain the buffer as they replay — so reaching
      // the marker with tuples still buffered means the log is inconsistent.
      if (!pop.insert_buffer().Empty()) {
        return Status::Corruption("flush marker with non-empty buffer");
      }
      pop.NoteBufferFlushed(count);
      return Status::Ok();
    }
    default:
      return Status::Corruption("unknown WAL record type");
  }
}

Status PrkbWal::OpenFiles() {
  // Append mode keeps whatever Recover left; a fresh/empty file gets the
  // header first.
  std::error_code ec;
  const auto size = std::filesystem::exists(LogPath(), ec)
                        ? std::filesystem::file_size(LogPath(), ec)
                        : 0;
  log_ = std::fopen(LogPath().c_str(), size >= sizeof(kLogMagic) ? "ab" : "wb");
  if (log_ == nullptr) return Status::IoError("cannot open " + LogPath());
  if (size < sizeof(kLogMagic)) {
    if (std::fwrite(kLogMagic, 1, sizeof(kLogMagic), log_) !=
        sizeof(kLogMagic)) {
      return Status::IoError("cannot write WAL header");
    }
    PRKB_RETURN_IF_ERROR(FsyncFile(log_));
    stats_.log_bytes = sizeof(kLogMagic);
  }
  return Status::Ok();
}

Status PrkbWal::AttachAll() {
  std::lock_guard<std::mutex> lock(mu_);
  index_->wal_ = this;
  bool full_snapshot_needed = false;
  for (edbms::AttrId attr : index_->EnabledAttrs()) {
    HookLocked(attr);
    // A chain that was enabled before Open() and has no recovered state
    // (first attach to a pre-warmed index) cannot be reconstructed from the
    // log alone — its cuts and cache predate the WAL. Capture everything in
    // one snapshot instead of lossy init records.
    if (!recovered_attrs_.contains(attr)) full_snapshot_needed = true;
  }
  if (full_snapshot_needed) return CompactLocked();
  return Status::Ok();
}

void PrkbWal::HookLocked(edbms::AttrId attr) {
  auto& sink = sinks_[attr];
  if (sink == nullptr) sink = std::make_unique<AttrSink>(this, attr);
  index_->pop(attr).set_listener(sink.get());
}

void PrkbWal::Append(const std::vector<uint8_t>& payload) {
  Encoder frame;
  frame.PutU32(static_cast<uint32_t>(payload.size()));
  frame.PutU32(Crc32(payload.data(), payload.size()));
  std::lock_guard<std::mutex> lock(mu_);
  pending_.insert(pending_.end(), frame.buffer().begin(), frame.buffer().end());
  pending_.insert(pending_.end(), payload.begin(), payload.end());
  ++stats_.appended_records;
  stats_.appended_bytes += 8 + payload.size();
  WalMetrics::Get().appends->Add(1);
  WalMetrics::Get().bytes->Add(8 + payload.size());
}

Status PrkbWal::Commit() {
  std::lock_guard<std::mutex> lock(mu_);
  PRKB_RETURN_IF_ERROR(CommitLocked());
  if (options_.compact_threshold_bytes > 0 &&
      stats_.log_bytes > options_.compact_threshold_bytes) {
    if (options_.auto_compact) return CompactLocked();
    compact_pending_ = true;
  }
  return Status::Ok();
}

bool PrkbWal::compact_pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return compact_pending_;
}

Status PrkbWal::CommitLocked() {
  if (pending_.empty()) return Status::Ok();
  if (log_ == nullptr) return Status::IoError("WAL log not open");
  const size_t n = std::fwrite(pending_.data(), 1, pending_.size(), log_);
  if (n != pending_.size()) return Status::IoError("short WAL append");
  if (options_.fsync_on_commit) {
    PRKB_RETURN_IF_ERROR(FsyncFile(log_));
    ++stats_.fsyncs;
    WalMetrics::Get().fsyncs->Add(1);
  } else if (std::fflush(log_) != 0) {
    return Status::IoError("fflush failed");
  }
  stats_.log_bytes += pending_.size();
  pending_.clear();
  ++stats_.commits;
  return Status::Ok();
}

Status PrkbWal::Compact() {
  std::lock_guard<std::mutex> lock(mu_);
  PRKB_RETURN_IF_ERROR(CommitLocked());
  return CompactLocked();
}

Status PrkbWal::CompactLocked() {
  // Records buffered before the snapshot point are folded into it; flush
  // them first only in the sense of dropping them — the snapshot below
  // captures their effects, so they need not hit the old log at all. (They
  // may already be on disk from an earlier commit; that is harmless, the
  // log is truncated next.)
  pending_.clear();

  // 1. Atomic snapshot: temp file + fsync + rename + directory fsync.
  const std::string tmp = SnapshotPath() + ".tmp";
  PRKB_RETURN_IF_ERROR(SavePrkb(*index_, tmp));
  {
    std::FILE* f = std::fopen(tmp.c_str(), "ab");
    if (f == nullptr) return Status::IoError("cannot reopen " + tmp);
    const Status s = FsyncFile(f);
    std::fclose(f);
    PRKB_RETURN_IF_ERROR(s);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, SnapshotPath(), ec);
  if (ec) return Status::IoError("cannot rename snapshot into place");
  PRKB_RETURN_IF_ERROR(FsyncPath(dir_));

  // 2. Truncate the log back to its header. Crash between 1 and 2 is safe:
  //    replaying the stale log over the new snapshot is re-applying
  //    operations the snapshot already contains — which the differential
  //    test would catch, so instead the log is rewritten through a temp file
  //    as well: write fresh header, fsync, rename.
  const std::string log_tmp = LogPath() + ".tmp";
  std::FILE* fresh = std::fopen(log_tmp.c_str(), "wb");
  if (fresh == nullptr) return Status::IoError("cannot open " + log_tmp);
  if (std::fwrite(kLogMagic, 1, sizeof(kLogMagic), fresh) !=
      sizeof(kLogMagic)) {
    std::fclose(fresh);
    return Status::IoError("cannot write WAL header");
  }
  const Status s = FsyncFile(fresh);
  if (!s.ok()) {
    std::fclose(fresh);
    return s;
  }
  if (log_ != nullptr) std::fclose(log_);
  log_ = nullptr;
  std::filesystem::rename(log_tmp, LogPath(), ec);
  if (ec) {
    std::fclose(fresh);
    return Status::IoError("cannot rename WAL log into place");
  }
  log_ = fresh;  // already positioned at end of header
  PRKB_RETURN_IF_ERROR(FsyncPath(dir_));
  stats_.log_bytes = sizeof(kLogMagic);
  ++stats_.compactions;
  compact_pending_ = false;
  WalMetrics::Get().compactions->Add(1);
  return Status::Ok();
}

PrkbWal::Stats PrkbWal::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.pending_bytes = pending_.size();
  return s;
}

// --- PrkbIndex durability helpers (need the complete PrkbWal) --------------

void PrkbIndex::WalHookAttr(edbms::AttrId attr) {
  if (wal_ != nullptr) {
    std::lock_guard<std::mutex> lock(wal_->mu_);
    wal_->HookLocked(attr);
  }
}

void PrkbIndex::CommitWal() {
  if (wal_ != nullptr) {
    // Commit failures must not corrupt query results — they surface through
    // wal()->Commit() for callers that need the status, and through the
    // stalled wal.* counters for everyone else.
    (void)wal_->Commit();
  }
}

void PrkbIndex::InstallPop(edbms::AttrId attr, Pop pop) {
  pops_[attr] = std::move(pop);
  if (wal_ != nullptr) {
    // The log cannot express a wholesale chain replacement; fold the new
    // state into a fresh snapshot instead.
    WalHookAttr(attr);
    (void)wal_->Compact();
  }
}

}  // namespace prkb::core
