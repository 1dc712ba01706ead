#ifndef PRKB_PRKB_WAL_H_
#define PRKB_PRKB_WAL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "prkb/pop.h"

namespace prkb::core {

class PrkbIndex;

/// Durability knobs (docs/PERSISTENCE.md §5).
struct WalOptions {
  /// fsync the log file on every Commit(). Off trades the last commit for
  /// throughput (the OS still sees every byte; only a power cut loses them).
  bool fsync_on_commit = true;
  /// Log size (bytes) above which Commit() folds the log into a fresh
  /// snapshot and truncates. 0 disables automatic compaction.
  size_t compact_threshold_bytes = 8u << 20;
  /// When false, Commit() never compacts itself — it only raises
  /// compact_pending(), and the owner compacts at a safe point. Needed by
  /// ConcurrentPrkbIndex: compaction snapshots *every* chain, which is only
  /// safe under its exclusive map lock, not the per-attribute stripe lock a
  /// mutating Select holds.
  bool auto_compact = true;
};

/// Append-only write-ahead log for a PrkbIndex (docs/PERSISTENCE.md).
///
/// Layout inside the WAL directory:
///   snapshot.prkb — full v2 snapshot (prkb_io.h format), rewritten only by
///                   compaction, atomically (temp file + rename);
///   wal.log       — 8-byte magic, then CRC-framed records:
///                   [u32 len][u32 crc32(payload)][payload].
///
/// Every record is a *logical* chain operation (init / split / link / add /
/// remove / merge / remember), exactly the PopListener callback set, so
/// recovery is deterministic re-execution: load the snapshot, apply records
/// in order. Partitions are referenced by chain position and cuts by id —
/// both reproduce exactly during replay (positions by induction on the op
/// sequence, ids because the snapshot persists them and SplitPartition
/// assigns the next id deterministically). Split records ship only the left
/// half, packed as a compressed MemberSet; replay computes right = old \ left
/// as a sorted-vector difference against the partition's layout slice.
///
/// Sensitivity: records hold tuple ids, chain positions and sealed
/// trapdoors — the same material as the live service-provider state and the
/// snapshot, nothing more (docs/PERSISTENCE.md §6).
///
/// Concurrency: listener callbacks fire under the index's own locks (the
/// ConcurrentPrkbIndex stripes); the WAL serialises its buffer and file
/// behind one internal mutex, so concurrent per-attribute mutators may
/// interleave records but never tear them.
class PrkbWal {
 public:
  /// Opens the WAL in `dir` (created if missing) and binds it to `index`:
  ///
  ///   1. If snapshot.prkb exists, loads it into the index (replacing any
  ///      enabled chains).
  ///   2. Replays wal.log, severing at the first torn or CRC-corrupt record
  ///      (the file is truncated to the last good record). Replay re-applies
  ///      the logged chain operations directly — zero QPF calls.
  ///   3. Attaches mutation listeners to every enabled chain. Chains already
  ///      enabled on `index` but absent from the recovered state are logged
  ///      as fresh init records (first-attach bootstrap).
  ///
  /// The index must outlive the returned WAL; destroying the WAL detaches
  /// the listeners (pending records are committed first).
  static Result<std::unique_ptr<PrkbWal>> Open(PrkbIndex* index,
                                               const std::string& dir,
                                               WalOptions options = {});

  ~PrkbWal();
  PrkbWal(const PrkbWal&) = delete;
  PrkbWal& operator=(const PrkbWal&) = delete;

  /// Makes every record appended so far durable: one write + (optionally)
  /// one fsync for the whole batch (group commit). Triggers compaction when
  /// the log has outgrown its threshold. No-op when nothing is pending.
  Status Commit();

  /// Folds the log into snapshot.prkb (atomic: temp + rename) and truncates
  /// wal.log back to its header. Recovery cost drops to one snapshot load.
  Status Compact();

  /// True when the log outgrew its threshold but auto_compact is off; the
  /// owner should call Compact() at its next safe (fully exclusive) point.
  bool compact_pending() const;

  /// Point-in-time counters for `.wal` status lines and tests.
  struct Stats {
    uint64_t appended_records = 0;  // records appended via listeners
    uint64_t appended_bytes = 0;    // framed bytes appended
    uint64_t commits = 0;
    uint64_t fsyncs = 0;
    uint64_t replayed_records = 0;  // records applied by Open()
    uint64_t compactions = 0;
    size_t pending_bytes = 0;  // buffered, not yet committed
    size_t log_bytes = 0;      // durable wal.log size (incl. header)
  };
  Stats stats() const;

  const std::string& dir() const { return dir_; }

 private:
  /// Forwards one chain's PopListener callbacks into the shared log.
  class AttrSink;
  friend class AttrSink;

  PrkbWal(PrkbIndex* index, std::string dir, WalOptions options);

  std::string SnapshotPath() const;
  std::string LogPath() const;

  Status OpenFiles();
  /// Placement records not yet applied: consecutive add records of one
  /// chain (a buffer flush logs one per tuple) replay as one Pop::AddTuples
  /// batch — one layout merge pass instead of a memmove per tuple.
  struct PendingAdds {
    edbms::AttrId attr = 0;
    std::vector<std::pair<PartitionId, edbms::TupleId>> placements;
  };

  /// Loads snapshot + log into the index; truncates a torn/corrupt tail.
  Status Recover();
  /// Applies one record. Add records queue in `adds`; any other record
  /// applies the queue first.
  Status ApplyRecord(const uint8_t* payload, size_t size, PendingAdds* adds);
  /// Applies and empties the queue; Corruption if it adds a tuple twice.
  Status ApplyPendingAdds(PendingAdds* adds);
  /// Appends one framed record to the in-memory batch (caller encoded the
  /// payload). Thread-safe.
  void Append(const std::vector<uint8_t>& payload);
  /// Attaches listeners for every enabled attribute; snapshots wholesale if
  /// any chain has no recovered state (first attach to a warm index).
  Status AttachAll();
  void HookLocked(edbms::AttrId attr);
  Status CommitLocked();
  Status CompactLocked();

  PrkbIndex* index_;
  const std::string dir_;
  const WalOptions options_;

  mutable std::mutex mu_;
  std::FILE* log_ = nullptr;
  std::vector<uint8_t> pending_;
  std::unordered_map<edbms::AttrId, std::unique_ptr<AttrSink>> sinks_;
  /// Attributes reconstructed by Recover() (snapshot or init records).
  std::unordered_set<edbms::AttrId> recovered_attrs_;
  bool compact_pending_ = false;
  Stats stats_;

  friend class PrkbIndex;
};

}  // namespace prkb::core

#endif  // PRKB_PRKB_WAL_H_
