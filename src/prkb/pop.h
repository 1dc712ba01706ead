#ifndef PRKB_PRKB_POP_H_
#define PRKB_PRKB_POP_H_

#include <cstdint>
#include <limits>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/serial.h"
#include "common/status.h"
#include "edbms/encryption.h"
#include "edbms/types.h"
#include "prkb/fingerprint.h"
#include "prkb/insert_buffer.h"
#include "prkb/memberset.h"

namespace prkb::core {

/// Identifier of a partition. Stable across chain mutations (splits shift
/// chain *positions*, never ids) but NOT across snapshot round trips —
/// persistence references partitions by chain position and cuts by id.
using PartitionId = uint32_t;

/// Observer of chain mutations. The WAL (prkb/wal.h) implements this to turn
/// every knowledge-changing operation into a log record; replay re-runs the
/// same operations with the listener detached. Callbacks fire *after* the
/// mutation, under whatever lock the caller already holds.
///
/// The callback arguments are chosen to be replayable: partitions are
/// identified by chain position (stable across snapshot round trips, exact at
/// replay time because records apply in order) and cuts by id (persisted
/// verbatim by the v2 snapshot and reassigned deterministically by
/// SplitPartition during replay).
class PopListener {
 public:
  virtual ~PopListener() = default;
  /// InitSingle re-seeded the chain with one partition holding `members`.
  virtual void OnInit(const MemberSet& members) = 0;
  /// A split put `left_members` at chain position `left_pos` and the
  /// remainder at `left_pos`+1, separated by a new cut built from `td`.
  virtual void OnSplit(size_t left_pos, const MemberSet& left_members,
                       const edbms::Trapdoor& td, bool left_label) = 0;
  virtual void OnLinkBetween(uint64_t low_cut, uint64_t high_cut) = 0;
  virtual void OnAdd(size_t pos, edbms::TupleId tid) = 0;
  virtual void OnRemove(edbms::TupleId tid) = 0;
  virtual void OnMerge(size_t pos) = 0;
  virtual void OnRememberComparison(uint64_t cut_id) = 0;
  virtual void OnRememberBetween(uint64_t low_cut, uint64_t high_cut) = 0;
  /// A tuple was appended to the insert buffer (deferred placement).
  virtual void OnBufferAppend(edbms::TupleId tid) = 0;
  /// A buffer flush completed: `placed` tuples left the buffer for the chain
  /// (the individual placements were reported via OnAdd/OnInit/OnSplit).
  virtual void OnBufferFlush(size_t placed) = 0;
};

/// Partial order partitions POPᶜₖ of one attribute (Def. 4.2): an ordered
/// chain of disjoint tuple groups P₁ ↦ P₂ ↦ … ↦ Pₖ such that all plain values
/// in each group are strictly on one side of each neighbouring group — in an
/// unknown global direction. This is the *entire* content of the PRKB for an
/// attribute (Sec. 4): the service provider derives it purely from observed
/// QPF outputs.
///
/// Alongside the chain we remember, per known separating point, the trapdoor
/// that created it (a "cut"). Cuts power insertion handling (Sec. 7.1): an
/// O(lg k) binary search re-evaluates old trapdoors on the new tuple.
///
/// Membership is stored compressed (MemberSet): that is the state of record
/// for snapshots, the WAL and the footprint. Beside it the chain keeps a
/// derived *chain-ordered layout* (DESIGN.md §13): every covered tuple in one
/// flat array, partition by partition in chain order and ascending within
/// each partition, so any run of partitions — a sure answer — is one
/// contiguous slice. All selection-path reads go through tuples()/size_at();
/// both orders are deterministic functions of the chain state.
class Pop {
 public:
  static constexpr PartitionId kNoPartition =
      std::numeric_limits<PartitionId>::max();
  static constexpr uint64_t kNoCut = std::numeric_limits<uint64_t>::max();

  /// A known separating point and the encrypted predicate that produced it.
  struct Cut {
    uint64_t id = kNoCut;
    /// Partition immediately left of the cut in chain order.
    PartitionId left_pid = kNoPartition;
    edbms::Trapdoor trapdoor;
    /// Fingerprint of `trapdoor`, cached so fast-path invalidation and
    /// insert-time evaluation dedup never re-hash the blob.
    TrapdoorFp fp;
    /// For comparison trapdoors: the QPF output of every tuple on the
    /// chain-left side of this cut.
    bool left_label = false;
    /// For BETWEEN trapdoors: the cut at the other end of the satisfied
    /// region, or kNoCut when that end never produced a split.
    uint64_t sibling = kNoCut;
    bool dropped = false;

    /// A cut can steer an insertion search iff its trapdoor output can be
    /// translated into a chain side: always true for comparisons, and true
    /// for BETWEEN only when both ends are known.
    bool UsableForInsert() const {
      return !dropped && (trapdoor.kind == edbms::PredicateKind::kComparison ||
                          sibling != kNoCut);
    }
  };

  Pop() = default;

  /// initPRKB (Sec. 4): one big partition holding tuples 0..n-1.
  void InitSingle(size_t num_tuples);
  /// initPRKB over an explicit tuple set (e.g. live rows only).
  void InitSingle(const std::vector<edbms::TupleId>& tuples);

  /// --- Chain geometry -----------------------------------------------------

  /// k — number of partitions.
  size_t k() const { return chain_.size(); }
  /// Number of tuples currently covered by the chain.
  size_t num_tuples() const { return num_tuples_; }

  PartitionId pid_at(size_t pos) const { return chain_[pos]; }
  size_t pos_of(PartitionId pid) const { return pos_[pid]; }
  /// One past the largest partition id ever issued (live or retired): the
  /// size of a table indexed by PartitionId.
  size_t pid_capacity() const { return slots_.size(); }
  const MemberSet& members(PartitionId pid) const {
    return slots_[pid].members;
  }
  const MemberSet& members_at(size_t pos) const {
    return members(chain_[pos]);
  }
  /// The tuples of the partitions at chain positions [begin_pos, end_pos):
  /// one contiguous slice of the layout, partition by partition in chain
  /// order, ascending within each. Valid until the next chain mutation.
  std::span<const edbms::TupleId> tuples(size_t begin_pos,
                                         size_t end_pos) const {
    return std::span<const edbms::TupleId>(order_).subspan(
        start_[begin_pos], start_[end_pos] - start_[begin_pos]);
  }
  /// Number of tuples in the partition at chain position `pos`.
  size_t size_at(size_t pos) const { return start_[pos + 1] - start_[pos]; }
  /// Partition currently holding `tid`, or kNoPartition.
  PartitionId partition_of(edbms::TupleId tid) const {
    return tid < part_of_.size() ? part_of_[tid] : kNoPartition;
  }

  /// --- updatePRKB ----------------------------------------------------------

  /// Splits partition `pid` into (left_members, right_members) in chain
  /// order, recording `td` as the new cut between them. `left_label` is the
  /// QPF output of the left group under `td` (used by insertion handling for
  /// comparison trapdoors). Both halves must be non-empty and together equal
  /// the old membership. Returns the new cut's id.
  uint64_t SplitPartition(PartitionId pid,
                          const std::vector<edbms::TupleId>& left_members,
                          const std::vector<edbms::TupleId>& right_members,
                          const edbms::Trapdoor& td, bool left_label);
  /// Set-op form: the halves are already compressed (WAL replay ships only
  /// the left delta and computes right = old \ left).
  uint64_t SplitPartitionSets(PartitionId pid, MemberSet left_members,
                              MemberSet right_members,
                              const edbms::Trapdoor& td, bool left_label);

  /// Marks two cuts as the two ends of one BETWEEN trapdoor's region.
  void LinkBetweenCuts(uint64_t low_cut, uint64_t high_cut);

  /// Inserts a tuple into an existing partition (insertion handling decides
  /// which one). If the tuple is currently buffered it is drained from the
  /// buffer first — this single rule makes live flushes and WAL replay agree
  /// on the buffer state without a dedicated per-tuple flush record.
  void AddTuple(PartitionId pid, edbms::TupleId tid);
  /// AddTuple for every (partition, tuple) pair, in order — the same
  /// memberships and listener records — but the layout is rebuilt once for
  /// the whole batch (one merge pass, O(n + k)) instead of once per tuple.
  void AddTuples(
      const std::vector<std::pair<PartitionId, edbms::TupleId>>& placements);

  /// Deletion handling (Sec. 7.2): drops the tuple; an emptied partition is
  /// removed from the chain and redundant cuts are retired. A tuple that is
  /// still buffered is simply dropped from the buffer (it never reached the
  /// chain, so no chain knowledge changes).
  void RemoveTuple(edbms::TupleId tid);

  /// --- Deferred inserts (DESIGN.md §14) -------------------------------------

  /// Appends a tuple to the insert buffer: O(1), zero QPF, no chain change.
  /// The tuple must not be covered by the chain or already buffered.
  void BufferAppend(edbms::TupleId tid);

  /// Records that a flush drained `placed` tuples (fires OnBufferFlush so the
  /// WAL can mark the flush boundary). The placements themselves must already
  /// have happened via AddTuple/InitSingle/SplitPartition.
  void NoteBufferFlushed(size_t placed);

  const InsertBuffer& insert_buffer() const { return buffer_; }

  /// Merges the partitions at chain positions `pos` and `pos+1` (knowledge
  /// coarsening; used when an insertion cannot side a tuple between two
  /// partitions separated only by an unusable cut). Returns the surviving
  /// partition id.
  PartitionId MergeAt(size_t pos);

  /// --- Cuts ----------------------------------------------------------------

  const std::vector<Cut>& cuts() const { return cuts_; }
  const Cut* FindCut(uint64_t id) const;
  /// Chain position of a cut: it lies between positions CutPos()-1 and
  /// CutPos(). Always in [1, k-1] for live cuts.
  size_t CutPos(const Cut& cut) const { return pos_[cut.left_pid] + 1; }
  /// The live cut at chain boundary `pos` (the one with CutPos() == pos), or
  /// nullptr. O(1): every boundary holds at most one live cut (DESIGN.md
  /// §7), and each partition keeps a back-reference to the cut on its right.
  /// `pos` must be in [1, k-1].
  const Cut* CutAt(size_t pos) const {
    const uint32_t idx = slots_[chain_[pos - 1]].right_cut;
    return idx == kNoCutIdx ? nullptr : &cuts_[idx];
  }

  /// --- Repeat-predicate fast path -----------------------------------------

  /// A cached zero-QPF answer anchor: the cut(s) the fingerprinted trapdoor
  /// itself carved into the chain. Comparison entries hold one cut (the
  /// satisfied side follows from its left_label); BETWEEN entries hold both
  /// sibling cuts (the satisfied band lies between them). Entries are never
  /// anchored at another predicate's cut: an alias anchor goes stale when an
  /// insert lands in the value gap between the two thresholds, whereas an
  /// own cut stays exact because insertion placement evaluates the very same
  /// trapdoor when siding the boundary.
  struct FastPathEntry {
    uint64_t cut_id = kNoCut;
    uint64_t cut_id2 = kNoCut;  // kNoCut for comparison entries
  };

  /// Records the cut a comparison trapdoor created. `cut_id`'s Cut must
  /// carry this fingerprint (own-cut invariant).
  void RememberComparison(const TrapdoorFp& fp, uint64_t cut_id);
  /// Records the two linked sibling cuts a BETWEEN trapdoor created.
  void RememberBetween(const TrapdoorFp& fp, uint64_t low_cut,
                       uint64_t high_cut);
  /// nullptr when the fingerprint is unknown. Entries whose anchor cuts get
  /// dropped are pruned eagerly by the mutating operations, so lookups never
  /// mutate and are safe under a shared lock.
  const FastPathEntry* LookupFastPath(const TrapdoorFp& fp) const;
  /// Zero-QPF answer: concatenates the members of every partition on the
  /// satisfied side of the entry's cut(s), each in ascending tuple order.
  std::vector<edbms::TupleId> AssembleFastPath(const FastPathEntry& e) const;
  size_t fast_path_entries() const { return fp_cache_.size(); }

  /// --- Persistence hooks ----------------------------------------------------

  /// Attaches (or detaches, with nullptr) a mutation observer. Not part of
  /// the serialised state; survives moves, not snapshot round trips.
  void set_listener(PopListener* listener) { listener_ = listener; }
  PopListener* listener() const { return listener_; }

  /// --- Accounting / diagnostics -------------------------------------------

  /// Index footprint (Table 3): compressed partition membership plus chain
  /// order, retained trapdoors and the fast-path cache.
  size_t SizeBytes() const;
  /// Compressed membership bytes alone (the MemberSet payloads).
  size_t MembershipBytes() const;
  /// What the membership would cost as raw vector<TupleId> storage —
  /// the pre-compression representation Table 3 originally reported.
  size_t RawMembershipBytes() const { return num_tuples_ * sizeof(edbms::TupleId); }
  /// Total MemberSet containers across the chain (memberset.containers).
  size_t MembershipContainers() const;

  /// Structural invariant check (chain/pos/membership/layout consistency).
  Status Validate() const;

  /// Serialises the chain and its cuts (prkb_io.cc). Deterministic: members
  /// encode in ascending order, the fast-path cache fingerprint-sorted, and
  /// cut ids are preserved verbatim — so equal knowledge states encode to
  /// equal bytes, which is what the crash-recovery differential test checks.
  void EncodeTo(Encoder* enc) const;
  /// Rebuilds the chain from `dec`; returns Corruption on malformed input.
  Status DecodeFrom(Decoder* dec);

  /// Test oracle: checks the paper's knowledge invariant against ground
  /// truth — each partition is a contiguous run of the tuples ordered by
  /// plain value, and the chain is that order or its exact reverse.
  /// `plain_of[tid]` must be valid for every covered tuple.
  Status ValidateAgainstPlain(const std::vector<edbms::Value>& plain_of) const;

 private:
  static constexpr uint32_t kNoCutIdx = std::numeric_limits<uint32_t>::max();

  struct Slot {
    MemberSet members;
    bool live = false;
    /// Index into cuts_ of the live cut immediately right of this partition
    /// (the cut whose left_pid is this slot), or kNoCutIdx. Derived state,
    /// like pos_: rebuilt by DecodeFrom, not serialised, not in SizeBytes.
    uint32_t right_cut = kNoCutIdx;
  };

  PartitionId NewPartition(MemberSet members);
  void RebuildPositionsFrom(size_t pos);
  /// Membership bookkeeping of AddTuple, without touching the layout.
  void AddMember(PartitionId pid, edbms::TupleId tid);
  /// Rebuilds order_/start_ from the memberships (decode).
  void RebuildLayout();
  /// Adds `delta` to every layout offset right of chain position `pos`.
  void ShiftStartsAfter(size_t pos, int delta);
  /// Makes room for `extra` more layout entries, growing by an eighth
  /// rather than doubling: the layout is process memory the footprint
  /// metrics leave out, so its slack is kept small.
  void ReserveLayout(size_t extra);
  void DropCut(size_t cut_idx);
  /// Moves live cut `cut_idx` onto the boundary right of `dest`, which must
  /// hold no live cut.
  void Reanchor(size_t cut_idx, PartitionId dest);

  std::vector<Slot> slots_;             // by pid
  std::vector<PartitionId> chain_;      // pos -> pid
  std::vector<uint32_t> pos_;           // pid -> pos
  std::vector<PartitionId> part_of_;    // tid -> pid
  // Chain-ordered layout (derived, like pos_ and part_of_: not serialised,
  // not in SizeBytes). order_ holds every covered tuple, partition by
  // partition in chain order, ascending within each; the partition at
  // position p owns order_[start_[p], start_[p+1]). start_ has k+1 entries.
  std::vector<edbms::TupleId> order_;
  std::vector<uint32_t> start_ = {0};
  std::vector<Cut> cuts_;
  std::unordered_map<uint64_t, size_t> cut_index_;  // cut id -> index
  std::unordered_map<TrapdoorFp, FastPathEntry, TrapdoorFpHash> fp_cache_;
  InsertBuffer buffer_;  // tuples stored but not yet placed on the chain
  uint64_t next_cut_id_ = 1;
  size_t num_tuples_ = 0;
  PopListener* listener_ = nullptr;
};

}  // namespace prkb::core

#endif  // PRKB_PRKB_POP_H_
