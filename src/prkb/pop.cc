#include "prkb/pop.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"

namespace prkb::core {

using edbms::TupleId;
using edbms::Value;

namespace {

/// Chain-evolution telemetry: splits are the PRKB's knowledge growth, merges
/// its deliberate coarsening; chain_k_after_split samples k as it grows
/// (docs/OBSERVABILITY.md).
struct PopMetrics {
  obs::Counter* splits;
  obs::Counter* merges;
  obs::LatencyHistogram* chain_k_after_split;

  static const PopMetrics& Get() {
    static const PopMetrics m = {
        obs::MetricsRegistry::Global().GetCounter("prkb.splits"),
        obs::MetricsRegistry::Global().GetCounter("prkb.merges"),
        obs::MetricsRegistry::Global().GetHistogram(
            "prkb.chain_k_after_split"),
    };
    return m;
  }
};

}  // namespace

void Pop::InitSingle(size_t num_tuples) {
  std::vector<TupleId> all(num_tuples);
  for (size_t i = 0; i < num_tuples; ++i) all[i] = static_cast<TupleId>(i);
  InitSingle(all);
}

void Pop::InitSingle(const std::vector<TupleId>& tuples) {
  slots_.clear();
  chain_.clear();
  pos_.clear();
  part_of_.clear();
  cuts_.clear();
  cut_index_.clear();
  fp_cache_.clear();
  next_cut_id_ = 1;
  num_tuples_ = tuples.size();
  // The insert buffer survives a re-init minus the tuples the new chain
  // covers: a flush seeding an empty chain inits with the first buffered
  // tuple and must not lose the rest, while a full re-enable covers every
  // live tuple and so drains the buffer completely.
  for (TupleId tid : tuples) buffer_.Remove(tid);
  if (tuples.empty()) {
    // Empty table: empty chain — still announced, so a WAL replays the
    // enable and recovers an empty-but-enabled attribute.
    if (listener_ != nullptr) listener_->OnInit(MemberSet());
    return;
  }

  const PartitionId pid = NewPartition(MemberSet::FromTuples(tuples));
  chain_.push_back(pid);
  pos_.resize(1, 0);
  for (TupleId tid : tuples) {
    if (tid >= part_of_.size()) part_of_.resize(tid + 1, kNoPartition);
    part_of_[tid] = pid;
  }
  if (listener_ != nullptr) listener_->OnInit(slots_[pid].members);
}

PartitionId Pop::NewPartition(MemberSet members) {
  const PartitionId pid = static_cast<PartitionId>(slots_.size());
  slots_.push_back(Slot{std::move(members), /*live=*/true});
  return pid;
}

void Pop::RebuildPositionsFrom(size_t pos) {
  pos_.resize(slots_.size());
  for (size_t p = pos; p < chain_.size(); ++p) {
    pos_[chain_[p]] = static_cast<uint32_t>(p);
  }
}

uint64_t Pop::SplitPartition(PartitionId pid,
                             const std::vector<TupleId>& left_members,
                             const std::vector<TupleId>& right_members,
                             const edbms::Trapdoor& td, bool left_label) {
  return SplitPartitionSets(pid, MemberSet::FromTuples(left_members),
                            MemberSet::FromTuples(right_members), td,
                            left_label);
}

uint64_t Pop::SplitPartitionSets(PartitionId pid, MemberSet left_members,
                                 MemberSet right_members,
                                 const edbms::Trapdoor& td, bool left_label) {
  assert(pid < slots_.size() && slots_[pid].live);
  assert(!left_members.Empty() && !right_members.Empty());
  assert(left_members.Size() + right_members.Size() ==
         slots_[pid].members.Size());

  const size_t pos = pos_[pid];
  // The RIGHT half keeps the old pid so that cuts recorded as "immediately
  // left of X" for partitions right of the split stay correct, and so that
  // the cut previously left of `pid` remains left of the new left half's
  // left neighbour... (the left half is inserted just before `pid`).
  slots_[pid].members = std::move(right_members);
  const PartitionId left_pid = NewPartition(std::move(left_members));
  slots_[left_pid].members.ForEach(
      [&](TupleId tid) { part_of_[tid] = left_pid; });

  chain_.insert(chain_.begin() + static_cast<ptrdiff_t>(pos), left_pid);
  RebuildPositionsFrom(pos);

  Cut cut;
  cut.id = next_cut_id_++;
  cut.left_pid = left_pid;
  cut.trapdoor = td;
  cut.fp = FingerprintTrapdoor(td);
  cut.left_label = left_label;
  // The boundary is new (the left half is a fresh slot), so no live cut can
  // already sit on it.
  slots_[left_pid].right_cut = static_cast<uint32_t>(cuts_.size());
  cut_index_[cut.id] = cuts_.size();
  cuts_.push_back(std::move(cut));
  PopMetrics::Get().splits->Add(1);
  PopMetrics::Get().chain_k_after_split->Record(chain_.size());
  if (listener_ != nullptr) {
    listener_->OnSplit(pos, slots_[left_pid].members, td, left_label);
  }
  return cuts_.back().id;
}

void Pop::LinkBetweenCuts(uint64_t low_cut, uint64_t high_cut) {
  auto lo = cut_index_.find(low_cut);
  auto hi = cut_index_.find(high_cut);
  assert(lo != cut_index_.end() && hi != cut_index_.end());
  cuts_[lo->second].sibling = high_cut;
  cuts_[hi->second].sibling = low_cut;
  if (listener_ != nullptr) listener_->OnLinkBetween(low_cut, high_cut);
}

void Pop::AddTuple(PartitionId pid, TupleId tid) {
  assert(pid < slots_.size() && slots_[pid].live);
  // Placing a buffered tuple drains it from the buffer. WAL replay relies on
  // this: a flush logs plain kAdd records, and replaying them leaves exactly
  // the not-yet-placed suffix buffered — no per-tuple flush record needed.
  buffer_.Remove(tid);
  if (tid >= part_of_.size()) part_of_.resize(tid + 1, kNoPartition);
  assert(part_of_[tid] == kNoPartition);
  slots_[pid].members.Add(tid);
  part_of_[tid] = pid;
  ++num_tuples_;
  if (listener_ != nullptr) listener_->OnAdd(pos_[pid], tid);
}

void Pop::DropCut(size_t cut_idx) {
  Cut& cut = cuts_[cut_idx];
  if (cut.dropped) return;
  // The fast-path entry keyed by this cut's fingerprint (if any) anchors
  // through it (own-cut invariant), so it dies with the cut. BETWEEN entries
  // reference two cuts sharing one fingerprint; dropping either end erases
  // the entry.
  if (auto it = fp_cache_.find(cut.fp); it != fp_cache_.end() &&
      (it->second.cut_id == cut.id || it->second.cut_id2 == cut.id)) {
    fp_cache_.erase(it);
  }
  cut.dropped = true;
  assert(slots_[cut.left_pid].right_cut == cut_idx);
  slots_[cut.left_pid].right_cut = kNoCutIdx;
  if (cut.sibling != kNoCut) {
    auto it = cut_index_.find(cut.sibling);
    if (it != cut_index_.end()) cuts_[it->second].sibling = kNoCut;
  }
  cut.sibling = kNoCut;
}

void Pop::RemoveTuple(TupleId tid) {
  // A still-buffered tuple never reached the chain: dropping it changes no
  // chain knowledge, only the pending work set.
  if (buffer_.Remove(tid)) {
    if (listener_ != nullptr) listener_->OnRemove(tid);
    return;
  }
  assert(tid < part_of_.size() && part_of_[tid] != kNoPartition);
  const PartitionId pid = part_of_[tid];
  MemberSet& members = slots_[pid].members;
  const bool removed = members.Remove(tid);
  assert(removed);
  (void)removed;
  part_of_[tid] = kNoPartition;
  --num_tuples_;
  if (listener_ != nullptr) listener_->OnRemove(tid);

  if (!members.Empty()) return;

  // The partition emptied: remove it from the chain (POPᶜₖ becomes
  // POPᶜₖ₋₁, Sec. 7.2) and repair cut anchors.
  const size_t pos = pos_[pid];
  slots_[pid].live = false;
  chain_.erase(chain_.begin() + static_cast<ptrdiff_t>(pos));
  RebuildPositionsFrom(pos);

  if (const uint32_t i = slots_[pid].right_cut; i != kNoCutIdx) {
    if (pos == 0) {
      // The cut slid off the chain head; it separates nothing any more.
      DropCut(i);
    } else {
      // Re-anchoring onto a boundary that already hosts a live cut would
      // stack two different thresholds on one boundary; a later insert into
      // the emptied value gap could then satisfy one cut's label invariant
      // and silently violate the other's. Coarsen instead of corrupting:
      // retire the sliding cut.
      const PartitionId dest = chain_[pos - 1];
      if (slots_[dest].right_cut != kNoCutIdx) {
        DropCut(i);
      } else {
        Reanchor(i, dest);
      }
    }
  }
  // A cut that ended up on the chain tail edge separates nothing either.
  if (!chain_.empty()) {
    if (const uint32_t i = slots_[chain_.back()].right_cut; i != kNoCutIdx) {
      DropCut(i);
    }
  }
}

void Pop::Reanchor(size_t cut_idx, PartitionId dest) {
  Cut& cut = cuts_[cut_idx];
  assert(slots_[dest].right_cut == kNoCutIdx);
  slots_[cut.left_pid].right_cut = kNoCutIdx;
  slots_[dest].right_cut = static_cast<uint32_t>(cut_idx);
  cut.left_pid = dest;
}

PartitionId Pop::MergeAt(size_t pos) {
  assert(pos + 1 < chain_.size());
  PopMetrics::Get().merges->Add(1);
  const PartitionId left = chain_[pos];
  const PartitionId right = chain_[pos + 1];
  MemberSet& lm = slots_[left].members;
  MemberSet& rm = slots_[right].members;
  rm.ForEach([&](TupleId tid) { part_of_[tid] = left; });
  lm.UnionWith(rm);
  rm.Clear();
  slots_[right].live = false;
  chain_.erase(chain_.begin() + static_cast<ptrdiff_t>(pos) + 1);
  RebuildPositionsFrom(pos);

  // Cuts anchored at `left` used to separate left|right; their separating
  // point is now strictly inside the merged partition, so they must not
  // steer future insertions — retire them. Cuts anchored at `right`
  // separated right|right-neighbour; that boundary survives as
  // merged|right-neighbour, so re-anchor them to the surviving id.
  if (const uint32_t i = slots_[left].right_cut; i != kNoCutIdx) DropCut(i);
  if (const uint32_t i = slots_[right].right_cut; i != kNoCutIdx) {
    Reanchor(i, left);
  }
  if (listener_ != nullptr) listener_->OnMerge(pos);
  return left;
}

void Pop::BufferAppend(TupleId tid) {
  assert(partition_of(tid) == kNoPartition);
  buffer_.Append(tid);
  if (listener_ != nullptr) listener_->OnBufferAppend(tid);
}

void Pop::NoteBufferFlushed(size_t placed) {
  assert(buffer_.Empty());
  if (listener_ != nullptr) listener_->OnBufferFlush(placed);
}

const Pop::Cut* Pop::FindCut(uint64_t id) const {
  auto it = cut_index_.find(id);
  if (it == cut_index_.end()) return nullptr;
  const Cut& cut = cuts_[it->second];
  return cut.dropped ? nullptr : &cut;
}

void Pop::RememberComparison(const TrapdoorFp& fp, uint64_t cut_id) {
  assert(FindCut(cut_id) != nullptr && FindCut(cut_id)->fp == fp);
  fp_cache_.insert_or_assign(fp, FastPathEntry{cut_id, kNoCut});
  if (listener_ != nullptr) listener_->OnRememberComparison(cut_id);
}

void Pop::RememberBetween(const TrapdoorFp& fp, uint64_t low_cut,
                          uint64_t high_cut) {
  assert(FindCut(low_cut) != nullptr && FindCut(low_cut)->fp == fp);
  assert(FindCut(high_cut) != nullptr && FindCut(high_cut)->fp == fp);
  fp_cache_.insert_or_assign(fp, FastPathEntry{low_cut, high_cut});
  if (listener_ != nullptr) listener_->OnRememberBetween(low_cut, high_cut);
}

const Pop::FastPathEntry* Pop::LookupFastPath(const TrapdoorFp& fp) const {
  auto it = fp_cache_.find(fp);
  return it == fp_cache_.end() ? nullptr : &it->second;
}

std::vector<TupleId> Pop::AssembleFastPath(const FastPathEntry& e) const {
  const Cut* cut = FindCut(e.cut_id);
  assert(cut != nullptr);
  size_t begin, end;
  if (e.cut_id2 == kNoCut) {
    // Comparison: the satisfied run is the side whose homogeneous QPF
    // output is 1 — chain-left iff the left label is 1.
    const size_t cpos = CutPos(*cut);
    begin = cut->left_label ? 0 : cpos;
    end = cut->left_label ? cpos : chain_.size();
  } else {
    // BETWEEN: the satisfied band lies between the two sibling cuts. Chain
    // mutations can shuffle which end sits lower, so order by position.
    const Cut* cut2 = FindCut(e.cut_id2);
    assert(cut2 != nullptr);
    const size_t a = CutPos(*cut);
    const size_t b = CutPos(*cut2);
    begin = std::min(a, b);
    end = std::max(a, b);
  }
  size_t n = 0;
  for (size_t p = begin; p < end; ++p) n += slots_[chain_[p]].members.Size();
  std::vector<TupleId> out;
  out.reserve(n);
  for (size_t p = begin; p < end; ++p) {
    slots_[chain_[p]].members.AppendTo(&out);
  }
  return out;
}

size_t Pop::MembershipBytes() const {
  size_t bytes = 0;
  for (PartitionId pid : chain_) bytes += slots_[pid].members.SizeBytes();
  return bytes;
}

size_t Pop::MembershipContainers() const {
  size_t n = 0;
  for (PartitionId pid : chain_) n += slots_[pid].members.ContainerCount();
  return n;
}

size_t Pop::SizeBytes() const {
  size_t bytes = 0;
  // Partition membership, compressed (Table 3 compares this against the
  // 4 bytes/tuple the raw representation pays; RawMembershipBytes()).
  bytes += MembershipBytes();
  // Chain order.
  bytes += chain_.size() * sizeof(PartitionId);
  // Retained trapdoors for update handling (the paper's "slight increase").
  for (const Cut& cut : cuts_) {
    if (cut.dropped) continue;
    bytes += sizeof(Cut) + cut.trapdoor.blob.size();
  }
  // Repeat-predicate fast-path cache.
  bytes += fp_cache_.size() * (sizeof(TrapdoorFp) + sizeof(FastPathEntry));
  // Pending (buffered, not yet placed) inserts.
  bytes += buffer_.SizeBytes();
  return bytes;
}

Status Pop::Validate() const {
  size_t covered = 0;
  for (size_t p = 0; p < chain_.size(); ++p) {
    const PartitionId pid = chain_[p];
    if (pid >= slots_.size() || !slots_[pid].live) {
      return Status::Corruption("dead partition in chain");
    }
    if (pos_[pid] != p) return Status::Corruption("pos_ out of sync");
    if (slots_[pid].members.Empty()) {
      return Status::Corruption("empty partition in chain");
    }
    bool in_sync = true;
    slots_[pid].members.ForEach([&](TupleId tid) {
      if (tid >= part_of_.size() || part_of_[tid] != pid) in_sync = false;
      ++covered;
    });
    if (!in_sync) return Status::Corruption("part_of_ out of sync");
  }
  if (covered != num_tuples_) {
    return Status::Corruption("num_tuples_ out of sync");
  }
  for (size_t i = 0; i < cuts_.size(); ++i) {
    const Cut& cut = cuts_[i];
    if (cut.dropped) continue;
    if (cut.left_pid >= slots_.size() || !slots_[cut.left_pid].live) {
      return Status::Corruption("cut anchored at dead partition");
    }
    const size_t cpos = CutPos(cut);
    if (cpos < 1 || cpos > chain_.size() - 1) {
      return Status::Corruption("cut at chain edge");
    }
    // At most one live cut per boundary (DESIGN.md §7), and the partition's
    // back-reference names it.
    const uint32_t ref = slots_[cut.left_pid].right_cut;
    if (ref != i) {
      return ref < cuts_.size() && !cuts_[ref].dropped &&
                     cuts_[ref].left_pid == cut.left_pid
                 ? Status::Corruption("two live cuts share a boundary")
                 : Status::Corruption("cut back-reference out of sync");
    }
  }
  for (size_t pid = 0; pid < slots_.size(); ++pid) {
    const uint32_t ref = slots_[pid].right_cut;
    if (ref == kNoCutIdx) continue;
    if (ref >= cuts_.size() || cuts_[ref].dropped ||
        cuts_[ref].left_pid != pid) {
      return Status::Corruption("cut back-reference out of sync");
    }
  }
  for (const auto& [fp, e] : fp_cache_) {
    const Cut* cut = FindCut(e.cut_id);
    if (cut == nullptr || !(cut->fp == fp)) {
      return Status::Corruption("fast-path entry with dead or alien anchor");
    }
    if (e.cut_id2 != kNoCut) {
      const Cut* cut2 = FindCut(e.cut_id2);
      if (cut2 == nullptr || !(cut2->fp == fp)) {
        return Status::Corruption("fast-path entry with dead or alien anchor");
      }
    }
  }
  // Buffered tuples are pending, not covered: a tuple on both sides would be
  // double-counted by selections (scan + partition result).
  for (TupleId tid : buffer_.order()) {
    if (partition_of(tid) != kNoPartition) {
      return Status::Corruption("buffered tuple also on chain");
    }
  }
  return Status::Ok();
}

Status Pop::ValidateAgainstPlain(const std::vector<Value>& plain_of) const {
  PRKB_RETURN_IF_ERROR(Validate());
  if (chain_.empty()) return Status::Ok();

  struct Range {
    Value lo, hi;
  };
  std::vector<Range> ranges;
  ranges.reserve(chain_.size());
  for (PartitionId pid : chain_) {
    Value lo = std::numeric_limits<Value>::max();
    Value hi = std::numeric_limits<Value>::min();
    bool missing = false;
    slots_[pid].members.ForEach([&](TupleId tid) {
      if (tid >= plain_of.size()) {
        missing = true;
        return;
      }
      lo = std::min(lo, plain_of[tid]);
      hi = std::max(hi, plain_of[tid]);
    });
    if (missing) return Status::InvalidArgument("missing plain value");
    ranges.push_back(Range{lo, hi});
  }
  // The chain must be strictly increasing or strictly decreasing in value
  // ranges; adjacent ranges must not overlap (Def. 4.2).
  bool ok_inc = true, ok_dec = true;
  for (size_t p = 0; p + 1 < ranges.size(); ++p) {
    if (!(ranges[p].hi < ranges[p + 1].lo)) ok_inc = false;
    if (!(ranges[p].lo > ranges[p + 1].hi)) ok_dec = false;
  }
  if (!ok_inc && !ok_dec) {
    return Status::Corruption("chain is not a partial order of plain values");
  }
  return Status::Ok();
}

}  // namespace prkb::core
