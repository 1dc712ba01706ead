// Multi-dimensional range processing, "PRKB(MD)" (paper Sec. 6.2).
//
// A d-dimensional range arrives as 2d comparison trapdoors (two per
// attribute). One QFilter per trapdoor classifies, for that trapdoor, every
// chain partition as sure-True, sure-False or Not-Sure. Projected onto the
// grid of Fig. 5 this yields:
//   - the central region (True under every trapdoor): answers with 0 QPF;
//   - sure-False rows/columns: pruned with 0 QPF (Fig. 6b);
//   - the NS bands: only their tuples are tested, each only against the
//     trapdoors that are still undecided for its cell (Fig. 7), with
//     per-tuple short-circuiting on the first 0 and the partition-level
//     early-stop inference of Sec. 6.2 (a non-homogeneous NS partition
//     implies its partner is homogeneous).
//
// updatePRKB afterwards: every trapdoor whose non-homogeneous partition was
// fully resolved contributes a split. In the paper's (lazy) mode a partition
// whose scan was cut short by cross-dimension pruning is left unsplit; the
// eager option (ablation) finishes such scans with extra QPF uses.

#include <algorithm>
#include <cassert>
#include <iterator>
#include <span>
#include <unordered_map>
#include <utility>

#include "common/bitvector.h"
#include "edbms/batch_scan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "prkb/selection.h"

namespace prkb::core {
namespace {

using edbms::AttrId;
using edbms::Trapdoor;
using edbms::TupleId;

/// PRKB(MD) telemetry: band_tuples is the NS-band candidate set the grid
/// yields; evals is the QPF spend after free-classification pruning;
/// central_tuples is the zero-QPF central-region answer (docs/COST_MODEL.md).
struct MdMetrics {
  obs::Counter* invocations;
  obs::Counter* band_tuples;
  obs::Counter* evals;
  obs::Counter* pruned_free;
  obs::Counter* central_tuples;

  static const MdMetrics& Get() {
    static const MdMetrics m = {
        obs::MetricsRegistry::Global().GetCounter("md.invocations"),
        obs::MetricsRegistry::Global().GetCounter("md.band_tuples"),
        obs::MetricsRegistry::Global().GetCounter("md.evals"),
        obs::MetricsRegistry::Global().GetCounter("md.pruned_free"),
        obs::MetricsRegistry::Global().GetCounter("md.central_tuples"),
    };
    return m;
  }
};

/// Per-trapdoor processing state.
struct PredCtx {
  const Trapdoor* td = nullptr;
  Pop* pop = nullptr;
  TrapdoorFp fp;
  QFilterResult filter;

  /// Known homogeneous QPF output per partition id (sure-True / sure-False
  /// partitions from QFilter, plus labels learned during the query): 1, 0,
  /// or -1 for unknown. Flat and pid-indexed, so classifying a tuple costs
  /// two array reads (partition_of, then this) rather than a hash lookup.
  std::vector<int8_t> label_by_pid;

  /// The (at most two) Not-Sure partitions.
  struct Ns {
    PartitionId pid = Pop::kNoPartition;
    /// Homogeneous label implied by the partner's non-homogeneity, or -1.
    int8_t known = -1;
    size_t t_count = 0, f_count = 0;
    std::unordered_map<TupleId, bool> outcome;
  };
  Ns ns[2];
  int ns_count = 0;

  int8_t LabelOf(PartitionId pid) const {
    return pid < label_by_pid.size() ? label_by_pid[pid] : -1;
  }
  /// Records `label` unless the partition already has one (the first
  /// evidence wins; later evidence in one query never contradicts it).
  /// Splits mint new pids mid-query, so the table grows on demand.
  void LearnLabel(PartitionId pid, int8_t label) {
    if (pid >= label_by_pid.size()) label_by_pid.resize(pid + 1, -1);
    if (label_by_pid[pid] == -1) label_by_pid[pid] = label;
  }
  bool outside_label(int idx) const {
    return idx == 0 ? filter.label_first : filter.label_last;
  }
  int NsIndexOf(PartitionId pid) const {
    for (int i = 0; i < ns_count; ++i) {
      if (ns[i].pid == pid) return i;
    }
    return -1;
  }
  /// Whether every tuple of partition `pid` is known to satisfy the
  /// trapdoor: a sure-True label, or an NS partition the partner inference
  /// resolved to 1.
  bool SureTrue(PartitionId pid) const {
    const int idx = NsIndexOf(pid);
    return LabelOf(pid) == 1 || (idx >= 0 && ns[idx].known == 1);
  }
  /// The chain-layout slice of partition `pid`.
  std::span<const TupleId> TuplesOf(PartitionId pid) const {
    const size_t pos = pop->pos_of(pid);
    return pop->tuples(pos, pos + 1);
  }
  size_t SizeOf(PartitionId pid) const {
    return pop->size_at(pop->pos_of(pid));
  }
};

/// Books one observed QPF output into the context: memoises the bit, updates
/// the partition's T/F tallies and fires the early-stop inference of Sec. 6.2
/// (a non-homogeneous NS partition implies its partner is homogeneous).
void RecordOutcome(PredCtx* pc, TupleId tid, bool out) {
  const PartitionId pid = pc->pop->partition_of(tid);
  const int idx = pc->NsIndexOf(pid);
  assert(idx >= 0);
  PredCtx::Ns& ns = pc->ns[idx];
  if (!ns.outcome.emplace(tid, out).second) return;  // already known
  (out ? ns.t_count : ns.f_count)++;
  if (ns.t_count > 0 && ns.f_count > 0 && pc->ns_count == 2) {
    // This partition is the separating one; the partner is homogeneous with
    // its outside label (early-stop inference, Sec. 6.2).
    const int partner = 1 - idx;
    if (pc->ns[partner].known == -1) {
      pc->ns[partner].known = pc->outside_label(partner) ? 1 : 0;
    }
  }
}

/// Evaluates `td` on `tid` for this context, spending a QPF use only when the
/// outcome is not already implied. Returns 0/1.
bool EvalForTuple(PredCtx* pc, edbms::Edbms* db, TupleId tid) {
  const PartitionId pid = pc->pop->partition_of(tid);
  if (const int8_t label = pc->LabelOf(pid); label != -1) return label == 1;
  const int idx = pc->NsIndexOf(pid);
  assert(idx >= 0);
  PredCtx::Ns& ns = pc->ns[idx];
  if (ns.known != -1) return ns.known == 1;
  if (auto it = ns.outcome.find(tid); it != ns.outcome.end()) {
    return it->second;
  }
  MdMetrics::Get().evals->Add(1);
  const bool out = db->Eval(*pc->td, tid);
  RecordOutcome(pc, tid, out);
  return out;
}

/// Tri-state classification of `tid` under `pc` without spending QPF:
/// 1 sure-true, 0 sure-false, -1 needs evaluation.
int8_t ClassifyTuple(const PredCtx& pc, TupleId tid) {
  const PartitionId pid = pc.pop->partition_of(tid);
  if (const int8_t label = pc.LabelOf(pid); label != -1) return label;
  const int idx = pc.NsIndexOf(pid);
  if (idx < 0) return 0;  // not covered by this chain (defensive)
  if (pc.ns[idx].known != -1) return pc.ns[idx].known;
  if (auto it = pc.ns[idx].outcome.find(tid); it != pc.ns[idx].outcome.end()) {
    return it->second ? 1 : 0;
  }
  return -1;
}

}  // namespace

std::vector<TupleId> PrkbIndex::RunMd(
    const std::vector<const Trapdoor*>& tds, const ProbeSchedOptions& sched) {
  assert(!tds.empty());
  const obs::ObsTracer::Span span("md.select");
  const MdMetrics& metrics = MdMetrics::Get();
  metrics.invocations->Add(1);

  // ---- Step 1: QFilter every trapdoor; classify partitions. ----
  // The fast-path consult runs first so only cache-missing dimensions filter;
  // those filters then share probe rounds (FusedQFilters) — d dimensions pay
  // the max, not the sum, of their search round trips.
  Rng rng = OpRng();
  std::vector<PredCtx> preds(tds.size());
  std::vector<size_t> filtered;
  std::vector<FusedFilterReq> filter_reqs;
  for (size_t i = 0; i < tds.size(); ++i) {
    PredCtx& pc = preds[i];
    pc.td = tds[i];
    pc.pop = &pops_.at(tds[i]->attr);
    if (pc.pop->k() == 0) return {};
    pc.label_by_pid.assign(pc.pop->pid_capacity(), -1);
    if (options_.fast_path) {
      pc.fp = FingerprintTrapdoor(*tds[i]);
      if (const Pop::FastPathEntry* e = pc.pop->LookupFastPath(pc.fp)) {
        // Already-cut trapdoor: every partition classifies for free off its
        // own cut — sure-T on the satisfied side, sure-F on the other. No
        // QFilter, no NS pair, zero QPF for this dimension.
        CacheMetrics::Get().hits->Add(1);
        const Pop::Cut* cut = pc.pop->FindCut(e->cut_id);
        const size_t cpos = pc.pop->CutPos(*cut);
        for (size_t pos = 0; pos < pc.pop->k(); ++pos) {
          const bool label = (pos < cpos) == cut->left_label;
          pc.label_by_pid[pc.pop->pid_at(pos)] = label ? 1 : 0;
        }
        pc.ns_count = 0;
        continue;
      }
      CacheMetrics::Get().misses->Add(1);
    }
    filtered.push_back(i);
    filter_reqs.push_back(FusedFilterReq{pc.pop, tds[i], &pc.filter});
  }
  FusedQFilters(filter_reqs, db_, &rng, sched);
  for (size_t i : filtered) {
    PredCtx& pc = preds[i];
    const size_t k = pc.pop->k();
    pc.ns[0].pid = pc.pop->pid_at(pc.filter.ns_a);
    pc.ns_count = 1;
    if (pc.filter.ns_b != pc.filter.ns_a) {
      pc.ns[1].pid = pc.pop->pid_at(pc.filter.ns_b);
      pc.ns_count = 2;
    }
    for (size_t pos = 0; pos < k; ++pos) {
      if (pos == pc.filter.ns_a || pos == pc.filter.ns_b) continue;
      bool label;
      if (pc.filter.boundary_case) {
        // Middle partitions share the common end label.
        label = pc.filter.label_first;
      } else {
        label = pos < pc.filter.ns_a ? pc.filter.label_first
                                     : pc.filter.label_last;
      }
      pc.label_by_pid[pc.pop->pid_at(pos)] = label ? 1 : 0;
    }
  }

  std::vector<TupleId> result;
  BitVector visited(db_->num_rows());
  const edbms::BatchPolicy policy = options_.scan_policy();

  // ---- Step 2: test tuples in the NS bands (Fig. 6b / Fig. 7). ----
  // Steps 2-4 never mutate a chain (splits wait for step 5), so each band's
  // layout slice stays valid while it is walked.
  BitVector won(db_->num_rows());  // batched path: a chunk's winners
  for (PredCtx& owner : preds) {
    for (int i = 0; i < owner.ns_count; ++i) {
      // The membership at classification time, in ascending tuple order.
      const std::span<const TupleId> members = owner.TuplesOf(owner.ns[i].pid);

      if (!policy.batched()) {
        // Scalar path: per tuple, cheap classification pass, then undecided
        // trapdoors in order with a stop at the first 0.
        for (TupleId tid : members) {
          if (visited.Get(tid)) continue;
          visited.Set(tid);
          metrics.band_tuples->Add(1);

          // Cheap pass: reject on any sure-false trapdoor, collect the
          // undecided ones.
          bool rejected = false;
          for (const PredCtx& pc : preds) {
            if (ClassifyTuple(pc, tid) == 0) {
              rejected = true;
              break;
            }
          }
          if (rejected) {
            metrics.pruned_free->Add(1);
            continue;
          }

          // Expensive pass: evaluate undecided trapdoors, stop at first 0.
          bool all_true = true;
          for (PredCtx& pc : preds) {
            if (ClassifyTuple(pc, tid) == 1) continue;
            if (!EvalForTuple(&pc, db_, tid)) {
              all_true = false;
              break;
            }
          }
          if (all_true) result.push_back(tid);
        }
        continue;
      }

      // Batched path: process the band in chunks of batch_size. Tuples of a
      // chunk advance in lockstep rounds — each round classifies every still-
      // alive tuple, groups the ones needing an evaluation by their first
      // undecided trapdoor, and ships one batch round trip per trapdoor.
      // Per-tuple short-circuiting is preserved exactly (a tuple rejected by
      // round r is never evaluated in round r+1); the partition-level early-
      // stop inference fires with at most one chunk of slack, because bits
      // already in flight within a batch are paid for.
      for (size_t base = 0; base < members.size();
           base += policy.batch_size) {
        const size_t end =
            std::min(members.size(), base + policy.batch_size);
        std::vector<TupleId> alive;
        alive.reserve(end - base);
        for (size_t m = base; m < end; ++m) {
          const TupleId tid = members[m];
          if (visited.Get(tid)) continue;
          visited.Set(tid);
          alive.push_back(tid);
        }
        metrics.band_tuples->Add(alive.size());

        while (!alive.empty()) {
          std::vector<std::vector<TupleId>> need(preds.size());
          std::vector<TupleId> waiting;
          for (TupleId tid : alive) {
            bool rejected = false;
            int first_undecided = -1;
            for (size_t p = 0; p < preds.size(); ++p) {
              const int8_t c = ClassifyTuple(preds[p], tid);
              if (c == 0) {
                rejected = true;
                break;
              }
              if (c == -1 && first_undecided < 0) {
                first_undecided = static_cast<int>(p);
              }
            }
            if (rejected) continue;
            if (first_undecided < 0) {
              won.Set(tid);  // sure-true under every trapdoor
              continue;
            }
            need[first_undecided].push_back(tid);
            waiting.push_back(tid);
          }
          alive = std::move(waiting);
          if (alive.empty()) break;
          for (size_t p = 0; p < preds.size(); ++p) {
            if (need[p].empty()) continue;
            metrics.evals->Add(need[p].size());
            const std::vector<uint8_t> bits =
                edbms::ScanTuples(db_, *preds[p].td, need[p], policy);
            for (size_t j = 0; j < need[p].size(); ++j) {
              RecordOutcome(&preds[p], need[p][j], bits[j] != 0);
            }
          }
        }
        // Winners in band order. Clearing each flag as it is emitted leaves
        // the array empty for the next chunk, whose slice may hold tuples
        // an earlier band already emitted.
        for (size_t m = base; m < end; ++m) {
          const TupleId tid = members[m];
          if (won.Get(tid)) {
            result.push_back(tid);
            won.Clear(tid);
          }
        }
      }
    }
  }

  // ---- Step 3: central region — sure-True under every trapdoor. ----
  // Every tuple of an NS partition was visited in step 2, so an unvisited
  // tuple is sure-True under a trapdoor iff its partition is. Trapdoors on
  // one chain combine position-wise into runs of partitions; on the chain
  // whose runs hold the fewest tuples the region is walked as contiguous
  // layout slices, each other chain contributes a tuple bitset of its runs,
  // and the walk keeps a tuple iff every bitset has it and step 2 did not.
  {
    struct ChainRuns {
      const Pop* pop;
      std::vector<uint8_t> sure;  // by position: sure-True under all its preds
      std::vector<std::pair<size_t, size_t>> runs;  // [begin, end) positions
      size_t tuples = 0;
    };
    std::vector<ChainRuns> chains;
    for (const PredCtx& pc : preds) {
      auto it =
          std::find_if(chains.begin(), chains.end(),
                       [&](const ChainRuns& c) { return c.pop == pc.pop; });
      if (it == chains.end()) {
        chains.push_back(ChainRuns{pc.pop, std::vector<uint8_t>(pc.pop->k(), 1),
                                   {}, 0});
        it = std::prev(chains.end());
      }
      for (size_t pos = 0; pos < pc.pop->k(); ++pos) {
        if (it->sure[pos] != 0 && !pc.SureTrue(pc.pop->pid_at(pos))) {
          it->sure[pos] = 0;
        }
      }
    }
    size_t lead = 0;
    for (size_t c = 0; c < chains.size(); ++c) {
      ChainRuns& ch = chains[c];
      for (size_t pos = 0; pos < ch.sure.size(); ++pos) {
        if (ch.sure[pos] == 0) continue;
        if (!ch.runs.empty() && ch.runs.back().second == pos) {
          ++ch.runs.back().second;
        } else {
          ch.runs.emplace_back(pos, pos + 1);
        }
        ch.tuples += ch.pop->size_at(pos);
      }
      if (ch.tuples < chains[lead].tuples) lead = c;
    }
    BitVector keep;
    bool filtered_by_others = false;
    if (chains[lead].tuples > 0) {
      for (size_t c = 0; c < chains.size(); ++c) {
        if (c == lead) continue;
        BitVector mine(db_->num_rows());
        for (const auto& [b, e] : chains[c].runs) {
          for (TupleId tid : chains[c].pop->tuples(b, e)) mine.Set(tid);
        }
        if (filtered_by_others) {
          keep.And(mine);
        } else {
          keep = std::move(mine);
          filtered_by_others = true;
        }
      }
    }
    const size_t before = result.size();
    for (const auto& [b, e] : chains[lead].runs) {
      for (TupleId tid : chains[lead].pop->tuples(b, e)) {
        if (!visited.Get(tid) && (!filtered_by_others || keep.Get(tid))) {
          result.push_back(tid);
        }
      }
    }
    metrics.central_tuples->Add(result.size() - before);
  }

  // ---- Step 4 (optional, ablation): finish incomplete NS scans. ----
  if (options_.eager_md_update) {
    for (PredCtx& pc : preds) {
      for (int i = 0; i < pc.ns_count; ++i) {
        PredCtx::Ns& ns = pc.ns[i];
        if (ns.known != -1) continue;
        const std::span<const TupleId> members = pc.TuplesOf(ns.pid);
        if (!policy.batched()) {
          for (TupleId tid : members) {
            if (!ns.outcome.contains(tid)) EvalForTuple(&pc, db_, tid);
            if (ns.known != -1) break;  // partner inference fired
          }
          continue;
        }
        // Chunk-granular early stop: the inference check runs between batch
        // round trips instead of between scalar calls.
        for (size_t base = 0;
             base < members.size() && ns.known == -1;
             base += policy.batch_size) {
          const size_t end =
              std::min(members.size(), base + policy.batch_size);
          std::vector<TupleId> missing;
          for (size_t m = base; m < end; ++m) {
            if (!ns.outcome.contains(members[m])) {
              missing.push_back(members[m]);
            }
          }
          if (missing.empty()) continue;
          const std::vector<uint8_t> bits =
              edbms::ScanTuples(db_, *pc.td, missing, policy);
          for (size_t j = 0; j < missing.size(); ++j) {
            RecordOutcome(&pc, missing[j], bits[j] != 0);
          }
        }
      }
    }
  }

  // ---- Step 5: updatePRKB. ----
  for (PredCtx& pc : preds) {
    for (int i = 0; i < pc.ns_count; ++i) {
      PredCtx::Ns& ns = pc.ns[i];
      if (ns.known != -1) {
        pc.LearnLabel(ns.pid, ns.known);
        continue;
      }
      if (ns.t_count == 0 || ns.f_count == 0) {
        // Homogeneous as far as observed. Record the label only on full
        // coverage (an unscanned remainder could still differ).
        if (ns.outcome.size() == pc.SizeOf(ns.pid)) {
          pc.LearnLabel(ns.pid, ns.t_count > 0 ? 1 : 0);
        }
        continue;
      }
      // Mixed. Group outcomes by *current* partition: an earlier split (by
      // the sibling trapdoor of the same attribute) may have fragmented the
      // original NS partition.
      std::unordered_map<PartitionId, std::pair<std::vector<TupleId>,
                                                std::vector<TupleId>>>
          groups;
      for (const auto& [tid, out] : ns.outcome) {
        auto& g = groups[pc.pop->partition_of(tid)];
        (out ? g.first : g.second).push_back(tid);
      }
      // First pass: record the labels of fully-covered homogeneous groups —
      // they are the orientation evidence the mixed group needs, regardless
      // of hash-map iteration order.
      for (auto& [pid, g] : groups) {
        auto& [t_members, f_members] = g;
        if (t_members.size() + f_members.size() != pc.SizeOf(pid) ||
            (!t_members.empty() && !f_members.empty())) {
          continue;
        }
        pc.LearnLabel(pid, t_members.empty() ? 0 : 1);
      }
      for (auto& [pid, g] : groups) {
        auto& [t_members, f_members] = g;
        if (t_members.size() + f_members.size() != pc.SizeOf(pid)) {
          continue;  // incomplete (lazy mode): cannot split safely
        }
        if (t_members.empty() || f_members.empty()) {
          continue;  // homogeneous: label recorded above
        }
        // The separating point is inside this fragment, so the partner NS
        // partition is homogeneous with its outside label.
        if (pc.ns_count == 2) {
          const int partner = 1 - i;
          pc.LearnLabel(pc.ns[partner].pid, pc.outside_label(partner) ? 1 : 0);
        }
        // Orient against a neighbour with a known label for this trapdoor.
        const size_t pos = pc.pop->pos_of(pid);
        const int8_t left_label =
            pos > 0 ? pc.LabelOf(pc.pop->pid_at(pos - 1)) : -1;
        const int8_t right_label =
            pos + 1 < pc.pop->k() ? pc.LabelOf(pc.pop->pid_at(pos + 1)) : -1;
        bool true_half_left;
        if (left_label != -1) {
          true_half_left = left_label == 1;
        } else if (right_label != -1) {
          true_half_left = right_label != 1;
        } else if (pc.pop->k() == 1) {
          true_half_left = false;  // first split: orientation is free
        } else {
          continue;  // no orientation evidence; leave unsplit
        }
        std::vector<TupleId> left =
            true_half_left ? std::move(t_members) : std::move(f_members);
        std::vector<TupleId> right =
            true_half_left ? std::move(f_members) : std::move(t_members);
        const uint64_t cut_id = pc.pop->SplitPartition(
            pid, std::move(left), std::move(right), *pc.td, true_half_left);
        // The split resolves this trapdoor's unique separating point, so the
        // whole chain now sides exactly on this cut — cacheable.
        if (options_.fast_path) pc.pop->RememberComparison(pc.fp, cut_id);
        // The halves now have known labels for every trapdoor that knew the
        // original partition; record ours and propagate the others.
        const PartitionId left_pid = pc.pop->pid_at(pos);
        pc.LearnLabel(left_pid, true_half_left ? 1 : 0);
        pc.LearnLabel(pid, true_half_left ? 0 : 1);
        for (PredCtx& other : preds) {
          // Partition ids are only meaningful within one chain: propagate to
          // the sibling trapdoors of the same attribute only.
          if (&other == &pc || other.pop != pc.pop) continue;
          if (const int8_t label = other.LabelOf(pid); label != -1) {
            other.LearnLabel(left_pid, label);
          }
        }
      }
    }
  }
  return result;
}

}  // namespace prkb::core
