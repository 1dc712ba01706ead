#include <algorithm>
#include <cassert>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "prkb/probe_sched.h"
#include "prkb/selection.h"

namespace prkb::core {
namespace {

using edbms::TupleId;

/// Insertion-handling telemetry: evals is the O(lg k) re-evaluation budget of
/// Sec. 7.1; coarsen_merges count the fallback that trades knowledge for
/// placeability; the update.buffer.* family tracks the deferred-insert path
/// (docs/COST_MODEL.md, docs/OBSERVABILITY.md).
struct UpdateMetrics {
  obs::Counter* placements;
  obs::Counter* evals;
  obs::Counter* coarsen_merges;
  obs::Counter* memo_hits;
  obs::Counter* buffer_appends;
  obs::Counter* buffer_flushes;
  obs::LatencyHistogram* flush_batch_size;

  static const UpdateMetrics& Get() {
    static const UpdateMetrics m = {
        obs::MetricsRegistry::Global().GetCounter("update.placements"),
        obs::MetricsRegistry::Global().GetCounter("update.evals"),
        obs::MetricsRegistry::Global().GetCounter("update.coarsen_merges"),
        obs::MetricsRegistry::Global().GetCounter("update.memo_hits"),
        obs::MetricsRegistry::Global().GetCounter("update.buffer.appends"),
        obs::MetricsRegistry::Global().GetCounter("update.buffer.flushes"),
        obs::MetricsRegistry::Global().GetHistogram(
            "update.buffer.flush_batch_size"),
    };
    return m;
  }
};

/// Inclusive range of chain positions.
struct Interval {
  size_t b, e;
  size_t size() const { return e - b + 1; }
};

size_t Total(const std::vector<Interval>& ivs) {
  size_t n = 0;
  for (const auto& iv : ivs) n += iv.size();
  return n;
}

/// Intersects `ivs` with [b, e] (inclusive). Pass e < b for an empty range.
std::vector<Interval> Clip(const std::vector<Interval>& ivs, size_t b,
                           size_t e) {
  std::vector<Interval> out;
  if (e + 1 <= b && e < b) {
    // empty clip range
  }
  for (const auto& iv : ivs) {
    const size_t nb = std::max(iv.b, b);
    const size_t ne = std::min(iv.e, e);
    if (nb <= ne && b <= e) out.push_back(Interval{nb, ne});
  }
  return out;
}

/// Union of two disjoint clip results against complementary ranges.
std::vector<Interval> ClipComplement(const std::vector<Interval>& ivs,
                                     size_t b, size_t e, size_t k) {
  // Complement of [b, e] within [0, k-1].
  std::vector<Interval> out;
  if (b > 0) {
    auto left = Clip(ivs, 0, b - 1);
    out.insert(out.end(), left.begin(), left.end());
  }
  if (e + 1 <= k - 1) {
    auto right = Clip(ivs, e + 1, k - 1);
    out.insert(out.end(), right.begin(), right.end());
  }
  return out;
}

/// How a usable cut partitions the chain into a "region" and its complement.
struct CutRegion {
  const Pop::Cut* cut;
  // Region selected when Θ outputs `label_for_region`.
  size_t region_b, region_e;
  bool label_for_region;
};

/// Size of `ivs` ∩ [b, e] without materialising it.
size_t CountClip(const std::vector<Interval>& ivs, size_t b, size_t e) {
  size_t n = 0;
  if (b > e) return 0;
  for (const auto& iv : ivs) {
    const size_t nb = std::max(iv.b, b);
    const size_t ne = std::min(iv.e, e);
    if (nb <= ne) n += ne - nb + 1;
  }
  return n;
}

/// The fixed search geometry of one placement batch: usable cuts with their
/// region semantics, plus the sorted comparison-cut index for the
/// O(lg k)-per-step quantile pick. Positions never change during a search
/// (only AddTuple happens before the coarsen fallback), so one geometry
/// serves every tuple of a batch — which is what makes the lock-step flush
/// evaluate exactly the per-tuple (cut, tuple) pairs the eager sequential
/// placement would have.
struct PlacementGeometry {
  size_t k;
  std::vector<CutRegion> regions;
  std::vector<std::pair<size_t, const CutRegion*>> cmp_by_pos;

  explicit PlacementGeometry(const Pop& pop) : k(pop.k()) {
    for (const Pop::Cut& cut : pop.cuts()) {
      if (!cut.UsableForInsert()) continue;
      if (cut.trapdoor.kind == edbms::PredicateKind::kComparison) {
        const size_t c = pop.CutPos(cut);
        // Θ == left_label selects positions [0, c-1].
        regions.push_back(CutRegion{&cut, 0, c - 1, cut.left_label});
      } else {
        // BETWEEN with both ends known: Θ == 1 selects the inside positions.
        const Pop::Cut* sib = pop.FindCut(cut.sibling);
        if (sib == nullptr) continue;
        const size_t c1 = pop.CutPos(cut);
        const size_t c2 = pop.CutPos(*sib);
        if (c1 >= c2) continue;  // handled once, from the low end
        regions.push_back(CutRegion{&cut, c1, c2 - 1, true});
      }
    }
    cmp_by_pos.reserve(regions.size());
    for (const CutRegion& r : regions) {
      if (r.cut->trapdoor.kind == edbms::PredicateKind::kComparison) {
        cmp_by_pos.emplace_back(r.region_e + 1, &r);  // cut position
      }
    }
    std::sort(cmp_by_pos.begin(), cmp_by_pos.end());
  }

  /// Nearest usable comparison cut to `target`, constrained to (b, e] so it
  /// properly splits the interval [b, e]. Ties go to the upper cut.
  const CutRegion* NearestCmp(size_t b, size_t e, size_t target) const {
    auto it = std::lower_bound(
        cmp_by_pos.begin(), cmp_by_pos.end(), target,
        [](const auto& pr, size_t m) { return pr.first < m; });
    const CutRegion* cut_up =
        (it != cmp_by_pos.end() && it->first <= e) ? it->second : nullptr;
    const CutRegion* cut_down =
        (it != cmp_by_pos.begin() && std::prev(it)->first > b)
            ? std::prev(it)->second
            : nullptr;
    if (cut_up != nullptr && cut_down != nullptr) {
      return (it->first - target <= target - std::prev(it)->first) ? cut_up
                                                                   : cut_down;
    }
    return cut_up != nullptr ? cut_up : cut_down;
  }

  /// One round's greedy picks for `cand`: up to `npicks` cuts — the quantile
  /// comparison cuts of a single surviving interval, or the best worst-case
  /// separators in general. Empty when no usable cut can narrow further.
  void ComputePicks(const std::vector<Interval>& cand, size_t fanout,
                    size_t npicks, std::vector<const CutRegion*>* picks) const {
    picks->clear();
    if (cand.size() == 1) {
      // Fast path: comparison cuts nearest the m-quantiles of [b, e] (the
      // single midpoint when m = 2), each found by binary search.
      const size_t b = cand[0].b, e = cand[0].e;
      const size_t width = e - b + 1;
      for (size_t j = 1; j < fanout && picks->size() < npicks; ++j) {
        const size_t off = j * width / fanout;
        if (off == 0) continue;  // degenerate quantile; a later j covers it
        const CutRegion* r = NearestCmp(b, e, b + off);
        if (r == nullptr) continue;
        if (std::find(picks->begin(), picks->end(), r) == picks->end()) {
          picks->push_back(r);
        }
      }
    }
    if (picks->empty()) {
      // General path: any usable cuts (including BETWEEN pairs) minimising
      // the worst-case surviving count; only proper separators qualify.
      const size_t total = Total(cand);
      std::vector<std::pair<size_t, const CutRegion*>> scored;
      for (const CutRegion& r : regions) {
        const size_t in_region = CountClip(cand, r.region_b, r.region_e);
        const size_t worst = std::max(in_region, total - in_region);
        if (worst < total) scored.emplace_back(worst, &r);
      }
      std::stable_sort(
          scored.begin(), scored.end(),
          [](const auto& x, const auto& y) { return x.first < y.first; });
      for (const auto& [worst, r] : scored) {
        (void)worst;
        if (picks->size() >= npicks) break;
        picks->push_back(r);
      }
    }
  }
};

}  // namespace

void PrkbIndex::PlaceTuple(edbms::AttrId attr, TupleId tid) {
  const obs::ObsTracer::Span span("update.place_tuple");
  UpdateMetrics::Get().placements->Add(1);
  Pop& pop = pops_.at(attr);
  if (pop.k() == 0) {
    pop.InitSingle(std::vector<TupleId>{tid});
    return;
  }
  if (pop.k() == 1) {
    pop.AddTuple(pop.pid_at(0), tid);
    return;
  }

  const PlacementGeometry geo(pop);
  const size_t k = geo.k;
  std::vector<Interval> cand = {Interval{0, k - 1}};

  // Θ(trapdoor, tid) outcomes already paid for during this placement, keyed
  // by trapdoor fingerprint: distinct cuts can share one trapdoor (BETWEEN
  // sibling pairs, MD-fragmented splits), and the greedy search must never
  // pay the backend twice for the same predicate.
  std::unordered_map<TrapdoorFp, bool, TrapdoorFpHash> memo;

  // Greedy search, batched: each round picks up to m−1 cuts and evaluates
  // them in one QPF round trip, cutting the ~⌈lg k⌉ serial trips of
  // Sec. 7.1 to ~⌈log_m k⌉. m = 2 reproduces the paper's one-cut-per-trip
  // binary placement exactly (a lone lane ships as a scalar Eval).
  const size_t fanout = options_.probe_fanout < 2 ? 2 : options_.probe_fanout;
  const size_t npicks = fanout - 1;
  ProbeRound probe_round(db_);
  std::vector<const CutRegion*> picks;
  while (Total(cand) > 1) {
    geo.ComputePicks(cand, fanout, npicks, &picks);
    if (picks.empty()) break;  // no cut can narrow further

    // Batched round: resolve memoised cuts for free, dedupe the rest by
    // trapdoor fingerprint (sibling/fragmented cuts share one lane) and ship
    // every remaining Θ in a single round trip.
    struct Decision {
      const CutRegion* r;
      bool memoized;
      bool value;   // when memoized
      size_t lane;  // when not
    };
    std::vector<Decision> decisions;
    std::unordered_map<TrapdoorFp, size_t, TrapdoorFpHash> lane_by_fp;
    for (const CutRegion* r : picks) {
      if (const auto it = memo.find(r->cut->fp);
          options_.fast_path && it != memo.end()) {
        UpdateMetrics::Get().memo_hits->Add(1);
        decisions.push_back(Decision{r, true, it->second, 0});
        continue;
      }
      const auto [lit, inserted] = lane_by_fp.try_emplace(r->cut->fp, 0);
      if (inserted) {
        lit->second = probe_round.Add(r->cut->trapdoor, tid);
        UpdateMetrics::Get().evals->Add(1);
      }
      decisions.push_back(Decision{r, false, false, lit->second});
    }
    probe_round.Flush();
    for (const Decision& d : decisions) {
      const bool output = d.memoized ? d.value : probe_round.ResultOf(d.lane);
      if (!d.memoized) memo.emplace(d.r->cut->fp, output);
      // Every outcome is ground truth about the tuple, so applying the
      // whole round keeps the true position in `cand` (later cuts may
      // simply stop narrowing).
      if (output == d.r->label_for_region) {
        cand = Clip(cand, d.r->region_b, d.r->region_e);
      } else {
        cand = ClipComplement(cand, d.r->region_b, d.r->region_e, k);
      }
      assert(!cand.empty());
    }
  }

  if (Total(cand) == 1) {
    pop.AddTuple(pop.pid_at(cand[0].b), tid);
    return;
  }

  // No usable cut separates the remaining candidates (possible only when
  // sibling-less BETWEEN cuts guard the boundary). Coarsen: merge the whole
  // candidate span into one partition — always knowledge-safe — and place
  // the tuple there.
  const size_t span_b = cand.front().b;
  size_t span_e = 0;
  for (const auto& iv : cand) span_e = std::max(span_e, iv.e);
  UpdateMetrics::Get().coarsen_merges->Add(span_e - span_b);
  for (size_t i = span_b; i < span_e; ++i) pop.MergeAt(span_b);
  pop.AddTuple(pop.pid_at(span_b), tid);
}

void PrkbIndex::BatchPlace(edbms::AttrId attr,
                           const std::vector<TupleId>& tids) {
  if (tids.empty()) return;
  if (tids.size() == 1) {
    // Lock-step buys nothing for one tuple.
    PlaceTuple(attr, tids[0]);
    return;
  }
  const obs::ObsTracer::Span span("update.batch_place");
  Pop& pop = pops_.at(attr);
  size_t start = 0;
  if (pop.k() == 0) {
    UpdateMetrics::Get().placements->Add(1);
    pop.InitSingle(std::vector<TupleId>{tids[0]});
    start = 1;
  }
  if (pop.k() == 1) {
    // No cuts to search: every tuple lands in the sole partition, exactly
    // as the eager sequence would have placed it.
    for (size_t i = start; i < tids.size(); ++i) {
      UpdateMetrics::Get().placements->Add(1);
      pop.AddTuple(pop.pid_at(0), tids[i]);
    }
    return;
  }

  const PlacementGeometry geo(pop);
  const size_t k = geo.k;
  const size_t fanout = options_.probe_fanout < 2 ? 2 : options_.probe_fanout;
  const size_t npicks = fanout - 1;

  struct Search {
    TupleId tid;
    std::vector<Interval> cand;
    std::unordered_map<TrapdoorFp, bool, TrapdoorFpHash> memo;
    bool searching = true;
  };
  std::vector<Search> searches;
  searches.reserve(tids.size());
  for (TupleId tid : tids) {
    searches.push_back(Search{tid, {Interval{0, k - 1}}, {}, true});
  }

  // Lock-step rounds: every still-narrowing tuple contributes its round's
  // picks to ONE shared probe round. The geometry is fixed and each tuple's
  // picks depend only on its own candidate set, so the per-tuple
  // (cut, tuple) evaluations are exactly the eager sequential placement's —
  // only the round trips collapse (the ≥3× of BENCH_write_heavy.json).
  struct Decision {
    Search* s;
    const CutRegion* r;
    bool memoized;
    bool value;   // when memoized
    size_t lane;  // when not
  };
  ProbeRound probe_round(db_);
  std::vector<const CutRegion*> picks;
  std::vector<Decision> decisions;
  std::unordered_map<TrapdoorFp, size_t, TrapdoorFpHash> lane_by_fp;
  for (;;) {
    decisions.clear();
    for (Search& s : searches) {
      if (!s.searching) continue;
      if (Total(s.cand) <= 1) {
        s.searching = false;
        continue;
      }
      geo.ComputePicks(s.cand, fanout, npicks, &picks);
      if (picks.empty()) {
        s.searching = false;  // coarsen fallback, handled after the loop
        continue;
      }
      lane_by_fp.clear();  // lanes dedupe per (tuple, round), as in PlaceTuple
      for (const CutRegion* r : picks) {
        if (const auto it = s.memo.find(r->cut->fp);
            options_.fast_path && it != s.memo.end()) {
          UpdateMetrics::Get().memo_hits->Add(1);
          decisions.push_back(Decision{&s, r, true, it->second, 0});
          continue;
        }
        const auto [lit, inserted] = lane_by_fp.try_emplace(r->cut->fp, 0);
        if (inserted) {
          lit->second = probe_round.Add(r->cut->trapdoor, s.tid);
          UpdateMetrics::Get().evals->Add(1);
        }
        decisions.push_back(Decision{&s, r, false, false, lit->second});
      }
    }
    if (decisions.empty()) break;
    probe_round.Flush();
    for (const Decision& d : decisions) {
      const bool output = d.memoized ? d.value : probe_round.ResultOf(d.lane);
      if (!d.memoized) d.s->memo.emplace(d.r->cut->fp, output);
      if (output == d.r->label_for_region) {
        d.s->cand = Clip(d.s->cand, d.r->region_b, d.r->region_e);
      } else {
        d.s->cand = ClipComplement(d.s->cand, d.r->region_b, d.r->region_e, k);
      }
      assert(!d.s->cand.empty());
    }
  }

  // Resolved tuples land first, in append order. AddTuple never moves cuts
  // or positions, so every resolved position stays valid throughout.
  std::vector<TupleId> unresolved;
  for (Search& s : searches) {
    if (Total(s.cand) == 1) {
      UpdateMetrics::Get().placements->Add(1);
      pop.AddTuple(pop.pid_at(s.cand[0].b), s.tid);
    } else {
      unresolved.push_back(s.tid);
    }
  }
  // The rare coarsen cases (sibling-less BETWEEN cuts guarding the boundary)
  // re-run the scalar placement, which merges the blocked span against the
  // *current* chain — simpler and safer than patching candidate positions
  // through earlier tuples' merges, at the price of re-paying those few
  // tuples' probes.
  for (TupleId tid : unresolved) PlaceTuple(attr, tid);
}

void PrkbIndex::FlushBuffered(edbms::AttrId attr) {
  Pop& pop = pops_.at(attr);
  if (pop.insert_buffer().Empty()) return;
  const obs::ObsTracer::Span span("update.buffer_flush");
  std::vector<TupleId> tids;
  tids.reserve(pop.insert_buffer().Size());
  pop.insert_buffer().AppendTo(&tids);
  BatchPlace(attr, tids);  // AddTuple/InitSingle drain the buffer as they go
  UpdateMetrics::Get().buffer_flushes->Add(1);
  UpdateMetrics::Get().flush_batch_size->Record(tids.size());
  pop.NoteBufferFlushed(tids.size());
}

void PrkbIndex::BufferAppendAttr(edbms::AttrId attr, TupleId tid) {
  Pop& pop = pops_.at(attr);
  pop.BufferAppend(tid);
  UpdateMetrics::Get().buffer_appends->Add(1);
  if (options_.max_buffered_inserts > 0 &&
      pop.insert_buffer().Size() >= options_.max_buffered_inserts) {
    FlushBuffered(attr);
  }
}

edbms::TupleId PrkbIndex::Insert(const std::vector<edbms::Value>& row,
                                 edbms::SelectionStats* stats) {
  // StatsScope fills every field (the old manual fill left qpf_batches
  // stale when the caller reused a stats struct across operations).
  edbms::StatsScope scope(db_, stats, "insert");
  const TupleId tid = db_->Insert(row);
  for (auto& [attr, pop] : pops_) {
    (void)pop;
    if (options_.buffered_inserts) {
      BufferAppendAttr(attr, tid);
    } else {
      PlaceTuple(attr, tid);
    }
  }
  CommitWal();
  return tid;
}

void PrkbIndex::PlaceStored(edbms::TupleId tid, edbms::SelectionStats* stats) {
  // Distinct registry op from "insert" so a sharded insert reads as one
  // insert plus per-shard placements, not N inserts.
  edbms::StatsScope scope(db_, stats, "place");
  for (auto& [attr, pop] : pops_) {
    (void)pop;
    if (options_.buffered_inserts) {
      BufferAppendAttr(attr, tid);
    } else {
      PlaceTuple(attr, tid);
    }
  }
  CommitWal();
}

void PrkbIndex::Delete(edbms::TupleId tid) {
  db_->Delete(tid);
  EraseFromChains(tid);
}

void PrkbIndex::EraseFromChains(edbms::TupleId tid) {
  for (auto& [attr, pop] : pops_) {
    (void)attr;
    if (pop.partition_of(tid) != Pop::kNoPartition ||
        pop.insert_buffer().Contains(tid)) {
      pop.RemoveTuple(tid);
    }
  }
  CommitWal();
}

}  // namespace prkb::core
