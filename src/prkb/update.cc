#include <algorithm>
#include <cassert>
#include <iterator>
#include <utility>
#include <vector>

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
  obs::Counter* general_picks;
  obs::Counter* memo_hits;
  obs::Counter* buffer_appends;
  obs::Counter* buffer_flushes;
  obs::LatencyHistogram* flush_batch_size;

  static const UpdateMetrics& Get() {
    static const UpdateMetrics m = {
        obs::MetricsRegistry::Global().GetCounter("update.placements"),
        obs::MetricsRegistry::Global().GetCounter("update.evals"),
        obs::MetricsRegistry::Global().GetCounter("update.coarsen_merges"),
        obs::MetricsRegistry::Global().GetCounter("update.general_picks"),
        obs::MetricsRegistry::Global().GetCounter("update.memo_hits"),
        obs::MetricsRegistry::Global().GetCounter("update.buffer.appends"),
        obs::MetricsRegistry::Global().GetCounter("update.buffer.flushes"),
        obs::MetricsRegistry::Global().GetHistogram(
            "update.buffer.flush_batch_size"),
    };
    return m;
  }
};

/// Inclusive range of chain positions. A search's candidate set is a list of
/// these, ascending and disjoint.
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

/// How a usable cut partitions the chain into a "region" and its complement.
struct CutRegion {
  /// The cut whose trapdoor decides the region: a comparison cut, or the
  /// low-position end of a sibling-linked BETWEEN pair.
  const Pop::Cut* cut;
  // Region selected when Θ outputs `label_for_region`.
  size_t region_b, region_e;
  bool label_for_region;
};

/// The greedy pick rules, read straight off the chain: Pop::CutAt gives the
/// one live cut per boundary in O(1), so a pick costs only the boundaries it
/// inspects. Positions never change during a search (only AddTuple happens
/// before the coarsen fallback), so every search of a batch sees the same
/// regions — which is what makes the lock-step flush evaluate exactly the
/// per-tuple (cut, tuple) pairs the eager sequential placement would have.
class PickRules {
 public:
  explicit PickRules(const Pop& pop) : pop_(pop) {}

  /// One round's greedy picks for `cand`: up to `npicks` cuts — the quantile
  /// comparison cuts of a single surviving interval, or the best worst-case
  /// separators in general. Empty when no usable cut can narrow further.
  void ComputePicks(const std::vector<Interval>& cand, size_t fanout,
                    size_t npicks, std::vector<CutRegion>* picks) const {
    picks->clear();
    if (cand.size() == 1) {
      // Fast path: comparison cuts nearest the m-quantiles of [b, e] (the
      // single midpoint when m = 2).
      const size_t b = cand[0].b, e = cand[0].e;
      const size_t width = e - b + 1;
      for (size_t j = 1; j < fanout && picks->size() < npicks; ++j) {
        const size_t off = j * width / fanout;
        if (off == 0) continue;  // degenerate quantile; a later j covers it
        CutRegion r;
        if (!NearestCmp(b, e, b + off, &r)) continue;
        if (std::none_of(picks->begin(), picks->end(),
                         [&](const CutRegion& p) { return p.cut == r.cut; })) {
          picks->push_back(r);
        }
      }
    }
    if (picks->empty()) {
      UpdateMetrics::Get().general_picks->Add(1);
      GeneralPicks(cand, npicks, picks);
    }
  }

 private:
  /// The region of the comparison cut at boundary `c`, if that is what lies
  /// there: Θ == left_label selects positions [0, c-1].
  bool ComparisonAt(size_t c, CutRegion* r) const {
    const Pop::Cut* cut = pop_.CutAt(c);
    if (cut == nullptr ||
        cut->trapdoor.kind != edbms::PredicateKind::kComparison) {
      return false;
    }
    *r = CutRegion{cut, 0, c - 1, cut->left_label};
    return true;
  }

  /// Nearest comparison cut to `target`, constrained to (b, e] so it properly
  /// splits the interval [b, e]: an outward walk from `target`, checking the
  /// upper boundary first at each distance so ties go to the upper cut.
  bool NearestCmp(size_t b, size_t e, size_t target, CutRegion* r) const {
    for (size_t d = 0; target + d <= e || d < target - b; ++d) {
      if (target + d <= e && ComparisonAt(target + d, r)) return true;
      if (d > 0 && d < target - b && ComparisonAt(target - d, r)) return true;
    }
    return false;
  }

  /// Any usable cuts (including BETWEEN pairs) minimising the worst-case
  /// surviving count; only proper separators qualify. A cut outside the
  /// candidate span (span_b, span_e] puts every candidate on one side, so
  /// only the span's boundaries are scored. Ties keep cuts_ order.
  void GeneralPicks(const std::vector<Interval>& cand, size_t npicks,
                    std::vector<CutRegion>* picks) const {
    const size_t total = Total(cand);
    const size_t span_b = cand.front().b;
    const size_t span_e = cand.back().e;
    struct Scored {
      size_t worst;
      CutRegion r;
    };
    std::vector<Scored> scored;
    for (size_t c = span_b + 1; c <= span_e; ++c) {
      CutRegion r;
      if (!ComparisonAt(c, &r)) {
        const Pop::Cut* cut = pop_.CutAt(c);
        if (cut == nullptr || !cut->UsableForInsert()) continue;
        // BETWEEN with both ends known: Θ == 1 selects the inside positions.
        const Pop::Cut* sib = pop_.FindCut(cut->sibling);
        if (sib == nullptr) continue;
        const size_t c2 = pop_.CutPos(*sib);
        if (c2 < c && c2 > span_b) continue;  // scored from its low end
        r = c < c2 ? CutRegion{cut, c, c2 - 1, true}
                   : CutRegion{sib, c2, c - 1, true};
      }
      const size_t in_region = CountClip(cand, r.region_b, r.region_e);
      const size_t worst = std::max(in_region, total - in_region);
      if (worst < total) {
        scored.push_back(Scored{worst, r});
      }
    }
    // Region cuts all point into cuts_, so pointer order is cuts_ order.
    std::sort(scored.begin(), scored.end(),
              [](const Scored& x, const Scored& y) {
                return x.worst != y.worst ? x.worst < y.worst
                                          : x.r.cut < y.r.cut;
              });
    for (const Scored& s : scored) {
      if (picks->size() >= npicks) break;
      picks->push_back(s.r);
    }
  }

  const Pop& pop_;
};

/// One tuple's placement search.
struct Search {
  TupleId tid;
  std::vector<Interval> cand;
  /// Θ(trapdoor, tid) outcomes already paid for, keyed by trapdoor
  /// fingerprint: distinct cuts can share one trapdoor (BETWEEN sibling
  /// pairs, MD-fragmented splits), and the greedy search must never pay the
  /// backend twice for the same predicate. A search pays ~(m−1)·⌈log_m k⌉
  /// evaluations, so a flat list outruns a hash table.
  std::vector<std::pair<TrapdoorFp, bool>> memo;
};

/// Runs `searches` in lock-step greedy rounds until each resolves to one
/// position or runs out of narrowing cuts. Each round, every still-narrowing
/// search contributes up to m−1 picks to ONE shared probe round: memoised
/// cuts resolve for free, the rest dedupe by trapdoor fingerprint per
/// (tuple, round) — sibling/fragmented cuts share one lane. A single search
/// cuts the ~⌈lg k⌉ serial trips of Sec. 7.1 to ~⌈log_m k⌉; m = 2 reproduces
/// the paper's one-cut-per-trip binary placement exactly (a lone lane ships
/// as a scalar Eval). Each search's picks depend only on its own candidate
/// set, so a batch evaluates exactly the eager sequence's (cut, tuple)
/// pairs — only the round trips collapse
/// (DifferentialTest.FlushRouteIsByteIdenticalToEagerPlacement).
void RunSearches(const Pop& pop, edbms::QpfOracle* qpf, size_t fanout,
                 bool use_memo, std::vector<Search>* searches) {
  const PickRules rules(pop);
  const size_t k = pop.k();
  const size_t npicks = fanout - 1;
  struct Decision {
    Search* s;
    CutRegion r;
    bool memoized;
    bool value;   // when memoized
    size_t lane;  // when not
  };
  ProbeRound probe_round(qpf);
  std::vector<CutRegion> picks;
  std::vector<Decision> decisions;
  std::vector<std::pair<TrapdoorFp, size_t>> lane_by_fp;
  std::vector<bool> searching(searches->size(), true);
  for (;;) {
    decisions.clear();
    for (size_t i = 0; i < searches->size(); ++i) {
      Search& s = (*searches)[i];
      if (!searching[i]) continue;
      if (Total(s.cand) <= 1) {
        searching[i] = false;
        continue;
      }
      rules.ComputePicks(s.cand, fanout, npicks, &picks);
      if (picks.empty()) {
        searching[i] = false;  // coarsen fallback, left to the caller
        continue;
      }
      lane_by_fp.clear();
      for (const CutRegion& r : picks) {
        const TrapdoorFp& fp = r.cut->fp;
        const auto known =
            std::find_if(s.memo.begin(), s.memo.end(),
                         [&](const auto& m) { return m.first == fp; });
        if (use_memo && known != s.memo.end()) {
          UpdateMetrics::Get().memo_hits->Add(1);
          decisions.push_back(Decision{&s, r, true, known->second, 0});
          continue;
        }
        auto lane = std::find_if(lane_by_fp.begin(), lane_by_fp.end(),
                                 [&](const auto& l) { return l.first == fp; });
        if (lane == lane_by_fp.end()) {
          lane_by_fp.emplace_back(fp, probe_round.Add(r.cut->trapdoor, s.tid));
          UpdateMetrics::Get().evals->Add(1);
          lane = std::prev(lane_by_fp.end());
        }
        decisions.push_back(Decision{&s, r, false, false, lane->second});
      }
    }
    if (decisions.empty()) return;
    probe_round.Flush();
    for (const Decision& d : decisions) {
      const bool output = d.memoized ? d.value : probe_round.ResultOf(d.lane);
      Search& s = *d.s;
      if (!d.memoized &&
          std::none_of(s.memo.begin(), s.memo.end(),
                       [&](const auto& m) { return m.first == d.r.cut->fp; })) {
        s.memo.emplace_back(d.r.cut->fp, output);
      }
      // Every outcome is ground truth about the tuple, so applying the
      // whole round keeps the true position in `cand` (later cuts may
      // simply stop narrowing).
      if (output == d.r.label_for_region) {
        s.cand = Clip(s.cand, d.r.region_b, d.r.region_e);
      } else {
        s.cand = ClipComplement(s.cand, d.r.region_b, d.r.region_e, k);
      }
      assert(!s.cand.empty());
    }
  }
}

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

  std::vector<Search> searches = {Search{tid, {Interval{0, pop.k() - 1}}, {}}};
  RunSearches(pop, db_, std::max<size_t>(options_.probe_fanout, 2),
              options_.fast_path, &searches);
  const std::vector<Interval>& cand = searches[0].cand;
  if (Total(cand) == 1) {
    pop.AddTuple(pop.pid_at(cand[0].b), tid);
    return;
  }

  // No usable cut separates the remaining candidates (possible only when
  // sibling-less BETWEEN cuts guard the boundary). Coarsen: merge the whole
  // candidate span into one partition — always knowledge-safe — and place
  // the tuple there.
  const size_t span_b = cand.front().b;
  const size_t span_e = cand.back().e;
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

  std::vector<Search> searches;
  searches.reserve(tids.size());
  for (TupleId tid : tids) {
    searches.push_back(Search{tid, {Interval{0, pop.k() - 1}}, {}});
  }
  RunSearches(pop, db_, std::max<size_t>(options_.probe_fanout, 2),
              options_.fast_path, &searches);

  // Resolved tuples land first, in append order. AddTuple never moves cuts
  // or positions, so every resolved position stays valid throughout.
  std::vector<TupleId> unresolved;
  for (const Search& s : searches) {
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
