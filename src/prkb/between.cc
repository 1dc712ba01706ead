// BETWEEN-operator processing (paper Appendix A).
//
// A BETWEEN trapdoor returns 1 exactly on a contiguous band of the chain:
// the T-containing positions form one interval [ta, tb], and only its two
// end partitions can be non-homogeneous. Processing mirrors QFilter/QScan:
// probe partition samples until a positive anchor is found, search both
// ends with the probe scheduler's FlipSearch (a binary search at m = 2),
// scan (at most four) candidate end partitions, and infer the pure-T middle
// for free. Each splittable end extends the PRKB with one cut;
// when both ends split, the two cuts are linked as siblings so the trapdoor
// can steer future insertions three-ways.
//
// The appendix's exceptional case — the whole satisfied band strictly inside
// one partition, i.e. an (F, T, F) pattern — is detected and left unsplit:
// the two F groups cannot be ordered.

#include <algorithm>
#include <cassert>
#include <map>
#include <optional>
#include <span>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "prkb/selection.h"

namespace prkb::core {
namespace {

using edbms::Trapdoor;
using edbms::TupleId;

/// BETWEEN telemetry: probes are the Appendix-A anchor hunt plus the two
/// end searches; end-partition scans are additionally counted by the
/// shared qscan.* scan metrics (docs/OBSERVABILITY.md).
struct BetweenMetrics {
  obs::Counter* invocations;
  obs::Counter* probes;
  obs::Counter* probe_trips;
  obs::Counter* end_scans;

  static const BetweenMetrics& Get() {
    static const BetweenMetrics m = {
        obs::MetricsRegistry::Global().GetCounter("between.invocations"),
        obs::MetricsRegistry::Global().GetCounter("between.probes"),
        obs::MetricsRegistry::Global().GetCounter("between.probe_trips"),
        obs::MetricsRegistry::Global().GetCounter("between.end_scans"),
    };
    return m;
  }
};

struct ScannedPartition {
  std::vector<TupleId> t_members;
  std::vector<TupleId> f_members;
  bool mixed() const { return !t_members.empty() && !f_members.empty(); }
  bool has_t() const { return !t_members.empty(); }
};

}  // namespace

std::vector<TupleId> PrkbIndex::SelectBetween(const Trapdoor& td,
                                              const TrapdoorFp* fp,
                                              const ProbeSchedOptions& sched) {
  Pop& pop = pops_.at(td.attr);
  const size_t k = pop.k();
  if (k == 0) return {};
  const obs::ObsTracer::Span span("between.select");
  const BetweenMetrics& metrics = BetweenMetrics::Get();
  metrics.invocations->Add(1);
  Rng rng = OpRng();
  const uint64_t trips_before = db_->round_trips();

  // Cached sample labels per chain position (-1 unknown). A position probed
  // once never pays again — batched pivots whose label is already cached are
  // absorbed for free.
  std::vector<int8_t> sample(k, -1);
  ProbeRound probe_round(db_);
  // Resolves every unknown position of `want` in one round trip. Samples are
  // drawn at enqueue time in `want` order.
  auto ensure = [&](std::span<const size_t> want) {
    std::vector<std::pair<size_t, size_t>> lanes;  // (pos, lane)
    for (size_t pos : want) {
      if (sample[pos] >= 0) continue;
      bool queued = false;
      for (const auto& l : lanes) queued = queued || l.first == pos;
      if (queued) continue;
      metrics.probes->Add(1);
      lanes.emplace_back(pos,
                         probe_round.Add(td, SamplePartition(pop, pos, &rng),
                                         static_cast<int>(pos)));
    }
    if (lanes.empty()) return;
    probe_round.Flush();
    for (const auto& [pos, lane] : lanes) {
      sample[pos] = probe_round.ResultOf(lane) ? 1 : 0;
    }
  };

  // ---- Phase 1: hunt for a positive anchor among partition samples. ----
  // Each round probes the next m−1 positions of a random order; the anchor
  // is the first positive in that order, the overshoot stays cached.
  std::vector<size_t> order(k);
  for (size_t i = 0; i < k; ++i) order[i] = i;
  rng.Shuffle(&order);
  size_t anchor = k;  // k = not found
  const size_t chunk = sched.fanout < 2 ? 1 : sched.fanout - 1;
  for (size_t i = 0; i < k && anchor == k; i += chunk) {
    const size_t end = std::min(k, i + chunk);
    ensure(std::span<const size_t>(order).subspan(i, end - i));
    for (size_t j = i; j < end && anchor == k; ++j) {
      if (sample[order[j]] == 1) anchor = order[j];
    }
  }

  // Chain positions that must be scanned exhaustively.
  std::vector<size_t> scan_positions;
  size_t middle_begin = 1, middle_end = 0;  // inferred pure-T range (empty)

  if (anchor == k) {
    // Exceptional fallback: no positive sample anywhere. The band may still
    // hide inside partitions whose sample came back 0 — scan everything.
    for (size_t p = 0; p < k; ++p) scan_positions.push_back(p);
  } else {
    // ---- Phase 2: locate both ends of the T band. Both chain ends share
    // one round, then the two end FlipSearches run m-ary — fused into
    // common rounds when sched.fuse is set, back-to-back otherwise. The low
    // end's NS pair is {a, a+1} with label(a)=F, label(a+1)=T (or {0} if
    // position 0 is T); the high end mirrors it.
    {
      const size_t ends[2] = {0, k - 1};
      ensure(std::span<const size_t>(ends, k > 1 ? 2 : 1));
    }
    std::optional<FlipSearch> low, high;
    size_t low_hi = 0, high_lo = 0;
    if (sample[0] == 1) {
      scan_positions.push_back(0);
      low_hi = 0;
    } else {
      low.emplace(0, anchor, /*label_a=*/false, sched.fanout);
    }
    if (sample[k - 1] == 1) {
      scan_positions.push_back(k - 1);
      high_lo = k - 1;
    } else {
      high.emplace(anchor, k - 1, /*label_a=*/true, sched.fanout);
    }

    std::vector<size_t> lpiv, hpiv, batch;
    std::vector<uint8_t> labels;
    auto absorb = [&](FlipSearch* fs, const std::vector<size_t>& piv) {
      labels.clear();
      for (size_t pos : piv) labels.push_back(sample[pos] == 1 ? 1 : 0);
      fs->Absorb(piv, labels);
    };
    while ((low && !low->done()) || (high && !high->done())) {
      lpiv.clear();
      hpiv.clear();
      batch.clear();
      const bool low_active = low && !low->done();
      if (low_active) low->Pivots(&lpiv);
      // Without fusion the high search waits until the low one finishes.
      if (high && !high->done() && (sched.fuse || !low_active)) {
        high->Pivots(&hpiv);
      }
      batch.insert(batch.end(), lpiv.begin(), lpiv.end());
      batch.insert(batch.end(), hpiv.begin(), hpiv.end());
      ensure(batch);
      if (!lpiv.empty()) absorb(&*low, lpiv);
      if (!hpiv.empty()) absorb(&*high, hpiv);
    }

    if (low) {
      scan_positions.push_back(low->a());
      scan_positions.push_back(low->b());
      low_hi = low->b();
    }
    if (high) {
      scan_positions.push_back(high->a());
      scan_positions.push_back(high->b());
      high_lo = high->a();
    }
    // Positions strictly between the scanned ends are pure T (they are
    // strictly inside [ta, tb]).
    middle_begin = low_hi + 1;
    middle_end = high_lo;  // exclusive
  }
  // Every round trip so far was a sample probe; the executor splits per-node
  // transport cost with this counter (the rest of the trips are scans).
  metrics.probe_trips->Add(db_->round_trips() - trips_before);

  std::sort(scan_positions.begin(), scan_positions.end());
  scan_positions.erase(
      std::unique(scan_positions.begin(), scan_positions.end()),
      scan_positions.end());

  // ---- Phase 3: exhaustive scan of the candidate end partitions. ----
  // Each candidate partition is scanned in full either way, so the batched
  // path evaluates exactly the scalar path's (trapdoor, tuple) pairs.
  std::map<size_t, ScannedPartition> scanned;
  for (size_t pos : scan_positions) {
    if (middle_begin <= pos && pos < middle_end) continue;  // known pure T
    ScannedPartition sp;
    metrics.end_scans->Add(1);
    ScanPartitionExact(pop, pos, td, db_, options_.scan_policy(),
                       &sp.t_members, &sp.f_members);
    scanned.emplace(pos, std::move(sp));
  }

  // ---- Assemble the result. ----
  std::vector<TupleId> result;
  for (const auto& [pos, sp] : scanned) {
    result.insert(result.end(), sp.t_members.begin(), sp.t_members.end());
  }
  for (size_t p = middle_begin; p < middle_end; ++p) {
    pop.members_at(p).AppendTo(&result);
  }

  // ---- Phase 4: updatePRKB. ----
  // A scanned mixed partition splits iff exactly one neighbour is known to
  // contain a T; the T half faces that neighbour.
  auto position_has_t = [&](size_t pos) -> bool {
    if (middle_begin <= pos && pos < middle_end) return true;
    auto it = scanned.find(pos);
    if (it != scanned.end()) return it->second.has_t();
    if (sample[pos] == 1) return true;
    return false;
  };

  struct PendingSplit {
    PartitionId pid;
    size_t pos;
    bool t_left;
  };
  std::vector<PendingSplit> splits;
  for (const auto& [pos, sp] : scanned) {
    if (!sp.mixed()) continue;
    const bool left_t = pos > 0 && position_has_t(pos - 1);
    const bool right_t = pos + 1 < k && position_has_t(pos + 1);
    if (left_t == right_t) continue;  // interior (F,T,F) band or isolated
    splits.push_back(PendingSplit{pop.pid_at(pos), pos, left_t});
  }

  std::vector<uint64_t> cut_ids;
  for (const auto& s : splits) {
    auto& sp = scanned.at(s.pos);
    std::vector<TupleId> left =
        s.t_left ? std::move(sp.t_members) : std::move(sp.f_members);
    std::vector<TupleId> right =
        s.t_left ? std::move(sp.f_members) : std::move(sp.t_members);
    cut_ids.push_back(
        pop.SplitPartition(s.pid, left, right, td, /*left_label=*/s.t_left));
  }
  if (cut_ids.size() == 2) {
    pop.LinkBetweenCuts(cut_ids[0], cut_ids[1]);
    // Both ends split: the satisfied band is exactly the run between the two
    // sibling cuts, so the trapdoor is answerable from the chain alone from
    // now on. One-ended outcomes stay uncached — the unsplit end's boundary
    // is not pinned by any cut of ours.
    if (fp != nullptr) pop.RememberBetween(*fp, cut_ids[0], cut_ids[1]);
  }
  return result;
}

}  // namespace prkb::core
