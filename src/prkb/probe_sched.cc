#include "prkb/probe_sched.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace prkb::core {
namespace {

/// Scheduler telemetry (docs/OBSERVABILITY.md): how often rounds actually
/// fuse, and what speculation prefetches vs wastes.
struct ProbeSchedMetrics {
  obs::Counter* rounds;
  obs::Counter* requests;
  obs::Counter* fused;
  obs::Counter* speculative;
  obs::Counter* speculative_waste;

  static const ProbeSchedMetrics& Get() {
    static const ProbeSchedMetrics m = {
        obs::MetricsRegistry::Global().GetCounter("probe_sched.rounds"),
        obs::MetricsRegistry::Global().GetCounter("probe_sched.requests"),
        obs::MetricsRegistry::Global().GetCounter("probe_sched.fused"),
        obs::MetricsRegistry::Global().GetCounter("probe_sched.speculative"),
        obs::MetricsRegistry::Global().GetCounter(
            "probe_sched.speculative_waste"),
    };
    return m;
  }
};

/// QFilter telemetry: probe count is the measured side of the paper's
/// 2 + ⌈lg k⌉ sample bound, the round pair its m-ary trip bound
/// (rounds_per_call ≤ 2 + ⌈log_m k⌉; docs/COST_MODEL.md).
struct QFilterMetrics {
  obs::Counter* invocations;
  obs::Counter* probes;
  obs::Counter* rounds;
  obs::LatencyHistogram* chain_k;
  obs::LatencyHistogram* probes_per_call;
  obs::LatencyHistogram* rounds_per_call;

  static const QFilterMetrics& Get() {
    static const QFilterMetrics m = {
        obs::MetricsRegistry::Global().GetCounter("qfilter.invocations"),
        obs::MetricsRegistry::Global().GetCounter("qfilter.probes"),
        obs::MetricsRegistry::Global().GetCounter("qfilter.rounds"),
        obs::MetricsRegistry::Global().GetHistogram("qfilter.chain_k"),
        obs::MetricsRegistry::Global().GetHistogram("qfilter.probes_per_call"),
        obs::MetricsRegistry::Global().GetHistogram("qfilter.rounds_per_call"),
    };
    return m;
  }
};

}  // namespace

void RecordSpeculativeWaste(const PrepaidScan& prepaid) {
  if (prepaid.total == 0) return;
  ProbeSchedMetrics::Get().speculative_waste->Add(prepaid.waste());
}

size_t ProbeRound::Add(const edbms::Trapdoor& td, edbms::TupleId tid,
                       int source) {
  if (shipped_) {
    reqs_.clear();
    sources_.clear();
    shipped_ = false;
  }
  reqs_.push_back(edbms::ProbeRequest{&td, tid});
  sources_.push_back(source);
  return reqs_.size() - 1;
}

void ProbeRound::Flush() {
  if (shipped_ || reqs_.empty()) return;
  const ProbeSchedMetrics& m = ProbeSchedMetrics::Get();
  m.rounds->Add(1);
  m.requests->Add(reqs_.size());
  bool mixed = false;
  for (size_t i = 1; i < sources_.size() && !mixed; ++i) {
    mixed = sources_[i] != sources_[0];
  }
  if (mixed) m.fused->Add(1);
  if (reqs_.size() == 1) {
    // A lone probe stays a scalar oracle call: one use, one round trip —
    // the paper's per-probe accounting.
    results_ = BitVector(1);
    results_.Assign(0, qpf_->Eval(*reqs_[0].td, reqs_[0].tid));
  } else {
    results_ = qpf_->EvalMany(reqs_);
  }
  ++trips_;
  shipped_ = true;
}

void FlipSearch::Pivots(std::vector<size_t>* out) const {
  assert(!done());
  const size_t width = b_ - a_;
  const size_t npiv = std::min(fanout_ - 1, width - 1);
  // Evenly split (a, b): p_j = a + ⌊j·width/(npiv+1)⌋. width ≥ npiv+1, so
  // the pivots are distinct and interior; npiv == 1 reduces to the paper's
  // midpoint (a+b)/2.
  for (size_t j = 1; j <= npiv; ++j) {
    out->push_back(a_ + j * width / (npiv + 1));
  }
}

void FlipSearch::Absorb(std::span<const size_t> pivots,
                        std::span<const uint8_t> labels) {
  assert(pivots.size() == labels.size());
  size_t prev = a_;
  for (size_t i = 0; i < pivots.size(); ++i) {
    if ((labels[i] != 0) != label_a_) {
      // First flip: the separating partition lies in (prev, pivots[i]].
      a_ = prev;
      b_ = pivots[i];
      return;
    }
    prev = pivots[i];
  }
  // Every pivot matched label(a): the flip is in (last pivot, b).
  a_ = prev;
}

namespace {

/// State machine for one chain's m-ary QFilter: an ends round (positions 0
/// and k−1 share one trip), then FlipSearch rounds, each feeding lanes into
/// a shared ProbeRound so several engines can ride the same trip.
class QFilterEngine {
 public:
  QFilterEngine(const Pop* pop, const edbms::Trapdoor* td, Rng* rng,
                const ProbeSchedOptions* opts, PrepaidScan* prepaid)
      : pop_(pop), td_(td), rng_(rng), opts_(opts), prepaid_(prepaid),
        k_(pop->k()) {
    assert(k_ >= 1);
  }

  bool done() const { return phase_ == Phase::kDone; }

  void Enqueue(ProbeRound* round, int source) {
    assert(!done());
    lanes_.clear();
    pivots_.clear();
    spec_.clear();
    if (phase_ == Phase::kEnds) {
      pivots_.push_back(0);
      if (k_ > 1) pivots_.push_back(k_ - 1);
      // k ≤ 2 makes this round final whatever the labels say: the NS pair
      // is the whole chain, so its scan chunks can ride along.
      if (k_ <= 2) {
        for (size_t pos = 0; pos < k_; ++pos) EnqueueSpec(round, source, pos);
      }
    } else {
      search_->Pivots(&pivots_);
      if (search_->b() - search_->a() == 2) {
        // Final disambiguation round: the NS pair will be two of these
        // three positions, so prefetch all three candidates' first chunks.
        EnqueueSpec(round, source, search_->a());
        EnqueueSpec(round, source, search_->a() + 1);
        EnqueueSpec(round, source, search_->b());
      }
    }
    for (size_t pos : pivots_) {
      lanes_.push_back(
          round->Add(*td_, SamplePartition(*pop_, pos, rng_), source));
    }
    probes_ += pivots_.size();
    ++rounds_;
  }

  void Absorb(const ProbeRound& round) {
    for (const SpecLane& s : spec_) {
      prepaid_->by_pos[s.pos].push_back(
          PrepaidScan::Outcome{s.tid, round.ResultOf(s.lane)});
      ++prepaid_->total;
    }
    std::vector<uint8_t> labels;
    labels.reserve(lanes_.size());
    for (size_t lane : lanes_) labels.push_back(round.ResultOf(lane) ? 1 : 0);

    if (phase_ == Phase::kEnds) {
      out_.label_first = labels[0] != 0;
      out_.label_last = labels.back() != 0;
      if (k_ == 1) {
        // Degenerate POP₁: everything is the NS "pair"; QScan full-scans.
        out_.boundary_case = true;
        phase_ = Phase::kDone;
        return;
      }
      if (out_.label_first == out_.label_last) {
        // Boundary case: s = 1 or s = k; NS pair is <P₁, Pₖ>.
        out_.boundary_case = true;
        out_.ns_a = 0;
        out_.ns_b = k_ - 1;
        if (out_.label_first) {
          out_.win_begin = 1;
          out_.win_end = k_ - 1;
        }
        phase_ = Phase::kDone;
        return;
      }
      search_.emplace(0, k_ - 1, out_.label_first, opts_->fanout);
      phase_ = Phase::kSearch;
      if (search_->done()) Finalize();  // k == 2
      return;
    }
    search_->Absorb(pivots_, labels);
    if (search_->done()) Finalize();
  }

  QFilterResult Finish() {
    assert(done());
    const QFilterMetrics& m = QFilterMetrics::Get();
    m.invocations->Add(1);
    m.chain_k->Record(k_);
    m.probes->Add(probes_);
    m.probes_per_call->Record(probes_);
    m.rounds->Add(rounds_);
    m.rounds_per_call->Record(rounds_);
    return out_;
  }

 private:
  enum class Phase { kEnds, kSearch, kDone };
  struct SpecLane {
    size_t pos;
    edbms::TupleId tid;
    size_t lane;
  };

  void EnqueueSpec(ProbeRound* round, int source, size_t pos) {
    if (!opts_->speculative || prepaid_ == nullptr) return;
    const MemberSet& members = pop_->members_at(pos);
    const size_t n = std::min(opts_->spec_chunk, members.Size());
    for (size_t i = 0; i < n; ++i) {
      // Select(i) walks the compressed prefix: the speculative chunk covers
      // the same member-order prefix ScanPartitionExact consumes.
      const edbms::TupleId tid = members.Select(i);
      spec_.push_back(SpecLane{pos, tid, round->Add(*td_, tid, source)});
    }
    ProbeSchedMetrics::Get().speculative->Add(n);
  }

  void Finalize() {
    out_.ns_a = search_->a();
    out_.ns_b = search_->b();
    if (out_.label_first) {
      out_.win_begin = 0;
      out_.win_end = search_->a();
    } else {
      out_.win_begin = search_->b() + 1;
      out_.win_end = k_;
    }
    phase_ = Phase::kDone;
  }

  const Pop* pop_;
  const edbms::Trapdoor* td_;
  Rng* rng_;
  const ProbeSchedOptions* opts_;
  PrepaidScan* prepaid_;
  size_t k_;
  Phase phase_ = Phase::kEnds;
  std::optional<FlipSearch> search_;
  QFilterResult out_;
  std::vector<size_t> pivots_;
  std::vector<size_t> lanes_;
  std::vector<SpecLane> spec_;
  uint64_t probes_ = 0;
  uint64_t rounds_ = 0;
};

void RunEngines(std::vector<QFilterEngine>& engines, edbms::QpfOracle* qpf,
                bool fuse) {
  ProbeRound round(qpf);
  if (fuse) {
    std::vector<size_t> active;
    for (;;) {
      active.clear();
      for (size_t i = 0; i < engines.size(); ++i) {
        if (!engines[i].done()) {
          engines[i].Enqueue(&round, static_cast<int>(i));
          active.push_back(i);
        }
      }
      if (active.empty()) break;
      round.Flush();
      for (size_t i : active) engines[i].Absorb(round);
    }
    return;
  }
  for (size_t i = 0; i < engines.size(); ++i) {
    while (!engines[i].done()) {
      engines[i].Enqueue(&round, static_cast<int>(i));
      round.Flush();
      engines[i].Absorb(round);
    }
  }
}

}  // namespace

QFilterResult QFilter(const Pop& pop, const edbms::Trapdoor& td,
                      edbms::QpfOracle* qpf, Rng* rng,
                      const ProbeSchedOptions& opts, PrepaidScan* prepaid) {
  const obs::ObsTracer::Span span("qfilter.mary_search");
  std::vector<QFilterEngine> engines;
  engines.emplace_back(&pop, &td, rng, &opts, prepaid);
  RunEngines(engines, qpf, /*fuse=*/false);
  return engines[0].Finish();
}

void FusedQFilters(std::span<const FusedFilterReq> reqs,
                   edbms::QpfOracle* qpf, Rng* rng,
                   const ProbeSchedOptions& opts) {
  if (reqs.empty()) return;
  const obs::ObsTracer::Span span("probe_sched.fused_filters");
  std::vector<QFilterEngine> engines;
  engines.reserve(reqs.size());
  for (const FusedFilterReq& r : reqs) {
    engines.emplace_back(r.pop, r.td, rng, &opts, nullptr);
  }
  RunEngines(engines, qpf, opts.fuse);
  for (size_t i = 0; i < reqs.size(); ++i) {
    *reqs[i].out = engines[i].Finish();
  }
}

}  // namespace prkb::core
