// Plan execution over the PRKB primitives.
//
// The operator bodies here are the relocated legacy drivers — the QPF and
// RNG consumption of every default-path operation is byte-identical to the
// pre-exec-layer code (replay_test / batch_qpf_test pin this). What the
// layer adds on top: per-operator actual-cost capture on the plan nodes,
// `exec.*` operator metrics, and one shared implementation of the
// fast-path-cache consult + StatsScope accounting that selection.cc,
// between.cc dispatch, multidim.cc and the SD+ loop used to duplicate.

#include "exec/executor.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/bitvector.h"
#include "edbms/batch_scan.h"
#include "exec/alt_route.h"
#include "exec/calibrate.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "prkb/selection.h"
#include "prkb/wal.h"

namespace prkb::exec {

using edbms::SelectionStats;
using edbms::StatsScope;
using edbms::Trapdoor;
using edbms::TupleId;

namespace {

/// One `exec.<op>` counter per operator kind (docs/OBSERVABILITY.md), plus
/// the plan-level estimate-quality histogram.
struct ExecMetrics {
  obs::Counter* op[13];
  obs::Counter* plan_runs;
  obs::LatencyHistogram* est_error_pct;
  /// Queries that paid the exact-answer batch scan over a pending insert
  /// buffer instead of flushing it (docs/OBSERVABILITY.md, update.buffer.*).
  obs::Counter* buffered_scans;

  static const ExecMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static const ExecMetrics m = {
        {
            reg.GetCounter("exec.full_table"),
            reg.GetCounter("exec.empty_result"),
            reg.GetCounter("exec.linear_scan"),
            reg.GetCounter("exec.predicate_select"),
            reg.GetCounter("exec.fast_path_lookup"),
            reg.GetCounter("exec.qfilter_probe"),
            reg.GetCounter("exec.partition_scan"),
            reg.GetCounter("exec.apply_split"),
            reg.GetCounter("exec.grid_prune"),
            reg.GetCounter("exec.intersect"),
            reg.GetCounter("exec.buffer_scan"),
            reg.GetCounter("exec.buffer_flush"),
            reg.GetCounter("exec.alt_select"),
        },
        reg.GetCounter("exec.plan_runs"),
        reg.GetHistogram("exec.est_error_pct"),
        reg.GetCounter("update.buffer.buffered_scans"),
    };
    return m;
  }
};

/// Snapshots the oracle counters; Commit() stamps the delta onto a node as
/// its actual cost and bumps the operator's `exec.*` counter.
class NodeCost {
 public:
  explicit NodeCost(const edbms::Edbms* db)
      : db_(db), uses0_(db->uses()), trips0_(db->round_trips()) {}

  void Commit(PlanNode* node) const {
    if (node == nullptr) return;
    node->actual.executed = true;
    node->actual.qpf_uses = db_->uses() - uses0_;
    node->actual.qpf_round_trips = db_->round_trips() - trips0_;
    ExecMetrics::Get().op[static_cast<size_t>(node->op)]->Add(1);
  }

  uint64_t uses() const { return db_->uses() - uses0_; }
  uint64_t round_trips() const { return db_->round_trips() - trips0_; }

 private:
  const edbms::Edbms* db_;
  uint64_t uses0_;
  uint64_t trips0_;
};

void MarkZeroCost(PlanNode* node, bool cache_hit = false) {
  if (node == nullptr) return;
  node->actual.executed = true;
  node->actual.cache_hit = cache_hit;
  ExecMetrics::Get().op[static_cast<size_t>(node->op)]->Add(1);
}

}  // namespace

CostConstants ConstantsFor(const core::PrkbOptions& options,
                           size_t probe_fanout_override) {
  CostConstants c = CostConstants::Defaults();
  const size_t m = probe_fanout_override != 0 ? probe_fanout_override
                                              : options.probe_fanout;
  c.probe_fanout = static_cast<double>(m < 2 ? 2 : m);
  c.scan_batch =
      static_cast<double>(options.batch_size < 1 ? 1 : options.batch_size);
  c.round_trip_latency_ns = options.rt_latency_hint_ns;
  c.buffer_flush_horizon = options.buffer_flush_horizon;
  return c;
}

CostConstants ConstantsFor(const core::PrkbIndex& index,
                           size_t probe_fanout_override) {
  CostConstants c = ConstantsFor(index.options(), probe_fanout_override);
  const CostCalibrator& cal = index.calibrator();
  c.eval_ns = cal.eval_ns();
  // Under a coalescing transport (net::RoundBus) each logical round shares
  // its backend entry with c−1 concurrent rounds on average, so the planner
  // prices the amortised L/c. The factor is exactly 1.0 until observed —
  // direct backends and the golden EXPLAIN snapshots are unchanged.
  c.round_trip_latency_ns = cal.rt_latency_ns() / cal.coalesce_factor();
  return c;
}

core::ProbeSchedOptions SchedFor(const core::PrkbIndex& index,
                                 const Plan& plan) {
  core::ProbeSchedOptions o = index.options().sched();
  if (plan.probe_fanout != 0) {
    o.fanout = plan.probe_fanout < 2 ? 2 : plan.probe_fanout;
  }
  return o;
}

std::vector<TupleId> Executor::RunComparison(
    PlanNode* node, const Trapdoor& td, const core::TrapdoorFp* fp,
    const core::ProbeSchedOptions& sopt) {
  core::Pop& pop = index_->pop(td.attr);
  if (pop.k() == 0) return {};  // empty table

  Rng rng = index_->OpRng();
  const NodeCost probe_cost(index_->db());
  core::PrepaidScan prepaid;
  const core::QFilterResult filter =
      core::QFilter(pop, td, index_->db(), &rng, sopt, &prepaid);
  // Speculative prefetches ride the filter's final round, so their uses land
  // on the probe node; QScan consumes them instead of re-paying.
  probe_cost.Commit(node->Child(PlanOp::kQFilterProbe));

  const NodeCost scan_cost(index_->db());
  core::QScanResult scan =
      core::QScan(pop, filter, td, index_->db(),
                  index_->options().scan_policy(), &prepaid);
  scan_cost.Commit(node->Child(PlanOp::kPartitionScan));
  core::RecordSpeculativeWaste(prepaid);

  // Assemble TW ∪ TWNS.
  std::vector<TupleId> result;
  size_t win_size = 0;
  for (size_t p = filter.win_begin; p < filter.win_end; ++p) {
    win_size += pop.members_at(p).Size();
  }
  result.reserve(win_size + scan.winners.size());
  for (size_t p = filter.win_begin; p < filter.win_end; ++p) {
    pop.members_at(p).AppendTo(&result);
  }
  result.insert(result.end(), scan.winners.begin(), scan.winners.end());

  const obs::ObsTracer::Span split_span("exec.apply_split");
  const uint64_t cut_id =
      core::ApplyComparisonSplit(&pop, filter, std::move(scan), td);
  MarkZeroCost(node->Child(PlanOp::kApplySplit));
  // Cache only a cut of our own making: the predicate's separating point is
  // exactly there, so the chain sides stay exact across future inserts.
  // A no-split outcome (boundary-aligned predicate) is NOT cacheable — its
  // threshold lies somewhere in a value gap no retained cut pins down.
  if (fp != nullptr && cut_id != core::Pop::kNoCut) {
    pop.RememberComparison(*fp, cut_id);
  }
  return result;
}

std::vector<TupleId> Executor::RunBetween(PlanNode* node, const Trapdoor& td,
                                          const core::TrapdoorFp* fp,
                                          const core::ProbeSchedOptions& sopt) {
  static obs::Counter* const between_probes =
      obs::MetricsRegistry::Global().GetCounter("between.probes");
  static obs::Counter* const between_probe_trips =
      obs::MetricsRegistry::Global().GetCounter("between.probe_trips");
  const uint64_t probes0 = between_probes->value();
  const uint64_t probe_trips0 = between_probe_trips->value();
  const NodeCost cost(index_->db());
  std::vector<TupleId> result = index_->SelectBetween(td, fp, sopt);
  // Split the operation's QPF spend the way the Appendix-A phases do:
  // sampled probes (anchor hunt + end searches) vs end-partition scans. The
  // driver reports the probe phases' round trips itself (the scheduler
  // ships several probes per trip); the scan stage gets the remainder.
  const uint64_t probes = between_probes->value() - probes0;
  const uint64_t probe_trips = between_probe_trips->value() - probe_trips0;
  if (PlanNode* pn = node->Child(PlanOp::kQFilterProbe)) {
    pn->actual.executed = true;
    pn->actual.qpf_uses = probes;
    pn->actual.qpf_round_trips = probe_trips;
    ExecMetrics::Get().op[static_cast<size_t>(pn->op)]->Add(1);
  }
  if (PlanNode* sn = node->Child(PlanOp::kPartitionScan)) {
    sn->actual.executed = true;
    sn->actual.qpf_uses = cost.uses() - probes;
    sn->actual.qpf_round_trips = cost.round_trips() - probe_trips;
    ExecMetrics::Get().op[static_cast<size_t>(sn->op)]->Add(1);
  }
  MarkZeroCost(node->Child(PlanOp::kApplySplit));
  return result;
}

std::vector<TupleId> Executor::RunPredicateBody(Plan* plan, PlanNode* node) {
  const NodeCost cost(index_->db());
  std::vector<TupleId> result;
  if (node->op == PlanOp::kLinearScan) {
    // No knowledge base on this attribute: plain QPF scan.
    edbms::BaselineScanner scanner(index_->db(), index_->options().scan_policy());
    result = scanner.Select(plan->td(node->td_index));
    cost.Commit(node);
    return result;
  }
  assert(node->op == PlanOp::kPredicateSelect);
  const Trapdoor& td = plan->td(node->td_index);
  // Deferred inserts, flush route (DESIGN.md §14): place the whole buffer
  // before the probes run, so the chain the QFilter walks already covers
  // every tuple and the query needs no merge step.
  if (PlanNode* flush = node->Child(PlanOp::kBufferFlush)) {
    const NodeCost flush_cost(index_->db());
    index_->FlushBuffered(td.attr);
    flush_cost.Commit(flush);
  }
  const core::ProbeSchedOptions sopt = SchedFor(*index_, *plan);
  PlanNode* lookup = node->Child(PlanOp::kFastPathLookup);
  if (lookup == nullptr) {
    // Fast path disabled: always probe (the paper's literal algorithms).
    result = td.kind == edbms::PredicateKind::kBetween
                 ? RunBetween(node, td, nullptr, sopt)
                 : RunComparison(node, td, nullptr, sopt);
  } else {
    core::Pop& pop = index_->pop(td.attr);
    const obs::ObsTracer::Span lookup_span("exec.fast_path_lookup");
    const core::TrapdoorFp fp = core::FingerprintTrapdoor(td);
    if (const core::Pop::FastPathEntry* e = pop.LookupFastPath(fp)) {
      // The chain was already cut by this exact trapdoor: the answer is the
      // satisfied side of its cut(s). Zero QPF uses, no probes, no split.
      core::CacheMetrics::Get().hits->Add(1);
      MarkZeroCost(lookup, /*cache_hit=*/true);
      result = pop.AssembleFastPath(*e);
      node->actual.cache_hit = true;
    } else {
      core::CacheMetrics::Get().misses->Add(1);
      MarkZeroCost(lookup, /*cache_hit=*/false);
      result = td.kind == edbms::PredicateKind::kBetween
                   ? RunBetween(node, td, &fp, sopt)
                   : RunComparison(node, td, &fp, sopt);
    }
  }
  // Deferred inserts, scan route: the chain's answer misses the buffered
  // tuples, so the query stays exact by batch-testing the buffer and merging
  // its winners. Buffered tuples are off-chain by invariant (Pop::Validate),
  // so the merge can never duplicate a result.
  if (PlanNode* bscan = node->Child(PlanOp::kBufferScan)) {
    const NodeCost scan_cost(index_->db());
    const core::Pop& pop = index_->pop(td.attr);
    std::vector<TupleId> btids;
    pop.insert_buffer().AppendTo(&btids);
    const std::vector<uint8_t> sat = edbms::ScanTuples(
        index_->db(), td, btids, index_->options().scan_policy());
    for (size_t j = 0; j < btids.size(); ++j) {
      if (sat[j] != 0) result.push_back(btids[j]);
    }
    scan_cost.Commit(bscan);
    ExecMetrics::Get().buffered_scans->Add(1);
  }
  cost.Commit(node);
  return result;
}

std::vector<TupleId> Executor::RunIntersect(Plan* plan, PlanNode* node) {
  const NodeCost cost(index_->db());
  std::vector<TupleId> result;
  bool first = true;
  BitVector mask;
  for (PlanNode& child : node->children) {
    std::vector<TupleId> part;
    {
      // Each per-predicate subtree keeps the legacy nested span + per-op
      // accounting the SD+ loop produced by calling Select() per trapdoor.
      const obs::ObsTracer::Span span("prkb.select");
      StatsScope scope(index_->db(), nullptr, "select");
      part = RunPredicateBody(plan, &child);
    }
    if (first) {
      mask.Resize(index_->db()->num_rows());
      for (TupleId tid : part) mask.Set(tid);
      first = false;
    } else {
      BitVector m2(index_->db()->num_rows());
      for (TupleId tid : part) m2.Set(tid);
      mask.And(m2);
    }
  }
  if (!first) {
    for (uint32_t tid : mask.ToIndices()) result.push_back(tid);
  }
  cost.Commit(node);
  return result;
}

std::vector<TupleId> Executor::RunGridPrune(Plan* plan, PlanNode* node) {
  // Buffered dimensions flush before the grid runs: PRKB(MD) classifies by
  // chain membership, so every queried dimension must cover its tuples.
  for (PlanNode& child : node->children) {
    if (child.op != PlanOp::kBufferFlush) continue;
    const NodeCost flush_cost(index_->db());
    index_->FlushBuffered(child.attr);
    flush_cost.Commit(&child);
  }
  std::vector<const Trapdoor*> tds;
  tds.reserve(node->children.size());
  for (const PlanNode& child : node->children) {
    if (child.op != PlanOp::kQFilterProbe) continue;
    tds.push_back(&plan->td(child.td_index));
  }
  const NodeCost cost(index_->db());
  std::vector<TupleId> result = index_->RunMd(tds, SchedFor(*index_, *plan));
  cost.Commit(node);
  return result;
}

std::vector<TupleId> Executor::Run(Plan* plan, SelectionStats* stats) {
  static obs::LatencyHistogram* const qpf_rt_ns =
      obs::MetricsRegistry::Global().GetHistogram("qpf.round_trip_ns");
  PlanNode* root = &plan->root;
  ExecMetrics::Get().plan_runs->Add(1);
  const NodeCost plan_cost(index_->db());
  // Calibration signal: this run's share of the qpf.round_trip_ns histogram
  // gives the measured per-trip latency; the residual wall clock after that
  // share gives the per-eval cost. Concurrent executors smear each other's
  // deltas — acceptable for an EWMA of the same deployment-wide transport.
  const uint64_t rt_count0 = qpf_rt_ns->count();
  const uint64_t rt_sum0 = qpf_rt_ns->sum();
  const uint64_t t0 = obs::ObsTracer::NowNs();
  AltActuals alt_actuals;
  std::vector<TupleId> result;
  switch (root->op) {
    case PlanOp::kFullTable: {
      if (stats != nullptr) *stats = SelectionStats{};
      const edbms::Edbms* db = index_->db();
      for (TupleId tid = 0; tid < db->num_rows(); ++tid) {
        if (db->IsLive(tid)) result.push_back(tid);
      }
      MarkZeroCost(root);
      break;
    }
    case PlanOp::kEmptyResult: {
      if (stats != nullptr) *stats = SelectionStats{};
      MarkZeroCost(root);
      break;
    }
    case PlanOp::kLinearScan:
    case PlanOp::kPredicateSelect: {
      const obs::ObsTracer::Span span("prkb.select");
      StatsScope scope(index_->db(), stats, "select");
      result = RunPredicateBody(plan, root);
      break;
    }
    case PlanOp::kIntersect: {
      const obs::ObsTracer::Span span("prkb.select_sdplus");
      StatsScope scope(index_->db(), stats, "select_sdplus");
      result = RunIntersect(plan, root);
      break;
    }
    case PlanOp::kGridPrune: {
      StatsScope scope(index_->db(), stats, "select_md");
      result = RunGridPrune(plan, root);
      break;
    }
    case PlanOp::kAltSelect: {
      // An alternative route won the arbitration: it executes outside the
      // PRKB machinery and reports its own measured work. The StatsScope
      // inside the route (or the zero-fill below) keeps stats semantics.
      assert(plan->alt_route != nullptr);
      const obs::ObsTracer::Span span("exec.alt_select");
      result = plan->alt_route->Execute(root->attr, plan->alt_lo,
                                        plan->alt_hi, stats, &alt_actuals);
      root->actual.executed = true;
      root->actual.qpf_uses = alt_actuals.evals;
      root->actual.qpf_round_trips = alt_actuals.round_trips;
      ExecMetrics::Get().op[static_cast<size_t>(root->op)]->Add(1);
      break;
    }
    default:
      assert(false && "not a plan root");
      break;
  }
  const uint64_t wall_ns = obs::ObsTracer::NowNs() - t0;
  CostCalibrator& cal = index_->calibrator();
  if (root->op == PlanOp::kAltSelect) {
    // The route's own trip count against the whole wall clock, with its
    // per-candidate decrypts charged to the eval rate. No eval fit — the
    // route's evals are not QPF evaluations.
    cal.ObserveRoundTrips(alt_actuals.round_trips, wall_ns,
                          static_cast<double>(alt_actuals.evals));
  } else {
    const uint64_t trips = qpf_rt_ns->count() - rt_count0;
    const uint64_t trip_ns = qpf_rt_ns->sum() - rt_sum0;
    cal.ObserveRoundTrips(trips, trip_ns,
                          static_cast<double>(plan_cost.uses()));
    cal.ObservePlan(static_cast<double>(plan_cost.uses()),
                    static_cast<double>(plan_cost.round_trips()), wall_ns);
  }
  // Close the round-bus feedback loop: fold the transport's observed
  // coalescing factor into the fit the planner prices L/c from, and push
  // the fitted latency back down so the bus can re-derive its linger
  // window. Both are no-ops on direct backends (factor 1.0, empty
  // CalibrateTransport).
  cal.ObserveCoalescing(index_->db()->CoalescingFactor());
  index_->db()->CalibrateTransport(
      static_cast<uint64_t>(std::max(0.0, cal.rt_latency_ns())));
  if (root->has_estimate) {
    const double est = root->estimated.Total();
    const double err =
        std::abs(static_cast<double>(plan_cost.uses()) - est) /
        std::max(est, 1.0);
    ExecMetrics::Get().est_error_pct->Record(
        static_cast<uint64_t>(err * 100.0));
  }
  // Group-commit the chain mutations this plan produced. Run() is the one
  // funnel every selection path shares (PrkbIndex::Select* and the planner's
  // direct execution), so the WAL's one-fsync-per-logical-op contract holds
  // regardless of which layer drove the plan.
  if (core::PrkbWal* wal = index_->wal()) (void)wal->Commit();
  return result;
}

bool Executor::TryRunReadOnly(const core::PrkbIndex& index, const Plan& plan,
                              std::vector<TupleId>* out,
                              SelectionStats* stats) {
  const PlanNode& root = plan.root;
  switch (root.op) {
    case PlanOp::kLinearScan: {
      // No chain to mutate: the baseline scan is read-only w.r.t. the index
      // (the QPF oracle itself is thread-safe).
      const obs::ObsTracer::Span span("prkb.select");
      StatsScope scope(index.db_, stats, "select");
      edbms::BaselineScanner scanner(index.db_, index.options().scan_policy());
      *out = scanner.Select(plan.td(root.td_index));
      return true;
    }
    case PlanOp::kPredicateSelect: {
      // A planned buffer flush rewrites the chain: exclusive lock only.
      if (root.Child(PlanOp::kBufferFlush) != nullptr) return false;
      const Trapdoor& td = plan.td(root.td_index);
      const core::Pop& pop = index.pop(td.attr);
      if (pop.k() == 0 && pop.insert_buffer().Empty()) {
        const obs::ObsTracer::Span span("prkb.select");
        StatsScope scope(index.db_, stats, "select");
        out->clear();
        return true;
      }
      if (root.Child(PlanOp::kFastPathLookup) == nullptr) return false;
      const core::Pop::FastPathEntry* e =
          pop.LookupFastPath(core::FingerprintTrapdoor(td));
      // A miss bails out before spending any QPF; the exclusive retry both
      // answers and records the miss, so cache accounting stays single-count.
      if (e == nullptr) return false;
      const obs::ObsTracer::Span span("prkb.select");
      StatsScope scope(index.db_, stats, "select");
      core::CacheMetrics::Get().hits->Add(1);
      *out = pop.AssembleFastPath(*e);
      // The scan route mutates nothing: batch-test the buffer and merge, as
      // the exclusive path would. QPF evaluation is thread-safe.
      if (root.Child(PlanOp::kBufferScan) != nullptr &&
          !pop.insert_buffer().Empty()) {
        std::vector<TupleId> btids;
        pop.insert_buffer().AppendTo(&btids);
        const std::vector<uint8_t> sat = edbms::ScanTuples(
            index.db_, td, btids, index.options().scan_policy());
        for (size_t j = 0; j < btids.size(); ++j) {
          if (sat[j] != 0) out->push_back(btids[j]);
        }
        ExecMetrics::Get().buffered_scans->Add(1);
      }
      return true;
    }
    case PlanOp::kFullTable:
    case PlanOp::kEmptyResult:
      // Zero-QPF roots never mutate, but they are planner-level shapes the
      // shared-lock facade does not serve; fall through to the safe answer.
    default:
      return false;
  }
}

// ---- Plan builders --------------------------------------------------------

namespace {

PlanNode BuildPredicateNode(const core::PrkbIndex& index, const Plan& plan,
                            int i, bool estimate) {
  const Trapdoor& td = plan.td(i);
  const CostConstants cc = ConstantsFor(index, plan.probe_fanout);
  if (!index.IsEnabled(td.attr)) {
    PlanNode node(PlanOp::kLinearScan, td.attr, i);
    if (estimate) {
      node.estimated = EstimateLinearScan(index.db()->num_rows(), cc);
      node.has_estimate = true;
    }
    return node;
  }
  PlanNode node(PlanOp::kPredicateSelect, td.attr, i);
  const bool between = td.kind == edbms::PredicateKind::kBetween;

  CostEstimate full;
  bool cached = false;
  if (estimate) {
    const core::Pop& pop = index.pop(td.attr);
    full = between ? EstimateBetween(pop.k(), pop.num_tuples(), cc)
                   : EstimateComparison(pop.k(), pop.num_tuples(), cc);
    // Plan-time peek (no metrics): an already-cut trapdoor answers from the
    // chain alone. Hit/miss accounting happens at execution only.
    if (index.options().fast_path &&
        pop.LookupFastPath(core::FingerprintTrapdoor(td)) != nullptr) {
      full = CostEstimate{};
      cached = true;
      node.detail = "cached";
    }
  }

  // Deferred-insert routing (DESIGN.md §14, docs/COST_MODEL.md): a pending
  // buffer must be either flushed onto the chain or batch-scanned for this
  // query to stay exact. Flush pays its placement probes once; the scan
  // recurs on every query until someone flushes — so flush wins whenever its
  // one-off price is within buffer_flush_horizon of a single scan (always at
  // high transport latency, where the lock-step rounds dominate), and
  // unconditionally once the buffer hits the synchronous-flush cap.
  const size_t buffered = index.pop(td.attr).insert_buffer().Size();
  if (buffered != 0) {
    const CostEstimate flush_est =
        EstimateBufferFlush(buffered, index.pop(td.attr).k(), cc);
    const CostEstimate scan_est = EstimateBufferScan(buffered, cc);
    const bool cap_hit = index.options().max_buffered_inserts != 0 &&
                         buffered >= index.options().max_buffered_inserts;
    const bool flush =
        cap_hit || PriceNs(flush_est, cc) <=
                       cc.buffer_flush_horizon * PriceNs(scan_est, cc);
    PlanNode buf(flush ? PlanOp::kBufferFlush : PlanOp::kBufferScan, td.attr,
                 i);
    buf.detail = std::to_string(buffered) + " buffered";
    if (estimate) {
      buf.estimated = flush ? flush_est : scan_est;
      buf.has_estimate = true;
      full += buf.estimated;
    }
    node.children.push_back(std::move(buf));
  }

  if (index.options().fast_path) {
    PlanNode lookup(PlanOp::kFastPathLookup, td.attr, i);
    if (estimate) lookup.has_estimate = true;
    node.children.push_back(std::move(lookup));
  }
  PlanNode probe(PlanOp::kQFilterProbe, td.attr, i);
  if (between) probe.detail = "anchor+ends";
  PlanNode scan(PlanOp::kPartitionScan, td.attr, i);
  scan.detail = between ? "end-partitions" : "ns-pair";
  PlanNode split(PlanOp::kApplySplit, td.attr, i);
  if (estimate) {
    // Split the trip estimate the way the stages pay it: chunked scans get
    // ⌈scans/batch⌉, the filter rounds get the rest.
    const double scan_trips =
        cached ? 0.0 : std::ceil(full.scans / std::max(cc.scan_batch, 1.0));
    probe.estimated = CostEstimate{cached ? 0.0 : full.probes, 0.0,
                                   cached ? 0.0 : full.round_trips - scan_trips};
    probe.has_estimate = true;
    scan.estimated = CostEstimate{0.0, cached ? 0.0 : full.scans, scan_trips};
    scan.has_estimate = true;
    split.has_estimate = true;
    node.estimated = full;
    node.has_estimate = true;
  }
  node.children.push_back(std::move(probe));
  node.children.push_back(std::move(scan));
  node.children.push_back(std::move(split));
  return node;
}

}  // namespace

void BuildSingleSelectPlan(const core::PrkbIndex& index, Plan* plan,
                           bool estimate) {
  plan->root = BuildPredicateNode(index, *plan, 0, estimate);
  plan->summary = plan->td(0).kind == edbms::PredicateKind::kBetween
                      ? "prkb-between"
                      : "prkb-sd";
}

void BuildSdPlusPlan(const core::PrkbIndex& index, Plan* plan, bool estimate) {
  PlanNode root(PlanOp::kIntersect, 0, -1);
  root.children.reserve(plan->num_trapdoors());
  for (size_t i = 0; i < plan->num_trapdoors(); ++i) {
    PlanNode child =
        BuildPredicateNode(index, *plan, static_cast<int>(i), estimate);
    if (estimate) root.estimated += child.estimated;
    root.children.push_back(std::move(child));
  }
  root.has_estimate = estimate;
  plan->root = std::move(root);
  plan->summary =
      "prkb-sd+(" + std::to_string(plan->num_trapdoors()) + " trapdoors)";
}

void BuildMdGridPlan(const core::PrkbIndex& index, Plan* plan, bool estimate) {
  PlanNode root(PlanOp::kGridPrune, 0, -1);
  root.children.reserve(plan->num_trapdoors());
  const CostConstants cc = ConstantsFor(index, plan->probe_fanout);
  std::vector<MdDim> dims;
  for (size_t i = 0; i < plan->num_trapdoors(); ++i) {
    const Trapdoor& td = plan->td(static_cast<int>(i));
    assert(td.kind == edbms::PredicateKind::kComparison &&
           index.IsEnabled(td.attr));
    // A buffered dimension always flushes: the grid classifies by chain
    // membership, so its tuples must be on the chain before pruning.
    const size_t buffered = index.pop(td.attr).insert_buffer().Size();
    if (buffered != 0) {
      PlanNode flush(PlanOp::kBufferFlush, td.attr, static_cast<int>(i));
      flush.detail = std::to_string(buffered) + " buffered";
      if (estimate) {
        flush.estimated =
            EstimateBufferFlush(buffered, index.pop(td.attr).k(), cc);
        flush.has_estimate = true;
        root.estimated += flush.estimated;
      }
      root.children.push_back(std::move(flush));
    }
    PlanNode child(PlanOp::kQFilterProbe, td.attr, static_cast<int>(i));
    if (estimate) {
      const core::Pop& pop = index.pop(td.attr);
      bool cached =
          index.options().fast_path &&
          pop.LookupFastPath(core::FingerprintTrapdoor(td)) != nullptr;
      if (cached) {
        child.detail = "cached";
      } else {
        dims.push_back(MdDim{pop.k(), pop.num_tuples()});
        // Per-dimension filter trips; the root pays only the fused max.
        child.estimated = CostEstimate{
            EstimateComparison(pop.k(), pop.num_tuples(), cc).probes, 0.0,
            std::min(static_cast<double>(pop.k()),
                     1.0 + CeilLogM(pop.k(), cc.probe_fanout))};
      }
      child.has_estimate = true;
    }
    root.children.push_back(std::move(child));
  }
  if (estimate) {
    // += keeps any buffer-flush children's estimates accumulated above.
    root.estimated += EstimateMdGrid(dims, cc);
    root.has_estimate = true;
  }
  plan->root = std::move(root);
  plan->summary =
      "prkb-md(" + std::to_string(plan->num_trapdoors()) + " trapdoors)";
}

void BuildFullTablePlan(Plan* plan) {
  plan->root = PlanNode(PlanOp::kFullTable, 0, -1);
  plan->root.has_estimate = true;
  plan->summary = "full-table(no predicate)";
}

void BuildEmptyPlan(Plan* plan) {
  plan->root = PlanNode(PlanOp::kEmptyResult, 0, -1);
  plan->root.has_estimate = true;
  plan->summary = "empty(contradiction)";
}

}  // namespace prkb::exec
