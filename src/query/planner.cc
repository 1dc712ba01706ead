#include "query/planner.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "exec/executor.h"
#include "obs/trace.h"
#include "prkb/selection.h"
#include "query/parser.h"

namespace prkb::query {

using edbms::Trapdoor;
using edbms::TupleId;
using edbms::Value;

void Catalog::RegisterTable(const std::string& table,
                            const std::vector<std::string>& columns) {
  auto& cols = tables_[table];
  for (size_t i = 0; i < columns.size(); ++i) {
    cols[columns[i]] = static_cast<edbms::AttrId>(i);
  }
}

Result<edbms::AttrId> Catalog::ResolveColumn(const std::string& table,
                                             const std::string& column) const {
  const auto t = tables_.find(table);
  if (t == tables_.end()) {
    return Status::NotFound("unknown table '" + table + "'");
  }
  const auto c = t->second.find(column);
  if (c == t->second.end()) {
    return Status::NotFound("unknown column '" + column + "'");
  }
  return c->second;
}

Result<ExecutionResult> Planner::ExecuteSql(const std::string& sql) {
  PRKB_ASSIGN_OR_RETURN(SelectStatement stmt, Parse(sql));
  return Execute(stmt);
}

namespace {

/// All conditions of one attribute, in first-appearance order.
struct AttrGroup {
  edbms::AttrId attr = 0;
  std::string column;
  std::vector<Condition> conds;
};

/// One predicate of the collapsed conjunction: what to compile into a
/// trapdoor plus its plaintext rendering for EXPLAIN.
struct CollapsedPred {
  edbms::AttrId attr = 0;
  Condition cond;
  std::string detail;
};

const char* OpText(edbms::CompareOp op) {
  switch (op) {
    case edbms::CompareOp::kLt:
      return "<";
    case edbms::CompareOp::kGt:
      return ">";
    case edbms::CompareOp::kLe:
      return "<=";
    case edbms::CompareOp::kGe:
      return ">=";
  }
  return "?";
}

std::string Describe(const std::string& column, const Condition& cond) {
  if (cond.kind == Condition::Kind::kBetween) {
    return column + " BETWEEN " + std::to_string(cond.lo) + " AND " +
           std::to_string(cond.hi);
  }
  return column + " " + OpText(cond.op) + " " + std::to_string(cond.lo);
}

/// Collapses ≥2 same-attribute conditions into one interval. Returns false
/// on a provable contradiction (empty interval). The bounds are inclusive;
/// strict comparisons tighten by one with care at the domain extremes.
bool CollapseGroup(const AttrGroup& group, CollapsedPred* out) {
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  bool has_lo = false;
  bool has_hi = false;
  Value lo = kMin;
  Value hi = kMax;
  for (const Condition& cond : group.conds) {
    if (cond.kind == Condition::Kind::kBetween) {
      if (!has_lo || cond.lo > lo) lo = cond.lo;
      if (!has_hi || cond.hi < hi) hi = cond.hi;
      has_lo = has_hi = true;
      continue;
    }
    switch (cond.op) {
      case edbms::CompareOp::kLt:
        if (cond.lo == kMin) return false;  // x < MIN: empty
        if (!has_hi || cond.lo - 1 < hi) hi = cond.lo - 1;
        has_hi = true;
        break;
      case edbms::CompareOp::kLe:
        if (!has_hi || cond.lo < hi) hi = cond.lo;
        has_hi = true;
        break;
      case edbms::CompareOp::kGt:
        if (cond.lo == kMax) return false;  // x > MAX: empty
        if (!has_lo || cond.lo + 1 > lo) lo = cond.lo + 1;
        has_lo = true;
        break;
      case edbms::CompareOp::kGe:
        if (!has_lo || cond.lo > lo) lo = cond.lo;
        has_lo = true;
        break;
    }
  }
  if (has_lo && has_hi && lo > hi) return false;

  out->attr = group.attr;
  if (has_lo && has_hi) {
    out->cond.kind = Condition::Kind::kBetween;
    out->cond.lo = lo;
    out->cond.hi = hi;
  } else {
    out->cond.kind = Condition::Kind::kComparison;
    out->cond.op = has_hi ? edbms::CompareOp::kLe : edbms::CompareOp::kGe;
    out->cond.lo = has_hi ? hi : lo;
  }
  out->detail = Describe(group.column, out->cond) + " (collapsed " +
                std::to_string(group.conds.size()) + " conjuncts)";
  return true;
}

/// Scheduler fanouts worth trying for one route. While the calibrated
/// round-trip latency is below the batching floor — loopback deployments
/// stay there forever, hinted or freshly-measured remote ones don't — m only
/// inflates QPF uses, so keep the index default (0). Above the floor, search
/// the grid and let PriceNs trade probe inflation against trip savings per
/// route. Reading the calibrator (not the static hint) is what lets a
/// mid-run latency shift open or close the fanout search without a restart.
std::vector<size_t> CandidateFanouts(const core::PrkbIndex& index) {
  if (index.calibrator().rt_latency_ns() <
      exec::CostCalibrator::kCalibratedFanoutFloorNs) {
    return {0};
  }
  return {2, 4, 8, 16};
}

using BuildFn = void (*)(const core::PrkbIndex&, exec::Plan*, bool);

/// Builds `build`'s route once per candidate m and keeps the cheapest by
/// PriceNs. The winning plan carries its m in Plan::probe_fanout, which the
/// executor threads into the probe scheduler.
exec::Plan BuildBestPlan(const core::PrkbIndex& index,
                         const std::vector<Trapdoor>& tds, BuildFn build) {
  exec::Plan best;
  double best_price = std::numeric_limits<double>::infinity();
  for (size_t m : CandidateFanouts(index)) {
    exec::Plan plan;
    std::vector<Trapdoor> copy = tds;
    plan.AdoptTrapdoors(std::move(copy));
    plan.probe_fanout = m;
    build(index, &plan, /*estimate=*/true);
    const double price =
        exec::PriceNs(plan.root.estimated, exec::ConstantsFor(index, m));
    if (price < best_price) {
      best_price = price;
      best = std::move(plan);
    }
  }
  return best;
}

/// The winning plan's wall-clock price, for cross-route comparison.
double PlanPrice(const core::PrkbIndex& index, const exec::Plan& plan) {
  return exec::PriceNs(plan.root.estimated,
                       exec::ConstantsFor(index, plan.probe_fanout));
}

/// Inclusive value range of one collapsed predicate, for the alternative
/// routes (which think in [lo, hi] rather than trapdoors). `ok` is false
/// when the condition denotes a provably-empty interval.
struct PredRange {
  Value lo = 0;
  Value hi = 0;
  bool ok = false;
};

PredRange RangeOf(const Condition& cond) {
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  PredRange r;
  if (cond.kind == Condition::Kind::kBetween) {
    r.lo = cond.lo;
    r.hi = cond.hi;
    r.ok = cond.lo <= cond.hi;
    return r;
  }
  switch (cond.op) {
    case edbms::CompareOp::kLt:
      if (cond.lo == kMin) return r;  // x < MIN: empty
      r.lo = kMin;
      r.hi = cond.lo - 1;
      break;
    case edbms::CompareOp::kLe:
      r.lo = kMin;
      r.hi = cond.lo;
      break;
    case edbms::CompareOp::kGt:
      if (cond.lo == kMax) return r;  // x > MAX: empty
      r.lo = cond.lo + 1;
      r.hi = kMax;
      break;
    case edbms::CompareOp::kGe:
      r.lo = cond.lo;
      r.hi = kMax;
      break;
  }
  r.ok = true;
  return r;
}

void AttachDetail(exec::PlanNode* node, const std::string& desc) {
  node->detail = node->detail.empty() ? desc : desc + "; " + node->detail;
}

/// Writes each predicate's plaintext onto its plan node: the root for a
/// single-predicate plan, the per-predicate children for SD+ and MD roots.
void AnnotatePlan(exec::Plan* plan, const std::vector<CollapsedPred>& preds) {
  if (plan->root.td_index >= 0) {
    AttachDetail(&plan->root, preds[0].detail);
    return;
  }
  for (exec::PlanNode& child : plan->root.children) {
    if (child.td_index >= 0) {
      AttachDetail(&child, preds[static_cast<size_t>(child.td_index)].detail);
    }
  }
}

}  // namespace

Result<ExecutionResult> Planner::Execute(const SelectStatement& stmt) {
  if (!catalog_->HasTable(stmt.table)) {
    return Status::NotFound("unknown table '" + stmt.table + "'");
  }

  // Group the conjuncts by attribute (first-appearance order).
  std::vector<AttrGroup> groups;
  for (const Condition& cond : stmt.conditions) {
    PRKB_ASSIGN_OR_RETURN(edbms::AttrId attr,
                          catalog_->ResolveColumn(stmt.table, cond.column));
    AttrGroup* group = nullptr;
    for (AttrGroup& g : groups) {
      if (g.attr == attr) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      groups.push_back(AttrGroup{attr, cond.column, {}});
      group = &groups.back();
    }
    group->conds.push_back(cond);
  }

  // Collapse each attribute's conditions. A lone condition passes through
  // verbatim (identical trapdoor bytes → identical fast-path fingerprints);
  // two or more become one interval or a provable contradiction.
  bool contradiction = false;
  std::vector<CollapsedPred> preds;
  preds.reserve(groups.size());
  for (const AttrGroup& group : groups) {
    CollapsedPred pred;
    if (group.conds.size() == 1) {
      pred.attr = group.attr;
      pred.cond = group.conds[0];
      pred.detail = Describe(group.column, pred.cond);
    } else if (!CollapseGroup(group, &pred)) {
      contradiction = true;
      break;
    }
    preds.push_back(std::move(pred));
  }

  ExecutionResult out;
  out.explain_only = stmt.explain;
  // Cheapest losing competitor of whichever route competition ran below —
  // the reference the winner's actual wall-clock is judged against.
  bool have_runner = false;
  exec::CostEstimate runner_est;
  size_t runner_fanout = 0;
  const auto finish = [&]() -> Result<ExecutionResult> {
    out.plan = out.physical.summary;
    if (!stmt.explain) {
      const uint64_t t0 = obs::ObsTracer::NowNs();
      out.rows = exec::Executor(index_).Run(&out.physical, &out.stats);
      const uint64_t wall_ns = obs::ObsTracer::NowNs() - t0;
      // A remote QPF backend that died mid-query answers remaining probes
      // fail-closed (all-false), which would read as an empty result.
      // Surface the transport failure as the query's status instead.
      PRKB_RETURN_IF_ERROR(db_->Health());
      // Route feedback: re-price the winner's estimate at the per-trip
      // latency this very run realized (wall minus the eval-compute share,
      // over the trips it actually made), so the error EWMA captures
      // *structural* estimator error — wrong trip or eval counts — and not
      // a latency fit that lagged a mid-run transport shift. Without this,
      // the route that merely ran first after a shift would absorb the
      // whole surprise as a frozen penalty and never be retried.
      if (have_runner && !out.physical.route.empty()) {
        exec::CostConstants cc_run =
            exec::ConstantsFor(*index_, out.physical.probe_fanout);
        const uint64_t atrips = out.physical.root.actual.qpf_round_trips;
        if (atrips > 0) {
          const double compute =
              static_cast<double>(out.physical.root.actual.qpf_uses) *
              cc_run.eval_ns;
          cc_run.round_trip_latency_ns =
              std::max(0.0, static_cast<double>(wall_ns) - compute) /
              static_cast<double>(atrips);
        }
        const double est_now =
            exec::PriceNs(out.physical.root.estimated, cc_run);
        const double runner_now = exec::PriceNs(
            runner_est, exec::ConstantsFor(*index_, runner_fanout));
        index_->calibrator().ObserveRoute(out.physical.route, est_now,
                                          static_cast<double>(wall_ns),
                                          runner_now);
      }
    }
    return std::move(out);
  };

  if (contradiction) {
    exec::BuildEmptyPlan(&out.physical);
    return finish();
  }
  if (preds.empty()) {
    exec::BuildFullTablePlan(&out.physical);
    return finish();
  }

  // DO role: compile the collapsed predicates into trapdoors.
  std::vector<Trapdoor> tds;
  tds.reserve(preds.size());
  bool md_capable = true;
  for (const CollapsedPred& pred : preds) {
    if (pred.cond.kind == Condition::Kind::kBetween) {
      tds.push_back(db_->MakeBetween(pred.attr, pred.cond.lo, pred.cond.hi));
      md_capable = false;
    } else {
      tds.push_back(db_->MakeComparison(pred.attr, pred.cond.op, pred.cond.lo));
    }
    if (!index_->IsEnabled(pred.attr)) md_capable = false;
  }

  if (tds.size() == 1) {
    out.physical = BuildBestPlan(*index_, tds, exec::BuildSingleSelectPlan);
    out.physical.route = "prkb";
    AnnotatePlan(&out.physical, preds);
    // Hybrid arbitration (only with SRC-i / OPE routes registered — the
    // classic planner output is byte-identical otherwise): the PRKB plan
    // becomes one costed alternative among several. Every competitor is
    // priced under the same calibrated constants; the comparison scales each
    // price by the calibrator's per-route penalty, demoting routes whose
    // actuals keep losing to the runner-up's estimate (docs/COST_MODEL.md).
    if (!alt_routes_.empty()) {
      exec::CostCalibrator& cal = index_->calibrator();
      std::vector<exec::Plan::Alternative> alts;
      {
        exec::Plan::Alternative prkb;
        prkb.name = "prkb";
        prkb.estimated = out.physical.root.estimated;
        prkb.fanout = out.physical.probe_fanout;
        prkb.price_ns = PlanPrice(*index_, out.physical);
        prkb.chosen = true;
        alts.push_back(std::move(prkb));
      }
      double best_penalized = alts[0].price_ns * cal.RoutePenalty("prkb");
      size_t chosen = 0;
      exec::AltRoute* winner = nullptr;
      const PredRange range = RangeOf(preds[0].cond);
      const exec::CostConstants cc = exec::ConstantsFor(*index_);
      for (exec::AltRoute* route : alt_routes_) {
        if (!range.ok || !route->Handles(preds[0].attr)) continue;
        exec::Plan::Alternative alt;
        alt.name = route->name();
        alt.estimated = route->Estimate(preds[0].attr, range.lo, range.hi, cc);
        alt.price_ns = exec::PriceNs(alt.estimated, cc);
        alt.admissible = route->Admissible();
        const double penalized = alt.price_ns * cal.RoutePenalty(alt.name);
        const bool admissible = alt.admissible;
        alts.push_back(std::move(alt));
        if (admissible && penalized < best_penalized) {
          best_penalized = penalized;
          chosen = alts.size() - 1;
          winner = route;
        }
      }
      if (winner != nullptr) {
        alts[0].chosen = false;
        alts[chosen].chosen = true;
        exec::Plan alt_plan;
        alt_plan.root =
            exec::PlanNode(exec::PlanOp::kAltSelect, preds[0].attr, /*td=*/-1);
        alt_plan.root.detail = preds[0].detail;
        alt_plan.root.estimated = alts[chosen].estimated;
        alt_plan.root.has_estimate = true;
        alt_plan.summary = alts[chosen].name + "-range";
        alt_plan.route = alts[chosen].name;
        alt_plan.alt_route = winner;
        alt_plan.alt_lo = range.lo;
        alt_plan.alt_hi = range.hi;
        out.physical = std::move(alt_plan);
      }
      // Runner-up = cheapest admissible loser, by un-penalized price.
      double best_loser = std::numeric_limits<double>::infinity();
      for (const exec::Plan::Alternative& alt : alts) {
        if (alt.chosen || !alt.admissible) continue;
        if (alt.price_ns < best_loser) {
          best_loser = alt.price_ns;
          runner_est = alt.estimated;
          runner_fanout = alt.fanout;
          have_runner = true;
        }
      }
      out.physical.alternatives = std::move(alts);
    }
    return finish();
  }

  // SP role: enumerate the multi-predicate routes (each already carrying its
  // best scheduler m) and keep the cheapest by PriceNs — with no latency
  // hint this degenerates to the paper's pure QPF-use ranking. SD+ always
  // applies; the MD grid additionally requires comparisons-only over enabled
  // attributes. Ties go to MD (Sec. 6).
  exec::Plan sd_plan = BuildBestPlan(*index_, tds, exec::BuildSdPlusPlan);
  sd_plan.route = "prkb-sd+";
  if (md_capable) {
    exec::Plan md_plan = BuildBestPlan(*index_, tds, exec::BuildMdGridPlan);
    md_plan.route = "prkb-md";
    // The pick stays a plain price comparison (no penalty scaling — the
    // paper's deterministic MD-preferred ranking is load-bearing for the
    // differential suites); the loser is still recorded so the calibrator's
    // cal.route.* regret accounting covers the MD/SD+ competition too.
    const bool md_wins =
        PlanPrice(*index_, md_plan) <= PlanPrice(*index_, sd_plan);
    const exec::Plan& loser = md_wins ? sd_plan : md_plan;
    runner_est = loser.root.estimated;
    runner_fanout = loser.probe_fanout;
    have_runner = true;
    out.physical = md_wins ? std::move(md_plan) : std::move(sd_plan);
  } else {
    out.physical = std::move(sd_plan);
  }
  AnnotatePlan(&out.physical, preds);
  return finish();
}

}  // namespace prkb::query
