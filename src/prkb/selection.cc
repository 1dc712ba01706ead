#include "prkb/selection.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "exec/executor.h"
#include "obs/trace.h"

namespace prkb::core {

using edbms::SelectionStats;
using edbms::StatsScope;
using edbms::Trapdoor;
using edbms::TupleId;

const CacheMetrics& CacheMetrics::Get() {
  static const CacheMetrics m = {
      obs::MetricsRegistry::Global().GetCounter("prkb.cache.hits"),
      obs::MetricsRegistry::Global().GetCounter("prkb.cache.misses"),
  };
  return m;
}

PrkbIndex::PrkbIndex(edbms::Edbms* db, PrkbOptions options)
    : db_(db),
      options_(options),
      // Configured starting points; the executor's feedback takes over after
      // the warmup floor (not a query path — ConstantsFor(index) is).
      calibrator_(exec::CostConstants::Defaults().eval_ns,
                  options.rt_latency_hint_ns) {}

void PrkbIndex::EnableAttr(edbms::AttrId attr) {
  std::vector<TupleId> live;
  live.reserve(db_->num_rows());
  for (TupleId tid = 0; tid < db_->num_rows(); ++tid) {
    if (db_->IsLive(tid)) live.push_back(tid);
  }
  Pop& pop = pops_[attr];
  // Hook the chain to the WAL before initPRKB so the bootstrap init record
  // lands in the log (replay needs it to recreate the chain).
  if (wal_ != nullptr) WalHookAttr(attr);
  pop.InitSingle(live);
}

uint64_t ApplyComparisonSplit(Pop* pop, const QFilterResult& filter,
                              QScanResult&& scan, const Trapdoor& td) {
  if (!scan.split_found) return Pop::kNoCut;

  const size_t s = scan.split_pos;
  bool true_half_left;  // does split_true become the chain-left half?
  if (pop->k() == 1) {
    // First split ever: both orientations are consistent scenarios
    // (Sec. 4); pick F ↦ T by convention.
    true_half_left = false;
  } else if (s == filter.ns_b) {
    // Pa was scanned homogeneous; it is (or is output-isomorphic to) the
    // left neighbour, so the half matching its label sits next to it.
    true_half_left = scan.a_label;
  } else if (s > 0) {
    // s == ns_a with a left neighbour outside the NS pair: that side is
    // homogeneous with label1.
    true_half_left = filter.label_first;
  } else {
    // s == 0: orient against the right neighbour, which is homogeneous with
    // labelk in both the boundary and the recursive case.
    true_half_left = !filter.label_last;
  }

  std::vector<TupleId> left = true_half_left ? std::move(scan.split_true)
                                             : std::move(scan.split_false);
  std::vector<TupleId> right = true_half_left ? std::move(scan.split_false)
                                              : std::move(scan.split_true);
  const PartitionId pid = pop->pid_at(s);
  return pop->SplitPartition(pid, left, right, td,
                             /*left_label=*/true_half_left);
}

std::vector<TupleId> PrkbIndex::Select(const Trapdoor& td,
                                       SelectionStats* stats) {
  // Thin plan-builder: the selection pipeline itself (fast-path consult,
  // QFilter → QScan → updatePRKB, span + StatsScope accounting) lives in the
  // shared executor. Plan construction is pure — no QPF, no RNG.
  exec::Plan plan;
  plan.BorrowTrapdoor(&td);
  exec::BuildSingleSelectPlan(*this, &plan, /*estimate=*/false);
  return exec::Executor(this).Run(&plan, stats);
}

bool PrkbIndex::TrySelectShared(const Trapdoor& td, std::vector<TupleId>* out,
                                SelectionStats* stats) const {
  // "The chosen plan is read-only": the executor runs the plan only when it
  // provably cannot mutate the chain, and bails (false) otherwise.
  exec::Plan plan;
  plan.BorrowTrapdoor(&td);
  exec::BuildSingleSelectPlan(*this, &plan, /*estimate=*/false);
  return exec::Executor::TryRunReadOnly(*this, plan, out, stats);
}

std::vector<TupleId> PrkbIndex::SelectRangeSdPlus(
    const std::vector<Trapdoor>& tds, SelectionStats* stats) {
  exec::Plan plan;
  for (const Trapdoor& td : tds) plan.BorrowTrapdoor(&td);
  exec::BuildSdPlusPlan(*this, &plan, /*estimate=*/false);
  return exec::Executor(this).Run(&plan, stats);
}

std::vector<TupleId> PrkbIndex::SelectRangeMd(const std::vector<Trapdoor>& tds,
                                              SelectionStats* stats) {
  // The grid algorithm requires comparison trapdoors on enabled attributes;
  // anything else routes through the SD+ path, which handles every case.
  bool md_capable = !tds.empty();
  for (const Trapdoor& td : tds) {
    if (td.kind != edbms::PredicateKind::kComparison || !IsEnabled(td.attr)) {
      md_capable = false;
      break;
    }
  }
  if (md_capable) {
    exec::Plan plan;
    for (const Trapdoor& td : tds) plan.BorrowTrapdoor(&td);
    exec::BuildMdGridPlan(*this, &plan, /*estimate=*/false);
    // The GridPrune root owns the select_md StatsScope.
    return exec::Executor(this).Run(&plan, stats);
  }
  // Fallback keeps the legacy nested accounting: the select_md scope wraps
  // the whole operation, the Intersect root adds its own select_sdplus one.
  StatsScope scope(db_, stats, "select_md");
  exec::Plan plan;
  for (const Trapdoor& td : tds) plan.BorrowTrapdoor(&td);
  exec::BuildSdPlusPlan(*this, &plan, /*estimate=*/false);
  return exec::Executor(this).Run(&plan, nullptr);
}

PrkbIndex::ChainStats PrkbIndex::StatsFor(edbms::AttrId attr) const {
  const Pop& pop = pops_.at(attr);
  ChainStats st;
  st.attr = attr;
  st.k = pop.k();
  st.tuples = pop.num_tuples();
  st.bytes = pop.SizeBytes();
  if (pop.k() > 0) {
    st.min_partition = pop.size_at(0);
    for (size_t p = 0; p < pop.k(); ++p) {
      const size_t sz = pop.size_at(p);
      st.min_partition = std::min(st.min_partition, sz);
      st.max_partition = std::max(st.max_partition, sz);
    }
    st.mean_partition =
        static_cast<double>(st.tuples) / static_cast<double>(st.k);
  }
  for (const Pop::Cut& cut : pop.cuts()) {
    if (cut.dropped) continue;
    ++st.cuts;
    st.insert_usable_cuts += cut.UsableForInsert();
  }
  return st;
}

std::string PrkbIndex::DescribeStats() const {
  std::string out;
  for (edbms::AttrId attr : EnabledAttrs()) {
    const ChainStats st = StatsFor(attr);
    char line[192];
    std::snprintf(line, sizeof(line),
                  "attr %u: k=%zu tuples=%zu partition(min/mean/max)="
                  "%zu/%.1f/%zu cuts=%zu(usable %zu) bytes=%zu\n",
                  st.attr, st.k, st.tuples, st.min_partition,
                  st.mean_partition, st.max_partition, st.cuts,
                  st.insert_usable_cuts, st.bytes);
    out += line;
  }
  return out;
}

std::vector<edbms::AttrId> PrkbIndex::EnabledAttrs() const {
  std::vector<edbms::AttrId> attrs;
  attrs.reserve(pops_.size());
  for (const auto& [attr, pop] : pops_) attrs.push_back(attr);
  std::sort(attrs.begin(), attrs.end());
  return attrs;
}

size_t PrkbIndex::SizeBytes() const {
  // Publishing the membership gauges here keeps them fresh wherever the
  // footprint is actually observed (stats reports, Table 3 benches) —
  // docs/OBSERVABILITY.md `memberset.{containers,bytes}`.
  static obs::Gauge* g_containers =
      obs::MetricsRegistry::Global().GetGauge("memberset.containers");
  static obs::Gauge* g_bytes =
      obs::MetricsRegistry::Global().GetGauge("memberset.bytes");
  size_t total = 0;
  size_t containers = 0;
  size_t member_bytes = 0;
  for (const auto& [attr, pop] : pops_) {
    total += pop.SizeBytes();
    containers += pop.MembershipContainers();
    member_bytes += pop.MembershipBytes();
  }
  g_containers->Set(static_cast<int64_t>(containers));
  g_bytes->Set(static_cast<int64_t>(member_bytes));
  return total;
}

}  // namespace prkb::core
