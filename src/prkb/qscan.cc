#include "prkb/qscan.h"

#include <cassert>
#include <span>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace prkb::core {
namespace {

/// QScan telemetry: tuples_scanned is the n/k-bound exhaustive work the
/// paper charges per NS partition; early stops track how often the second
/// scan is saved (docs/COST_MODEL.md).
struct QScanMetrics {
  obs::Counter* invocations;
  obs::Counter* tuples_scanned;
  obs::Counter* partitions_scanned;
  obs::Counter* early_stops;
  obs::LatencyHistogram* early_stop_pos;

  static const QScanMetrics& Get() {
    static const QScanMetrics m = {
        obs::MetricsRegistry::Global().GetCounter("qscan.invocations"),
        obs::MetricsRegistry::Global().GetCounter("qscan.tuples_scanned"),
        obs::MetricsRegistry::Global().GetCounter("qscan.partitions_scanned"),
        obs::MetricsRegistry::Global().GetCounter("qscan.early_stops"),
        obs::MetricsRegistry::Global().GetHistogram("qscan.early_stop_pos"),
    };
    return m;
  }
};

}  // namespace

void ScanPartitionExact(const Pop& pop, size_t pos, const edbms::Trapdoor& td,
                        edbms::QpfOracle* qpf,
                        const edbms::BatchPolicy& policy,
                        std::vector<edbms::TupleId>* true_out,
                        std::vector<edbms::TupleId>* false_out,
                        PrepaidScan* prepaid) {
  // The partition's slice of the chain layout, ascending. Nothing mutates
  // the chain until the scan is done.
  const std::span<const edbms::TupleId> members = pop.tuples(pos, pos + 1);
  const QScanMetrics& metrics = QScanMetrics::Get();
  metrics.partitions_scanned->Add(1);
  metrics.tuples_scanned->Add(members.size());
  // Consume speculatively prefetched outcomes: they cover a member-order
  // prefix, so the appended bits are identical to a fresh scan's.
  size_t start = 0;
  if (prepaid != nullptr) {
    const auto it = prepaid->by_pos.find(pos);
    if (it != prepaid->by_pos.end()) {
      for (const PrepaidScan::Outcome& o : it->second) {
        if (start >= members.size() || members[start] != o.tid) break;
        (o.output ? true_out : false_out)->push_back(o.tid);
        ++start;
        ++prepaid->consumed;
      }
    }
  }
  const std::span<const edbms::TupleId> rest = members.subspan(start);
  if (rest.empty()) return;
  if (!policy.batched() && !policy.parallel()) {
    for (edbms::TupleId tid : rest) {
      if (qpf->Eval(td, tid)) {
        true_out->push_back(tid);
      } else {
        false_out->push_back(tid);
      }
    }
    return;
  }
  const std::vector<uint8_t> hit = ScanTuples(qpf, td, rest, policy);
  for (size_t i = 0; i < rest.size(); ++i) {
    (hit[i] ? true_out : false_out)->push_back(rest[i]);
  }
}

QScanResult QScan(const Pop& pop, const QFilterResult& filter,
                  const edbms::Trapdoor& td, edbms::QpfOracle* qpf,
                  const edbms::BatchPolicy& policy, PrepaidScan* prepaid) {
  const obs::ObsTracer::Span span("qscan.ns_pair");
  const QScanMetrics& metrics = QScanMetrics::Get();
  metrics.invocations->Add(1);
  QScanResult out;

  // ---- First scan Pa (line 2) ----
  std::vector<edbms::TupleId> a_true, a_false;
  ScanPartitionExact(pop, filter.ns_a, td, qpf, policy, &a_true, &a_false,
                     prepaid);
  out.winners = a_true;

  const bool a_mixed = !a_true.empty() && !a_false.empty();
  if (a_mixed) {
    // Early stop (lines 9-13): Pa is the separating partition; Pb is
    // homogeneous with the label QFilter sampled on the far end.
    metrics.early_stops->Add(1);
    metrics.early_stop_pos->Record(filter.ns_a);
    out.split_found = true;
    out.split_pos = filter.ns_a;
    out.split_true = std::move(a_true);
    out.split_false = std::move(a_false);
    if (filter.ns_b != filter.ns_a && filter.label_last) {
      const std::span<const edbms::TupleId> partner =
          pop.tuples(filter.ns_b, filter.ns_b + 1);
      out.winners.insert(out.winners.end(), partner.begin(), partner.end());
    }
    return out;
  }

  // Pa homogeneous: scan Pb as well (lines 4-7), unless k == 1 made the
  // "pair" a single partition.
  out.a_label = !a_true.empty();
  if (filter.ns_b == filter.ns_a) return out;

  std::vector<edbms::TupleId> b_true, b_false;
  ScanPartitionExact(pop, filter.ns_b, td, qpf, policy, &b_true, &b_false,
                     prepaid);
  out.scanned_b = true;
  out.winners.insert(out.winners.end(), b_true.begin(), b_true.end());

  if (!b_true.empty() && !b_false.empty()) {
    out.split_found = true;
    out.split_pos = filter.ns_b;
    out.split_true = std::move(b_true);
    out.split_false = std::move(b_false);
  }
  return out;
}

}  // namespace prkb::core
