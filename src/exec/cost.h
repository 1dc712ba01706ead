#ifndef PRKB_EXEC_COST_H_
#define PRKB_EXEC_COST_H_

#include <cstddef>
#include <vector>

namespace prkb::exec {

/// Estimated QPF spend of one plan operator, split the way the paper (and
/// docs/COST_MODEL.md) splits every selection cost: sampled probes (QFilter
/// searches, BETWEEN anchor hunts) versus exhaustive-scan evaluations (NS
/// partitions, end partitions, MD bands). Unit: QPF uses. `round_trips`
/// prices the same work in backend entries — with the m-ary probe scheduler
/// the two axes diverge (more probes, far fewer trips), and PriceNs combines
/// them under a transport-latency assumption.
struct CostEstimate {
  double probes = 0.0;
  double scans = 0.0;
  double round_trips = 0.0;

  double Total() const { return probes + scans; }
  CostEstimate& operator+=(const CostEstimate& o) {
    probes += o.probes;
    scans += o.scans;
    round_trips += o.round_trips;
    return *this;
  }
};

/// Calibratable constants behind the estimate formulas. The defaults are
/// fitted against the paper's bounds and this repo's bench JSON — see
/// "Calibrating the estimator" in docs/COST_MODEL.md for the re-fitting
/// procedure; the tests in tests/exec_test.cc golden-pin the formulas.
struct CostConstants {
  /// The additive term of the QFilter bound 2 + ⌈lg k⌉ (Sec. 6.1).
  double qfilter_overhead = 2.0;
  /// NS partitions a comparison QScan pays for on average: 2 partitions
  /// bounded above, minus the early-stop saving (Sec. 6.2 lines 9-13;
  /// `qscan.early_stops` in bench JSON sits near 50%).
  double comparison_scan_partitions = 1.5;
  /// Expected partition samples until the BETWEEN anchor hunt hits the
  /// satisfied band (Appendix A phase 1), at the neutral planning-time
  /// selectivity assumption of ~25%.
  double between_anchor_probes = 4.0;
  /// End partitions a BETWEEN actually scans of the ≤ 4 candidates
  /// (`between.end_scans` / `between.invocations` in bench JSON).
  double between_end_partitions = 3.0;
  /// NS partitions contributing band tuples per MD dimension (≤ 2).
  double md_band_partitions = 2.0;
  /// Fraction of MD band tuples surviving free grid pruning and costing one
  /// evaluation each (`md.evals` / `md.band_tuples` in bench JSON).
  double md_band_eval_factor = 0.5;
  /// m of the batched probe scheduler (DESIGN.md §11): each search round
  /// ships m−1 pivots in one trip, so probe bounds inflate to
  /// overhead + (m−1)·⌈log_m k⌉ while filter trips shrink to
  /// 1 + ⌈log_m k⌉. 2 reproduces the paper's binary-search
  /// formulas exactly.
  double probe_fanout = 2.0;
  /// Tuples per scan-path QPF round trip (PrkbOptions::batch_size).
  double scan_batch = 1.0;
  /// Assumed transport latency per backend round trip, in ns (0 = the
  /// paper's pure use-count costing; PriceNs then ranks by Total() alone).
  double round_trip_latency_ns = 0.0;
  /// Assumed compute cost of one QPF evaluation, in ns.
  double eval_ns = 1000.0;
  /// Deferred-insert routing bias (PrkbOptions::buffer_flush_horizon): flush
  /// the buffer when its one-off price is within this factor of a single
  /// buffered scan — the flush pays once, the scan recurs on every query
  /// until someone flushes (docs/COST_MODEL.md).
  double buffer_flush_horizon = 8.0;
  /// SSE posting-list work per SRC-i candidate, as a fraction of one QPF
  /// evaluation: the two-level TDAG retrieval decrypts and dedups roughly
  /// one posting per candidate before the TM confirms it.
  double srci_posting_eval_factor = 0.5;
  /// Cost of one OPE code comparison as a fraction of a QPF evaluation —
  /// plain integer compares on the SP, no crypto per tuple.
  double ope_code_eval_factor = 0.01;
  /// Smallest SRC-i candidate set a range retrieval produces: TDAG posting
  /// nodes are power-of-two position blocks, so even a range matching a
  /// handful of tuples retrieves (and confirm-decrypts) a whole block.
  double srci_candidate_floor = 64.0;

  static const CostConstants& Defaults();
};

/// ⌈lg k⌉ with lg 0 = lg 1 = 0, as used by the paper's probe bounds.
double CeilLg(size_t k);

/// ⌈log_m k⌉ with the same degenerate-k convention; m < 2 is clamped to 2.
double CeilLogM(size_t k, double m);

/// Wall-clock price of an estimate: evaluations at eval_ns plus round trips
/// at round_trip_latency_ns. With latency 0 this degenerates to the paper's
/// QPF-use ranking (scaled by eval_ns), so planner decisions are unchanged.
double PriceNs(const CostEstimate& est, const CostConstants& c);

/// Baseline linear scan: one QPF use per live tuple (Sec. 3.2).
CostEstimate EstimateLinearScan(size_t live_rows,
                                const CostConstants& c = CostConstants::Defaults());

/// Uncached single-comparison selection on a chain of k partitions over n
/// tuples: QFilter probes + NS-pair scan (Sec. 5).
CostEstimate EstimateComparison(size_t k, size_t n,
                                const CostConstants& c = CostConstants::Defaults());

/// Uncached BETWEEN selection (Appendix A): anchor hunt + two end searches
/// (fused into shared rounds by the scheduler) + end-partition scans.
CostEstimate EstimateBetween(size_t k, size_t n,
                             const CostConstants& c = CostConstants::Defaults());

/// One (k, n) chain shape per MD dimension. Dimensions answered from the
/// repeat-predicate cache classify for free and must be omitted.
struct MdDim {
  size_t k = 0;
  size_t n = 0;
};

/// PRKB(MD) grid selection over the given uncached dimensions: one QFilter
/// per dimension plus the pruned NS-band evaluations (Sec. 6.2). The
/// per-dimension filters fuse into shared probe rounds, so the filter stage
/// pays the max — not the sum — of the per-dimension trip counts.
CostEstimate EstimateMdGrid(const std::vector<MdDim>& dims,
                            const CostConstants& c = CostConstants::Defaults());

/// Exact-answer fallback over `buffered` deferred inserts: one scan
/// evaluation per buffered tuple, chunked like every scan path. Paid by
/// every query until the buffer is flushed.
CostEstimate EstimateBufferScan(size_t buffered,
                                const CostConstants& c = CostConstants::Defaults());

/// One lock-step batched placement of `buffered` deferred inserts against a
/// chain of k partitions: each tuple re-pays the m-ary search probes of
/// Sec. 7.1, but the rounds ship together, so the whole batch costs
/// ~⌈log_m k⌉ trips. Paid once; later queries see an empty buffer.
CostEstimate EstimateBufferFlush(size_t buffered, size_t k,
                                 const CostConstants& c = CostConstants::Defaults());

/// Logarithmic-SRC-i range over n rows at fractional selectivity `sel`
/// (clamped to [0, 1]): the TDAG cover yields at most a 2x candidate
/// superset (never below srci_candidate_floor — posting blocks are
/// power-of-two sized), each candidate pays one SSE posting retrieval (scans, at
/// srci_posting_eval_factor) and one scalar TM confirm decrypt — which is
/// also one unbatchable round trip each, making SRC-i latency-bound on slow
/// transports.
CostEstimate EstimateSrciRange(size_t n, double sel,
                               const CostConstants& c = CostConstants::Defaults());

/// OPE-column range: one plain code comparison per row on the SP (scans at
/// ope_code_eval_factor), zero probes, zero round trips. Cheap but
/// order-leaking — admissibility is a policy question, not a cost one.
CostEstimate EstimateOpeRange(size_t n,
                              const CostConstants& c = CostConstants::Defaults());

}  // namespace prkb::exec

#endif  // PRKB_EXEC_COST_H_
