#ifndef PRKB_EXEC_CALIBRATE_H_
#define PRKB_EXEC_CALIBRATE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace prkb::exec {

/// Online calibration of the cost model's two priced constants plus
/// per-route estimate-error tracking (docs/COST_MODEL.md, "Calibrated vs
/// configured").
///
/// `CostConstants` starts from configuration: `eval_ns` defaults to a
/// hand-measured number and `round_trip_latency_ns` comes from
/// `PrkbOptions.rt_latency_hint_ns`. Both drift the moment TM latency, batch
/// size, or deployment topology changes. The calibrator closes the loop with
/// two EWMA fits fed by the executor after every physical plan run:
///
///   - round-trip latency L: the mean per-trip wall time, from the
///     qpf.round_trip_ns histogram delta of the run (and, for alternative
///     routes that bypass the QPF, the route's own trip count against its
///     wall clock).
///   - eval cost: the residual wall time after subtracting the transport
///     share, `max(0, wall - trips * L_fitted) / evals`.
///
/// A warmup floor (kWarmupSamples) keeps the configured values in force
/// until enough samples arrived. A configured hint > 0 additionally acts as
/// a *floor* on the fitted latency: it encodes an offline measurement of a
/// transport the local wall clock cannot see (e.g. pricing a remote
/// deployment from a local planner), so calibration may raise it but never
/// undercut it. A hint of 0 means "measure it yourself" and is fully
/// bidirectional.
///
/// Route arbitration feedback (`ObserveRoute`) tracks, per planner route,
/// an EWMA of actual/estimate price ratios — with the estimate re-priced at
/// observation-time constants, so the ratio captures *structural* estimator
/// error (selectivity mis-estimation) rather than constant drift, which the
/// two fits above already absorb. The ratio clamps into a multiplicative
/// penalty [1, kMaxPenalty] applied to that route's priced estimate at plan
/// time, demoting routes whose actuals keep losing to the runner-up's
/// estimate (cal.route.{wins,losses,regret_ns}).
///
/// Thread safety: all state behind one mutex; instruments are the global
/// registry's (stable pointers, internally atomic). Safe to share across
/// ConcurrentPrkbIndex's shared-lock selection paths.
class CostCalibrator {
 public:
  /// Samples required before a fit replaces the configured value.
  static constexpr uint64_t kWarmupSamples = 10;
  /// Calibrated latency at which the planner starts searching probe fanouts
  /// m > 1 even without a configured hint (query::CandidateFanouts).
  static constexpr double kCalibratedFanoutFloorNs = 1e4;
  /// EWMA weight of a new sample for the two constant fits: a half-life of
  /// one sample, so a transport shift is re-fitted within a handful of
  /// queries in either direction (AdaptiveDriftTest in tests/exec_test.cc
  /// holds the decay to its bound).
  static constexpr double kFitAlpha = 0.5;
  /// EWMA weight of a new sample for per-route estimate-error ratios.
  static constexpr double kErrAlpha = 0.5;
  /// Ceiling on the multiplicative route penalty.
  static constexpr double kMaxPenalty = 64.0;

  explicit CostCalibrator(double eval_ns_default = 1000.0,
                          double rt_latency_hint_ns = 0.0);

  /// One observation of `trips` round trips taking `total_ns` of wall time
  /// altogether, with `evals` evaluations computed *inside* those trips.
  /// Feeds the latency fit with the per-trip mean after charging the evals
  /// to the eval fit's current rate — on a loopback deployment the trip
  /// window is almost entirely batch compute, and without the subtraction
  /// the latency fit would absorb it and starve the eval fit to zero.
  void ObserveRoundTrips(uint64_t trips, uint64_t total_ns,
                         double evals = 0.0);

  /// One completed physical plan: `evals` QPF evaluations across `trips`
  /// round trips in `wall_ns`. Feeds the eval fit with the per-eval
  /// residual after the fitted transport share. Skipped until the latency
  /// fit has at least one sample to attribute that share (unless the plan
  /// made no trips at all).
  void ObservePlan(double evals, double trips, uint64_t wall_ns);

  /// One observation of the transport's coalescing factor c (logical rounds
  /// per backend entry, QpfOracle::CoalescingFactor). Clamped to ≥ 1 and
  /// EWMA-fitted like the constants; the planner prices round-trip latency
  /// as L/c (docs/COST_MODEL.md, "Amortised rounds").
  void ObserveCoalescing(double factor);

  /// One executed planner route choice: the chosen route's estimate
  /// (re-priced at current constants), its measured wall time, and the
  /// runner-up's re-priced estimate (0 when there was no competitor).
  void ObserveRoute(const std::string& route, double est_price_ns,
                    double actual_ns, double runner_up_est_ns);

  /// Fitted per-eval cost once warmed, the configured default before.
  double eval_ns() const;

  /// Fitted round-trip latency once warmed (never below a positive
  /// configured hint), the hint before.
  double rt_latency_ns() const;

  /// Fitted coalescing factor c ≥ 1; exactly 1.0 until observed, so
  /// non-coalescing deployments (and the golden EXPLAIN snapshots) price
  /// the full L unchanged.
  double coalesce_factor() const;

  /// Multiplicative plan-time penalty for `route`, in [1, kMaxPenalty].
  /// 1.0 for routes never observed.
  double RoutePenalty(const std::string& route) const;

  struct RouteStats {
    uint64_t observations = 0;
    uint64_t wins = 0;
    uint64_t losses = 0;
    /// EWMA of actual/estimate price ratios (>1 = underestimating).
    double err_ewma = 1.0;
    double regret_ns = 0.0;
  };

  struct Snapshot {
    double eval_ns = 0.0;
    double rt_latency_ns = 0.0;
    double eval_ns_default = 0.0;
    double rt_latency_hint_ns = 0.0;
    uint64_t eval_samples = 0;
    uint64_t rt_samples = 0;
    double coalesce_factor = 1.0;
    uint64_t coalesce_samples = 0;
    /// Sorted by route name.
    std::vector<std::pair<std::string, RouteStats>> routes;
  };
  Snapshot snapshot() const;

  /// Human-readable state for `prkb_shell`'s `.cost`.
  std::string Describe() const;

 private:
  /// Effective constants under the warmup floor; caller holds mu_.
  double EvalNsLocked() const;
  double RtLatencyNsLocked() const;

  mutable std::mutex mu_;
  const double eval_ns_default_;
  const double rt_latency_hint_ns_;
  double eval_fit_ = 0.0;
  double rt_fit_ = 0.0;
  double coalesce_fit_ = 1.0;
  uint64_t eval_samples_ = 0;
  uint64_t rt_samples_ = 0;
  uint64_t coalesce_samples_ = 0;
  std::map<std::string, RouteStats> routes_;
};

}  // namespace prkb::exec

#endif  // PRKB_EXEC_CALIBRATE_H_
