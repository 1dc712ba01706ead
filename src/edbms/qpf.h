#ifndef PRKB_EDBMS_QPF_H_
#define PRKB_EDBMS_QPF_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/bitvector.h"
#include "common/status.h"
#include "edbms/encryption.h"
#include "edbms/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace prkb::edbms {

/// Registry instruments shared by every oracle instance (the per-instance
/// atomics below feed SelectionStats deltas; these feed process-wide
/// snapshots). Names are catalogued in docs/OBSERVABILITY.md.
struct QpfMetrics {
  obs::Counter* uses;
  obs::Counter* round_trips;
  obs::Counter* batches;
  obs::LatencyHistogram* round_trip_ns;
  obs::LatencyHistogram* batch_tuples;

  static const QpfMetrics& Get() {
    static const QpfMetrics m = {
        obs::MetricsRegistry::Global().GetCounter("qpf.uses"),
        obs::MetricsRegistry::Global().GetCounter("qpf.round_trips"),
        obs::MetricsRegistry::Global().GetCounter("qpf.batches"),
        obs::MetricsRegistry::Global().GetHistogram("qpf.round_trip_ns"),
        obs::MetricsRegistry::Global().GetHistogram("qpf.batch_tuples"),
    };
    return m;
  }
};

/// One probe of a heterogeneous batch round: which predicate to apply to
/// which tuple. The probe scheduler (src/prkb/probe_sched.h) fills one span
/// of these per search round so concurrent searches — the m−1 pivots of an
/// m-ary QFilter, both BETWEEN end-searches, every PRKB(MD) dimension —
/// share a single round trip.
struct ProbeRequest {
  const Trapdoor* td;
  TupleId tid;
};

/// The query processing function Θ of the paper's EDBMS model (Sec. 3.1):
/// given an encrypted predicate (trapdoor) and an encrypted tuple, returns
/// whether the tuple satisfies the hidden plain predicate — and nothing else.
///
/// Every evaluation is counted; "number of QPF uses" is the paper's primary
/// cost metric, and the entire point of PRKB is to minimise it.
///
/// Transport cost is counted separately: each Eval/EvalBatch/EvalMany call
/// is one *round trip* into the backend (a trusted-machine entry for
/// Cipherbase, an MPC round for SDB). Batching many tuple evaluations into
/// one round trip leaves the paper's QPF-use metric — and the bits the SP
/// observes — unchanged while amortising the per-round latency.
///
/// Counters are atomic so concurrent selections can share one oracle.
class QpfOracle {
 public:
  QpfOracle() = default;
  virtual ~QpfOracle() = default;

  // Atomics delete the implicit moves; backends are returned by value from
  // factories, so snapshot the counters explicitly. Not thread-safe against
  // concurrent Eval on the source (moving a live oracle is a caller bug).
  QpfOracle(QpfOracle&& other) noexcept
      : uses_(other.uses_.load(std::memory_order_relaxed)),
        round_trips_(other.round_trips_.load(std::memory_order_relaxed)),
        batches_(other.batches_.load(std::memory_order_relaxed)) {}
  QpfOracle& operator=(QpfOracle&& other) noexcept {
    uses_.store(other.uses_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    round_trips_.store(other.round_trips_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    batches_.store(other.batches_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    return *this;
  }

  /// Θ(p̄, t̄) — counted as one use and one round trip.
  bool Eval(const Trapdoor& td, TupleId tid) {
    const uint64_t t0 = Count(1, /*batch=*/false);
    const bool out = DoEval(td, tid);
    RecordTrip(t0);
    return out;
  }

  /// Θ applied to a batch of tuples in one round trip. Bit i of the result
  /// is Θ(td, tids[i]). Counts |tids| uses but a single round trip; the
  /// default implementation loops over DoEval so every backend gets correct
  /// (if unamortised) behaviour for free.
  BitVector EvalBatch(const Trapdoor& td, std::span<const TupleId> tids) {
    if (tids.empty()) return BitVector();
    const uint64_t t0 = Count(tids.size(), /*batch=*/true);
    BitVector out = DoEvalBatch(td, tids);
    RecordTrip(t0);
    return out;
  }

  /// Θ applied to a heterogeneous batch — each request names its own
  /// trapdoor — in one round trip. Bit i of the result is
  /// Θ(*reqs[i].td, reqs[i].tid). Counts |reqs| uses but a single round
  /// trip, exactly like EvalBatch; the default implementation loops over
  /// DoEval so every backend is correct (if unamortised) for free. This is
  /// the probe scheduler's round: a coalescing transport (net::RoundBus)
  /// merges concurrent selections' calls into one backend entry beneath it,
  /// so the accounting here — and per-selection SelectionStats — do not
  /// depend on how the round physically travels.
  BitVector EvalMany(std::span<const ProbeRequest> reqs) {
    if (reqs.empty()) return BitVector();
    const uint64_t t0 = Count(reqs.size(), /*batch=*/true);
    BitVector out = DoEvalMany(reqs);
    RecordTrip(t0);
    return out;
  }

  /// Observed logical-rounds-per-backend-entry of a coalescing transport
  /// (net::RoundBus); 1.0 for direct backends. The executor feeds this into
  /// CostCalibrator so the planner prices the amortised round latency L/c.
  virtual double CoalescingFactor() const { return 1.0; }

  /// Push-down of the calibrator's fitted round-trip latency, from which a
  /// coalescing transport derives its linger window. No-op for direct
  /// backends.
  virtual void CalibrateTransport(uint64_t /*rt_latency_ns*/) {}

  /// --- Uncounted backend entries for transport shims ----------------------
  ///
  /// net::QpfServer re-enters the backend on behalf of a remote client whose
  /// own QpfOracle wrappers (net::RemoteEdbms) already counted the round
  /// trip and the uses. These entries evaluate without touching any counter
  /// or registry metric, so a served evaluation is counted exactly once —
  /// client-side, where the paper's cost accrues. Never call these from
  /// query-processing code; they exist only for the serving shim.
  bool ServeEval(const Trapdoor& td, TupleId tid) { return DoEval(td, tid); }
  BitVector ServeEvalBatch(const Trapdoor& td, std::span<const TupleId> tids) {
    return DoEvalBatch(td, tids);
  }
  BitVector ServeEvalMany(std::span<const ProbeRequest> reqs) {
    return DoEvalMany(reqs);
  }

  /// Transport health: non-OK once the oracle can no longer reach its
  /// backend (a net::RemoteEdbms whose channel died mid-query). In-process
  /// backends are always healthy; callers that just ran a selection check
  /// this to turn silently-empty remote results into a clean error.
  virtual Status Health() const { return Status::Ok(); }

  /// Total evaluations since construction / last reset.
  uint64_t uses() const { return uses_.load(std::memory_order_relaxed); }
  /// Total backend entries (scalar calls + batch calls).
  uint64_t round_trips() const {
    return round_trips_.load(std::memory_order_relaxed);
  }
  /// Of which batch calls.
  uint64_t batches() const { return batches_.load(std::memory_order_relaxed); }
  void ResetUses() {
    uses_.store(0, std::memory_order_relaxed);
    round_trips_.store(0, std::memory_order_relaxed);
    batches_.store(0, std::memory_order_relaxed);
  }

 private:
  virtual bool DoEval(const Trapdoor& td, TupleId tid) = 0;

  /// Backend hook for amortised batch evaluation. Implementations must
  /// return exactly the bits the scalar path would: PRKB's correctness and
  /// the leakage argument both assume batching changes *when* bits travel,
  /// never *which* bits.
  virtual BitVector DoEvalBatch(const Trapdoor& td,
                                std::span<const TupleId> tids) {
    BitVector out(tids.size());
    for (size_t i = 0; i < tids.size(); ++i) {
      out.Assign(i, DoEval(td, tids[i]));
    }
    return out;
  }

  /// Backend hook for the heterogeneous batch. Same contract as
  /// DoEvalBatch: identical bits to the scalar path, amortised transport.
  virtual BitVector DoEvalMany(std::span<const ProbeRequest> reqs) {
    BitVector out(reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
      out.Assign(i, DoEval(*reqs[i].td, reqs[i].tid));
    }
    return out;
  }

  /// Logical accounting shared by the three counted entries: `n` uses and
  /// one round trip (plus one batch of `n` tuples for the batch entries).
  /// Returns the round's start time for RecordTrip.
  uint64_t Count(size_t n, bool batch) {
    uses_.fetch_add(n, std::memory_order_relaxed);
    round_trips_.fetch_add(1, std::memory_order_relaxed);
    const QpfMetrics& m = QpfMetrics::Get();
    m.uses->Add(n);
    m.round_trips->Add(1);
    if (batch) {
      batches_.fetch_add(1, std::memory_order_relaxed);
      m.batches->Add(1);
      m.batch_tuples->Record(n);
    }
    return obs::ObsTracer::NowNs();
  }
  static void RecordTrip(uint64_t t0_ns) {
    QpfMetrics::Get().round_trip_ns->Record(obs::ObsTracer::NowNs() - t0_ns);
  }

  std::atomic<uint64_t> uses_{0};
  std::atomic<uint64_t> round_trips_{0};
  std::atomic<uint64_t> batches_{0};
};

}  // namespace prkb::edbms

#endif  // PRKB_EDBMS_QPF_H_
