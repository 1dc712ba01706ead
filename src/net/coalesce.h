#ifndef PRKB_NET_COALESCE_H_
#define PRKB_NET_COALESCE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/bitvector.h"
#include "common/status.h"
#include "edbms/edbms.h"
#include "edbms/qpf.h"
#include "obs/metrics.h"

namespace prkb::net {

/// Round-bus telemetry (docs/OBSERVABILITY.md). `factor_x1000` is the EWMA
/// coalescing factor — logical rounds carried per backend entry — in
/// thousandths; `linger_ns` the current adaptive linger window.
struct CoalesceMetrics {
  obs::Counter* rounds;
  obs::Counter* requests;
  obs::Counter* entries;
  obs::Counter* merged_rounds;
  obs::Counter* dedup_tds;
  obs::Counter* overflow_splits;
  obs::Gauge* linger_ns;
  obs::Gauge* factor_x1000;

  static const CoalesceMetrics& Get() {
    static const CoalesceMetrics m = {
        obs::MetricsRegistry::Global().GetCounter("coalesce.rounds"),
        obs::MetricsRegistry::Global().GetCounter("coalesce.requests"),
        obs::MetricsRegistry::Global().GetCounter("coalesce.entries"),
        obs::MetricsRegistry::Global().GetCounter("coalesce.merged_rounds"),
        obs::MetricsRegistry::Global().GetCounter("coalesce.dedup_tds"),
        obs::MetricsRegistry::Global().GetCounter("coalesce.overflow_splits"),
        obs::MetricsRegistry::Global().GetGauge("coalesce.linger_ns"),
        obs::MetricsRegistry::Global().GetGauge("coalesce.factor_x1000"),
    };
    return m;
  }
};

struct RoundBusOptions {
  /// Fixed linger window (ns) used until — and instead of, when
  /// `adaptive_linger` is off — a fitted latency arrives. 0 = flush the
  /// moment a waiter can collect, i.e. pure passthrough for a lone caller.
  uint64_t linger_ns = 0;
  /// Derive the window from SetFittedLatency (the executor pushes the
  /// calibrator's fitted round-trip latency down after every query).
  bool adaptive_linger = true;
  /// Window = linger_frac × fitted L, so lingering costs a small, bounded
  /// fraction of the latency it amortises.
  double linger_frac = 0.125;
  /// Below this fitted L the transport is loopback-grade and the window
  /// snaps to zero: a lone query's latency must not pay for coalescing it
  /// cannot benefit from. The calibrator's fit is the TOTAL per-round time
  /// — transport plus the backend's per-batch compute, which alone reaches
  /// ~100 µs for a full scan round on a slow core — so the floor sits well
  /// above that; an entry worth amortising (FPGA/LAN round trips) fits
  /// hundreds of microseconds.
  uint64_t linger_floor_latency_ns = 200'000;
  uint64_t max_linger_ns = 2'000'000;
  /// Conservative wire budget per merged entry, kept under net's
  /// kMaxFramePayload (64 MiB); a merged batch estimated past it is split
  /// into multiple entries (coalesce.overflow_splits).
  size_t max_entry_bytes = 48u << 20;
};

/// The round bus (DESIGN.md §15): a per-oracle submission queue that merges
/// concurrently in-flight probe rounds from *different* selections into one
/// backend entry — one wire frame, one trusted-machine entry — within a
/// linger window derived from the fitted round-trip latency.
///
/// Protocol: Exchange enqueues a round (Submit) and blocks on its ticket
/// (Await). The first awaiting thread that finds no collection in progress
/// elects itself collector, lingers with the lock released, then takes the
/// whole queue as one batch, *releases the collector role before flushing*
/// — so the next window opens while this entry is still on the wire,
/// preserving the transport's pipelining — and scatter-gathers the bits
/// back to every waiting round. Value-equal trapdoors referenced by
/// different selections are sent once per entry (cross-request dedup).
///
/// Counting: the bus enters the backend exclusively through the uncounted
/// ServeEval* surface. All logical accounting stays with the caller's
/// QpfOracle wrappers (CoalescedEdbms below), so per-selection stats are
/// identical to an uncoalesced run while tm.round_trips / net frames show
/// the physical collapse.
///
/// Lifetime contract: the trapdoors referenced by submitted requests must
/// outlive Await of the owning ticket (callers either park in Await or own
/// the trapdoor across it; both hold throughout the codebase).
class RoundBus {
 public:
  explicit RoundBus(edbms::QpfOracle* inner, RoundBusOptions opts = {});

  RoundBus(const RoundBus&) = delete;
  RoundBus& operator=(const RoundBus&) = delete;

  /// Enqueues one logical round (copying the requests); returns its ticket,
  /// or 0 for an empty span.
  uint64_t Submit(std::span<const edbms::ProbeRequest> reqs);

  /// Blocks until ticket `t`'s round has travelled; bit i of the result is
  /// Θ(*reqs[i].td, reqs[i].tid) of the submitted span. Each ticket must be
  /// awaited exactly once.
  BitVector Await(uint64_t t);

  /// Submit + Await in one call: the only way the Eval* paths enter the
  /// queue. When the linger window is zero and nothing is queued or
  /// collecting, this skips the ticket/scatter machinery entirely — there is
  /// nothing to merge with and no window to hold for, so a lone loopback
  /// caller pays one mutex acquisition over the uncoalesced path.
  BitVector Exchange(std::span<const edbms::ProbeRequest> reqs);

  /// Fast-path gate for the single-trapdoor Eval/EvalBatch forwards: when
  /// the window is zero, nothing is queued or collecting, and the round fits
  /// the entry budget, claims the round as one backend entry — all bus
  /// accounting applied — and returns true; the caller then serves it on the
  /// inner oracle's scalar/batch surface, skipping ProbeRequest
  /// materialisation and the per-probe bit-vector the EvalMany path builds.
  /// The decline path is one relaxed atomic load when a window is open.
  bool TryDirect(const edbms::Trapdoor& td, size_t n);

  /// Push-down of the calibrator's fitted round-trip latency; recomputes
  /// the linger window per RoundBusOptions.
  void SetFittedLatency(uint64_t rt_latency_ns);

  uint64_t linger_ns() const {
    return linger_ns_.load(std::memory_order_relaxed);
  }
  /// EWMA logical-rounds-per-entry; 1.0 until the first flush.
  double factor() const;

  struct Stats {
    uint64_t rounds = 0;
    uint64_t requests = 0;
    uint64_t entries = 0;
    uint64_t merged_rounds = 0;
    uint64_t dedup_tds = 0;
    uint64_t overflow_splits = 0;
    uint64_t linger_ns = 0;
    double factor = 1.0;
  };
  Stats stats() const;

 private:
  struct Sub {
    enum State : uint8_t { kQueued, kFlushing, kDone };
    std::vector<edbms::ProbeRequest> reqs;
    BitVector bits;
    State state = kQueued;
  };

  /// Claims a zero-window round of `n` requests and ~`bytes` wire bytes as
  /// one passthrough backend entry, applying all bus accounting; false (and
  /// nothing counted) when a window is open, anything is queued or
  /// collecting, or the round exceeds the entry budget.
  bool ClaimPassthrough(size_t n, size_t bytes);

  /// Collector role: linger (lock released), take the queue, flush it as
  /// one-or-more backend entries, wake the owners. `lk` holds mu_ on entry
  /// and exit.
  void CollectAndFlush(std::unique_lock<std::mutex>& lk);

  /// Merges `batch` into chunked ServeEvalMany entries with trapdoor dedup
  /// and scatters the bits back into each Sub. Runs without mu_ held.
  /// Returns the number of backend entries shipped.
  size_t FlushBatch(const std::vector<std::shared_ptr<Sub>>& batch);

  edbms::QpfOracle* inner_;
  const RoundBusOptions opts_;
  std::atomic<uint64_t> linger_ns_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t next_ticket_ = 1;
  bool collecting_ = false;
  std::vector<std::shared_ptr<Sub>> queue_;
  std::unordered_map<uint64_t, std::shared_ptr<Sub>> subs_;
  /// EWMA of batch-rounds / entries per flush; guarded by mu_.
  double factor_ewma_ = 1.0;
  uint64_t flushes_ = 0;
  Stats totals_;
};

/// Drop-in Edbms whose Θ surface rides a RoundBus: DO-side calls and table
/// geometry forward to the wrapped instance (a local CipherbaseEdbms /
/// SdbEdbms, or a RemoteEdbms — giving socketless benches and the real wire
/// the same merge point), while every Eval/EvalBatch/EvalMany — including
/// each round the probe scheduler ships — merges with concurrent
/// selections' rounds before entering the backend. A shipping thread blocks
/// in Exchange until its round has travelled.
class CoalescedEdbms : public edbms::Edbms {
 public:
  explicit CoalescedEdbms(edbms::Edbms* inner, RoundBusOptions opts = {})
      : inner_(inner), bus_(inner, opts) {}

  // --- DO-side client API: pure forwards -----------------------------------
  edbms::TupleId Insert(const std::vector<edbms::Value>& row) override {
    return inner_->Insert(row);
  }
  void Delete(edbms::TupleId tid) override { inner_->Delete(tid); }
  edbms::Trapdoor MakeComparison(edbms::AttrId attr, edbms::CompareOp op,
                                 edbms::Value c) override {
    return inner_->MakeComparison(attr, op, c);
  }
  edbms::Trapdoor MakeBetween(edbms::AttrId attr, edbms::Value lo,
                              edbms::Value hi) override {
    return inner_->MakeBetween(attr, lo, hi);
  }

  // --- SP-side geometry: pure forwards -------------------------------------
  size_t num_attrs() const override { return inner_->num_attrs(); }
  size_t num_rows() const override { return inner_->num_rows(); }
  bool IsLive(edbms::TupleId tid) const override {
    return inner_->IsLive(tid);
  }
  size_t StoredBytes() const override { return inner_->StoredBytes(); }
  Status Health() const override { return inner_->Health(); }

  // --- Transport feedback ---------------------------------------------------
  double CoalescingFactor() const override { return bus_.factor(); }
  void CalibrateTransport(uint64_t rt_latency_ns) override {
    bus_.SetFittedLatency(rt_latency_ns);
  }

  RoundBus& bus() { return bus_; }
  const RoundBus& bus() const { return bus_; }
  edbms::Edbms* inner() { return inner_; }

 private:
  bool DoEval(const edbms::Trapdoor& td, edbms::TupleId tid) override {
    if (bus_.TryDirect(td, 1)) return inner_->ServeEval(td, tid);
    const edbms::ProbeRequest one{&td, tid};
    const BitVector bits = bus_.Exchange({&one, 1});
    return bits.size() == 1 && bits.Get(0);
  }
  BitVector DoEvalBatch(const edbms::Trapdoor& td,
                        std::span<const edbms::TupleId> tids) override {
    if (tids.empty()) return BitVector();
    if (bus_.TryDirect(td, tids.size())) {
      return inner_->ServeEvalBatch(td, tids);
    }
    std::vector<edbms::ProbeRequest> reqs;
    reqs.reserve(tids.size());
    for (const edbms::TupleId tid : tids) reqs.push_back({&td, tid});
    return bus_.Exchange(reqs);
  }
  BitVector DoEvalMany(std::span<const edbms::ProbeRequest> reqs) override {
    return bus_.Exchange(reqs);
  }

  edbms::Edbms* inner_;
  RoundBus bus_;
};

}  // namespace prkb::net

#endif  // PRKB_NET_COALESCE_H_
