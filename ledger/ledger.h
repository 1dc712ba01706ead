// Query ledger: bench-side spans, the timing decorator around a QPF backend,
// and the plaintext oracle every answer is checked against.
//
// Nothing here changes what the program does. Spans are taken from outside,
// around calls into each layer's public entry points; the decorator enters
// the real backend through the uncounted ServeEval* surface, so QPF uses and
// round trips are still counted exactly once (by the decorator's own
// QpfOracle base, i.e. where the index calls it).
#ifndef PRKB_LEDGER_LEDGER_H_
#define PRKB_LEDGER_LEDGER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "edbms/edbms.h"

namespace prkb::ledger {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One timed interval of one operation. `parent` is 0 for an op root.
struct Span {
  uint64_t op = 0;
  uint32_t id = 0;
  uint32_t parent = 0;
  const char* name = "";
  uint64_t t0 = 0;
  uint64_t t1 = 0;
};

/// Per-thread span log plus backend-entry samples. Owned by the Recorder so
/// it outlives the thread that filled it (server workers exit on Stop()).
struct ThreadLog {
  std::vector<Span> spans;
  std::vector<uint32_t> stack;  // open span ids of the current op
  uint64_t op = 0;              // 0 = no op open on this thread
  uint32_t next_id = 1;
  /// Backend entries seen on this thread while tracing: duration and cells.
  std::vector<uint64_t> entry_ns;
  uint64_t entry_cells = 0;
};

/// Process-wide span recorder. Spans are only taken while `tracing()` is on;
/// they stay in memory until the run ends.
class Recorder {
 public:
  static Recorder& Get();

  bool tracing() const { return tracing_.load(std::memory_order_relaxed); }
  void set_tracing(bool on) { tracing_.store(on, std::memory_order_relaxed); }

  /// This thread's log (registered on first use).
  ThreadLog& Local();
  /// Every log ever registered. Call only once the threads that fill them
  /// have stopped.
  std::vector<ThreadLog*> Logs();

  uint64_t NextOpId() { return next_op_.fetch_add(1) + 1; }

 private:
  std::atomic<bool> tracing_{false};
  std::atomic<uint64_t> next_op_{0};
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// RAII span. An op root opens a fresh op id on this thread; a child span
/// nests under whatever span is open. No-ops while tracing is off, and a
/// child opened on a thread with no op (e.g. a server worker) is dropped.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, bool root = false);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadLog* log_ = nullptr;
  size_t index_ = 0;
  bool root_ = false;
};

/// Self time per span name, summed over every recorded op: a span's
/// duration minus the part of it its children cover.
struct SpanSummary {
  std::map<std::string, uint64_t> self_ns;
  std::map<std::string, uint64_t> count;
  uint64_t root_ns = 0;
  uint64_t roots = 0;
};
SpanSummary Summarize(const std::vector<ThreadLog*>& logs);

/// Forwarding Edbms decorator owned by the benchmark. Enters the wrapped
/// backend through the uncounted Serve* surface, so the only counting layer
/// is this object's own QpfOracle base (when it is what the index calls) or
/// the remote client (when a QpfServer hosts it). While tracing, an entry
/// made inside a traced op is timed as an `edbms.entry` span and sampled
/// into the thread's log; a `serving` decorator (hosted by a QpfServer,
/// whose workers never run an op) samples every entry.
class TimedEdbms : public edbms::Edbms {
 public:
  TimedEdbms(edbms::Edbms* inner, bool serving)
      : inner_(inner), serving_(serving) {}

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
  size_t num_attrs() const override { return inner_->num_attrs(); }
  size_t num_rows() const override { return inner_->num_rows(); }
  bool IsLive(edbms::TupleId tid) const override {
    return inner_->IsLive(tid);
  }
  size_t StoredBytes() const override { return inner_->StoredBytes(); }
  Status Health() const override { return inner_->Health(); }
  double CoalescingFactor() const override {
    return inner_->CoalescingFactor();
  }
  void CalibrateTransport(uint64_t ns) override {
    inner_->CalibrateTransport(ns);
  }

 private:
  bool DoEval(const edbms::Trapdoor& td, edbms::TupleId tid) override;
  BitVector DoEvalBatch(const edbms::Trapdoor& td,
                        std::span<const edbms::TupleId> tids) override;
  BitVector DoEvalMany(std::span<const edbms::ProbeRequest> reqs) override;

  edbms::Edbms* inner_;
  bool serving_;
};

/// Ground truth for the generated inputs: the base table plus every row the
/// run may insert, all generated before timing. Read-only afterwards, so
/// concurrent clients check their answers without synchronisation.
class Oracle {
 public:
  /// One conjunct: attr in [lo, hi] (both inclusive).
  struct Range {
    edbms::AttrId attr = 0;
    edbms::Value lo = 0;
    edbms::Value hi = 0;
  };
  /// Order-independent digest of a winner set.
  struct Digest {
    uint64_t count = 0;
    uint64_t sum = 0;
    bool operator==(const Digest& o) const {
      return count == o.count && sum == o.sum;
    }
  };

  explicit Oracle(std::vector<std::vector<edbms::Value>> cols)
      : cols_(std::move(cols)) {}

  std::vector<edbms::Value> Row(edbms::TupleId t) const;
  /// Column `a` over the first `rows` tuples (Pop::ValidateAgainstPlain).
  std::vector<edbms::Value> Column(edbms::AttrId a, size_t rows) const {
    return {cols_[a].begin(), cols_[a].begin() + static_cast<long>(rows)};
  }

  bool Matches(const std::vector<Range>& q, edbms::TupleId t) const;
  /// SplitMix64 finaliser.
  static uint64_t Mix(uint64_t x);
  static Digest Of(const std::vector<edbms::TupleId>& rows);
  /// Digest of the winners among tuples [0, rows).
  Digest Expected(const std::vector<Range>& q, size_t rows) const;

 private:
  std::vector<std::vector<edbms::Value>> cols_;
};

/// Host speed right now, from a bench-owned reference kernel that shares no
/// code with the program: the ratio of the kernel's fixed nominal time to
/// its median time over the last few samples.
///
/// A shared 4-vCPU VM's speed drifts by up to 2x over seconds (one fixed
/// loop measured 0.29-0.70 s back to back), which would swamp CPU-bound
/// times; scaling by a kernel timed alongside the work cancels much of that
/// drift while leaving the program's own speed visible.
class HostSpeed {
 public:
  /// Runs the reference kernel once (~45us) and records its time.
  void Sample();
  /// Factor that scales a time measured now to the nominal host speed.
  double Scale() const;

  /// Runs `fn`, adds its time (in ns, scaled to nominal host speed) to
  /// `*scaled_ns`, and returns what `fn` returns. Re-samples the speed
  /// before every kEvery-th call.
  template <typename Fn>
  auto Time(double* scaled_ns, Fn&& fn) {
    if (calls_++ % kEvery == 0) Sample();
    const uint64_t t0 = NowNs();
    struct Add {
      HostSpeed* self;
      double* out;
      uint64_t t0;
      ~Add() { *out += static_cast<double>(NowNs() - t0) * self->Scale(); }
    } add{this, scaled_ns, t0};
    return fn();
  }

 private:
  static constexpr size_t kEvery = 16;
  std::vector<uint64_t> recent_;  // ring of the last few samples
  size_t next_ = 0;
  size_t calls_ = 0;
};

/// Scaled time of a deployment's set-up, accumulated step by step.
struct SetupClock {
  HostSpeed speed;
  double ns = 0.0;
  template <typename Fn>
  auto Step(Fn&& fn) {
    return speed.Time(&ns, std::forward<Fn>(fn));
  }
};

/// Nearest-rank percentile (p in [0, 1]) and mean of a sample; 0 when empty.
double Percentile(std::vector<double> v, double p);
double Mean(const std::vector<double>& v);

}  // namespace prkb::ledger

#endif  // PRKB_LEDGER_LEDGER_H_
