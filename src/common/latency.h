#ifndef PRKB_COMMON_LATENCY_H_
#define PRKB_COMMON_LATENCY_H_

#include <chrono>
#include <cstdint>
#include <thread>

namespace prkb {

/// Polite busy-wait hint: tells the core we are spinning so a hyper-twin (or
/// the TSan scheduler) gets the pipeline. Falls back to a scheduler yield on
/// architectures without a dedicated relax instruction.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

/// Blocks the calling thread for `ns` nanoseconds to emulate a hardware or
/// network round trip. Short waits are spun (sleeping would overshoot badly
/// at microsecond scale); above the threshold the thread genuinely sleeps so
/// latency benchmarks with many workers don't burn one core per worker.
inline void SimulatedLatencyNanos(uint64_t ns) {
  if (ns == 0) return;
  constexpr uint64_t kSpinCeilingNs = 50'000;  // ~ scheduler quantum accuracy
  const auto start = std::chrono::steady_clock::now();
  if (ns >= kSpinCeilingNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
    return;
  }
  while (std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start)
             .count() < static_cast<int64_t>(ns)) {
    CpuRelax();
  }
}

/// The single point where a backend charges simulated round-trip latency.
///
/// Every in-process QPF backend owns exactly one LatencyModel and calls
/// Apply() once per backend entry (TrustedMachine per TM call, SdbEdbms per
/// MPC round). Transport shims that ride a *real* wire
/// (net::RemoteEdbms) never own one — the network
/// provides the latency — so a served evaluation is charged exactly once:
/// simulated at the hosting backend, or physical on the wire, never both.
/// A server hosting a backend for remote clients should zero the backend's
/// model unless it deliberately emulates extra hardware latency (an FPGA TM
/// behind a LAN hop pays both, which is then a modelling choice, not an
/// accounting bug).
class LatencyModel {
 public:
  LatencyModel() = default;
  explicit LatencyModel(uint64_t ns) : ns_(ns) {}

  void set_ns(uint64_t ns) { ns_ = ns; }
  uint64_t ns() const { return ns_; }
  bool enabled() const { return ns_ != 0; }

  /// Charges one simulated round trip. No-op when the model is disabled.
  void Apply() const { SimulatedLatencyNanos(ns_); }

 private:
  uint64_t ns_ = 0;
};

}  // namespace prkb

#endif  // PRKB_COMMON_LATENCY_H_
