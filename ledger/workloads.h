// The three ledger workloads. Each builds its deployment from generated
// inputs, runs a fixed, seed-determined operation list closed-loop, checks
// every answer against the plaintext oracle and reports its metrics.
#ifndef PRKB_LEDGER_WORKLOADS_H_
#define PRKB_LEDGER_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace prkb::ledger {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  /// Sizes the operation list: each workload runs a fixed number of
  /// operations per second of budget, so two versions of the program do the
  /// same work (and reach the same index state) for the same arguments.
  int seconds = 10;
  bool trace = false;
  /// Scratch directory for WAL and snapshot files; emptied by the caller.
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Exact counts that repeat across runs with one seed (single-client
  /// workloads only; empty for the concurrent one).
  std::vector<std::pair<std::string, uint64_t>> fingerprint;
  /// Failed checks, for the log.
  std::vector<std::string> errors;
};

/// Runs `args.workload`. Returns false for an unknown workload name.
bool RunWorkload(const RunArgs& args, RunResult* out);

}  // namespace prkb::ledger

#endif  // PRKB_LEDGER_WORKLOADS_H_
