#ifndef PRKB_BENCH_BENCH_UTIL_H_
#define PRKB_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "edbms/cipherbase_qpf.h"
#include "prkb/selection.h"
#include "workload/query_gen.h"

namespace prkb::bench {

/// Command-line knobs shared by every experiment binary.
///
///   --scale=<f>    multiplies the paper's dataset sizes (each binary has a
///                  default small enough for a laptop-class single core;
///                  --scale matching the binary's `paper_scale` reruns the
///                  paper's exact sizes)
///   --seed=<n>     master seed
///   --queries=<n>  overrides the query count where applicable
///   --tmlat=<ns>   artificial per-call trusted-machine latency (default 0;
///                  a few microseconds emulates FPGA/coprocessor round trips
///                  and reproduces the paper's absolute-time regime)
///   --json=<path>  additionally writes the run's measurements as a
///                  machine-readable JSON file (see JsonBench)
///   --trace=<path> enables the span tracer for the whole run and exports
///                  a Chrome trace_event JSON (open in chrome://tracing or
///                  https://ui.perfetto.dev) when the binary writes output
///   --smoke        CI-sized run of the same shape, for binaries that
///                  define one (bench_table4_update); others ignore it
struct BenchArgs {
  double scale;
  uint64_t seed = 42;
  int queries = -1;  // -1 = binary default
  uint64_t tm_latency_ns = 0;
  bool smoke = false;
  std::string json_path;   // empty = no JSON output
  std::string trace_path;  // empty = tracer stays disabled

  /// Parses argv; `default_scale` is the binary's laptop default.
  static BenchArgs Parse(int argc, char** argv, double default_scale);
};

/// Collects measurement rows and writes them as one flat JSON document:
/// `{"bench": ..., "config": {...}, "rows": [{...}, ...], "metrics": {...}}`.
/// Values are numbers or strings only — enough for diffing two runs. The
/// "metrics" block is a flattened snapshot of the process obs registry
/// taken at write time (docs/BENCH_FORMAT.md).
class JsonBench {
 public:
  JsonBench(std::string bench_name, const BenchArgs& args);

  /// Adds a config-level key (emitted once, under "config").
  void Config(const std::string& key, double value);
  void Config(const std::string& key, const std::string& value);

  /// Starts a new measurement row; subsequent Field calls land in it.
  void BeginRow();
  void Field(const std::string& key, double value);
  void Field(const std::string& key, uint64_t value);
  void Field(const std::string& key, const std::string& value);

  /// Writes the document to `path`, snapshotting the obs registry into the
  /// "metrics" block. Returns false (with a message on stderr) if the file
  /// cannot be written.
  bool WriteTo(const std::string& path) const;
  /// Convenience: writes to args.json_path when --json= was given, and
  /// exports the Chrome trace to args.trace_path when --trace= was given.
  void WriteIfRequested(const BenchArgs& args) const;

 private:
  using Entry = std::pair<std::string, std::string>;  // key, rendered value
  std::string bench_name_;
  std::vector<Entry> config_;
  std::vector<std::vector<Entry>> rows_;
};

/// Prints the standard experiment banner so every binary's output starts
/// with what it reproduces and at which scale.
void PrintBanner(const std::string& experiment, const std::string& paper_ref,
                 const BenchArgs& args, const std::string& shape_note);

/// Rows after scaling (at least 1).
size_t ScaledRows(size_t paper_rows, double scale);

/// Issues random distinct comparison queries until the chain reaches
/// `target_partitions` (the paper's "static PRKB with k partitions" setup,
/// Sec. 8.2.4). Returns the number of queries used.
int WarmToPartitions(core::PrkbIndex* index, edbms::Edbms* db,
                     edbms::AttrId attr, workload::QueryGen* gen,
                     size_t target_partitions, int max_queries = 100000);

}  // namespace prkb::bench

#endif  // PRKB_BENCH_BENCH_UTIL_H_
