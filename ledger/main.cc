// prkb_ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
//
// Runs one ledger workload and prints, as the last line of standard output,
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// A line starting with "fingerprint " before it carries the exact counts of
// the single-client workloads. Exits non-zero when any check failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: prkb_ledger --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir>\n");
}

}  // namespace

int main(int argc, char** argv) {
  prkb::ledger::RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(v);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--work-dir") {
      args.work_dir = v;
    } else {
      Usage();
      return 2;
    }
  }
  if (args.work_dir.empty() || args.seconds < 1) {
    Usage();
    return 2;
  }
  prkb::ledger::RunResult res;
  if (!prkb::ledger::RunWorkload(args, &res)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  for (const std::string& e : res.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  const bool correct = res.failed == 0 && res.errors.empty();
  if (!res.fingerprint.empty()) {
    std::printf("fingerprint {");
    for (size_t i = 0; i < res.fingerprint.size(); ++i) {
      std::printf("%s\"%s\": %llu", i ? ", " : "",
                  res.fingerprint[i].first.c_str(),
                  static_cast<unsigned long long>(res.fingerprint[i].second));
    }
    std::printf("}\n");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  for (size_t i = 0; i < res.metrics.size(); ++i) {
    const auto& m = res.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
