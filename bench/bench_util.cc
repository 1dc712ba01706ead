#include "bench/bench_util.h"

#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace prkb::bench {

BenchArgs BenchArgs::Parse(int argc, char** argv, double default_scale) {
  BenchArgs args;
  args.scale = default_scale;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--scale=", 8) == 0) {
      args.scale = std::atof(a + 8);
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      args.seed = std::strtoull(a + 7, nullptr, 10);
    } else if (std::strncmp(a, "--queries=", 10) == 0) {
      args.queries = std::atoi(a + 10);
    } else if (std::strncmp(a, "--tmlat=", 8) == 0) {
      args.tm_latency_ns = std::strtoull(a + 8, nullptr, 10);
    } else if (std::strncmp(a, "--json=", 7) == 0) {
      args.json_path = a + 7;
    } else if (std::strncmp(a, "--trace=", 8) == 0) {
      args.trace_path = a + 8;
    } else if (std::strcmp(a, "--smoke") == 0) {
      args.smoke = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a);
    }
  }
  if (!args.trace_path.empty()) obs::ObsTracer::Global().Enable();
  return args;
}

void PrintBanner(const std::string& experiment, const std::string& paper_ref,
                 const BenchArgs& args, const std::string& shape_note) {
  std::printf("#\n# %s  (reproduces %s)\n", experiment.c_str(),
              paper_ref.c_str());
  std::printf("# scale=%.4g seed=%llu  (--scale=1.0 reruns paper-size inputs)\n",
              args.scale, static_cast<unsigned long long>(args.seed));
  if (!shape_note.empty()) std::printf("# expected shape: %s\n", shape_note.c_str());
  std::printf("#\n");
  std::fflush(stdout);
}

size_t ScaledRows(size_t paper_rows, double scale) {
  const double rows = static_cast<double>(paper_rows) * scale;
  return rows < 1.0 ? 1 : static_cast<size_t>(rows);
}

namespace {

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string RenderNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void WriteEntries(std::FILE* f,
                  const std::vector<std::pair<std::string, std::string>>& es,
                  const char* indent) {
  for (size_t i = 0; i < es.size(); ++i) {
    std::fprintf(f, "%s\"%s\": %s%s\n", indent, JsonEscape(es[i].first).c_str(),
                 es[i].second.c_str(), i + 1 < es.size() ? "," : "");
  }
}

std::string RenderU64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  return buf;
}

std::string RenderI64(int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  return buf;
}

/// Flattens the registry snapshot to one-level key/value pairs so consumers
/// (tools/obs_report, diff scripts) need no nested-JSON handling. Counters
/// emit their name; gauges add `.max`; histograms expand to
/// `.count/.sum/.mean/.max/.p50/.p90/.p99` (docs/BENCH_FORMAT.md).
std::vector<std::pair<std::string, std::string>> FlattenMetrics(
    const obs::MetricsSnapshot& snap) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [name, value] : snap.counters) {
    out.emplace_back(name, RenderU64(value));
  }
  for (const auto& g : snap.gauges) {
    out.emplace_back(g.name, RenderI64(g.value));
    out.emplace_back(g.name + ".max", RenderI64(g.max));
  }
  for (const auto& h : snap.histograms) {
    out.emplace_back(h.name + ".count", RenderU64(h.count));
    out.emplace_back(h.name + ".sum", RenderU64(h.sum));
    out.emplace_back(h.name + ".mean", RenderNumber(h.Mean()));
    out.emplace_back(h.name + ".max", RenderU64(h.max));
    out.emplace_back(h.name + ".p50", RenderU64(h.ApproxPercentile(0.50)));
    out.emplace_back(h.name + ".p90", RenderU64(h.ApproxPercentile(0.90)));
    out.emplace_back(h.name + ".p99", RenderU64(h.ApproxPercentile(0.99)));
  }
  return out;
}

}  // namespace

JsonBench::JsonBench(std::string bench_name, const BenchArgs& args)
    : bench_name_(std::move(bench_name)) {
  Config("scale", args.scale);
  Config("seed", static_cast<double>(args.seed));
  Config("tmlat_ns", static_cast<double>(args.tm_latency_ns));
}

void JsonBench::Config(const std::string& key, double value) {
  config_.emplace_back(key, RenderNumber(value));
}
void JsonBench::Config(const std::string& key, const std::string& value) {
  config_.emplace_back(key, "\"" + JsonEscape(value) + "\"");
}
void JsonBench::BeginRow() { rows_.emplace_back(); }
void JsonBench::Field(const std::string& key, double value) {
  rows_.back().emplace_back(key, RenderNumber(value));
}
void JsonBench::Field(const std::string& key, uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(value));
  rows_.back().emplace_back(key, buf);
}
void JsonBench::Field(const std::string& key, const std::string& value) {
  rows_.back().emplace_back(key, "\"" + JsonEscape(value) + "\"");
}

bool JsonBench::WriteTo(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write JSON output to %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"config\": {\n",
               JsonEscape(bench_name_).c_str());
  WriteEntries(f, config_, "    ");
  std::fprintf(f, "  },\n  \"rows\": [\n");
  for (size_t r = 0; r < rows_.size(); ++r) {
    std::fprintf(f, "    {\n");
    WriteEntries(f, rows_[r], "      ");
    std::fprintf(f, "    }%s\n", r + 1 < rows_.size() ? "," : "");
  }
  const auto metrics =
      FlattenMetrics(obs::MetricsRegistry::Global().Snapshot());
  std::fprintf(f, "  ],\n  \"metrics\": {\n");
  WriteEntries(f, metrics, "    ");
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  return true;
}

void JsonBench::WriteIfRequested(const BenchArgs& args) const {
  if (!args.json_path.empty()) WriteTo(args.json_path);
  if (!args.trace_path.empty()) {
    obs::ObsTracer::Global().ExportChromeTrace(args.trace_path);
  }
}

int WarmToPartitions(core::PrkbIndex* index, edbms::Edbms* db,
                     edbms::AttrId attr, workload::QueryGen* gen,
                     size_t target_partitions, int max_queries) {
  int used = 0;
  while (index->pop(attr).k() < target_partitions && used < max_queries) {
    const auto p = gen->RandomComparison(attr);
    index->Select(db->MakeComparison(p.attr, p.op, p.lo));
    ++used;
  }
  return used;
}

}  // namespace prkb::bench
