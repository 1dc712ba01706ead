// Probe-scheduler benchmark: cold-chain selections (fingerprint-cache
// misses on a warmed POP chain) swept over scheduler fanout m ∈ {2,4,8,16}
// × simulated trusted-machine round-trip latency ∈ {0, 100µs, 1ms}. The
// m = 2 row runs the scheduler as the paper's binary search (one midpoint
// probe per round, no fusion, no speculation); the others run it m-ary with
// fusion and speculation on.
//
// The point the numbers make: QPF uses rise by the predicted ≤ (m−1)/lg m
// factor while round trips collapse from ~lg k to ~log_m k per filter, so
// once a round trip costs real time the scheduled selects win end-to-end —
// with byte-identical result sets.
//
//   bench_probe_rounds [--scale=0.2] [--seed=n] [--queries=n] [--tmlat=ns]
//                      [--json=path] [--smoke]
//
// Gates (full run only): at 1ms latency, m=8 must finish the measured
// workload in ≤ 1/3 of the m=2 wall-clock; the m=8 comparison-search probe
// inflation must match (m−1)/lg m within 15%; measured qfilter.rounds per
// comparison stay ≤ 2 + ceil(log8 k); every configuration must return the
// same result sets. Violations exit non-zero.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "workload/synthetic_table.h"

namespace prkb::bench {
namespace {

using edbms::CipherbaseEdbms;
using edbms::PlainPredicate;
using edbms::Trapdoor;
using edbms::TupleId;
using edbms::Value;

constexpr size_t kPaperRows = 100000;

/// One measured query of the mixed stream: alternating comparisons (the
/// m-ary filter in isolation) and BETWEENs (two fused end-searches).
struct QuerySpec {
  bool between;
  PlainPredicate pred;  // comparison, or lo/hi for BETWEEN
};

uint64_t HashResult(std::vector<TupleId> ids, uint64_t h) {
  std::sort(ids.begin(), ids.end());
  for (TupleId t : ids) {
    h ^= static_cast<uint64_t>(t) + 0x9E3779B97F4A7C15ULL + (h << 6) +
         (h >> 2);
  }
  return h;
}

struct CounterReading {
  uint64_t probes;
  uint64_t rounds;
  uint64_t invocations;
  uint64_t spec_waste;

  static CounterReading Now() {
    auto& reg = obs::MetricsRegistry::Global();
    return CounterReading{
        reg.GetCounter("qfilter.probes")->value(),
        reg.GetCounter("qfilter.rounds")->value(),
        reg.GetCounter("qfilter.invocations")->value(),
        reg.GetCounter("probe_sched.speculative_waste")->value(),
    };
  }
};

int Run(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      argv[i] = const_cast<char*>("--scale=0.02");
    }
  }
  BenchArgs args = BenchArgs::Parse(argc, argv, smoke ? 0.02 : 0.2);
  const size_t rows = ScaledRows(kPaperRows, args.scale);
  const size_t warm_k = smoke ? 32 : 512;
  const int queries = args.queries > 0 ? args.queries : (smoke ? 6 : 40);
  PrintBanner("bench_probe_rounds",
              "the round-trip-optimal probe scheduling claim (ISSUE 5)", args,
              "uses rise <= (m-1)/lg m; trips and wall-clock fall ~lg m");

  workload::SyntheticSpec spec;
  spec.rows = rows;
  spec.attrs = 1;
  spec.domain_lo = 0;
  spec.domain_hi = 999999;
  spec.seed = args.seed;
  const edbms::PlainTable plain = workload::MakeSyntheticTable(spec);

  // One predicate stream for every configuration.
  workload::QueryGen cmp_gen(spec.domain_lo, spec.domain_hi, args.seed + 2);
  Rng btw_rng(args.seed + 3);
  std::vector<QuerySpec> stream;
  for (int q = 0; q < queries; ++q) {
    QuerySpec qs;
    qs.between = (q % 2) == 1;
    if (qs.between) {
      qs.pred.attr = 0;
      qs.pred.lo = btw_rng.UniformInt64(0, 900000);
      qs.pred.hi = qs.pred.lo + btw_rng.UniformInt64(0, 80000);
    } else {
      qs.pred = cmp_gen.RandomComparison(0);
    }
    stream.push_back(qs);
  }

  std::vector<uint64_t> latencies;
  if (args.tm_latency_ns > 0) {
    latencies.push_back(args.tm_latency_ns);
  } else if (smoke) {
    latencies = {0};
  } else {
    latencies = {0, 100000, 1000000};
  }
  const std::vector<size_t> fanouts =
      smoke ? std::vector<size_t>{2, 8} : std::vector<size_t>{2, 4, 8, 16};

  JsonBench json("bench_probe_rounds", args);
  json.Config("rows", static_cast<double>(rows));
  json.Config("queries", static_cast<double>(queries));
  json.Config("warm_partitions", static_cast<double>(warm_k));
  json.Config("smoke", smoke ? "true" : "false");

  int failures = 0;
  std::printf("%10s %4s %10s %10s %12s %9s %9s %9s %9s\n", "tmlat_us", "m",
              "millis", "qpf_uses", "round_trips", "f.probes", "f.rounds",
              "infl", "speedup");
  for (uint64_t lat : latencies) {
    double base_millis = 0.0;
    double base_search_probes = 0.0;
    uint64_t base_hash = 0;
    for (size_t m : fanouts) {
      core::PrkbOptions opts;
      opts.seed = args.seed;
      opts.batch_size = 4096;
      opts.probe_fanout = m;
      if (m == 2) {
        // Paper-literal control: one midpoint probe per round.
        opts.probe_fusion = false;
        opts.speculative_scan = false;
      }

      auto db = CipherbaseEdbms::FromPlainTable(args.seed, plain);
      core::PrkbIndex index(&db, opts);
      index.EnableAttr(0);

      // Warm the chain to ~warm_k partitions at zero latency, then measure
      // a never-seen (fingerprint-cold) stream under the latency regime.
      workload::QueryGen warm_gen(spec.domain_lo, spec.domain_hi,
                                  args.seed + 1);
      WarmToPartitions(&index, &db, 0, &warm_gen, warm_k);
      db.trusted_machine().set_call_latency_ns(lat);
      db.ResetUses();

      uint64_t hash = 0;
      size_t hits = 0;
      // Comparison-only qfilter deltas, for the inflation and round bounds
      // (BETWEEN filter work would mix two fused searches into the ratio).
      uint64_t cmp_probes = 0, cmp_rounds = 0, cmp_invocations = 0;
      Stopwatch watch;
      for (const QuerySpec& qs : stream) {
        const Trapdoor td =
            qs.between
                ? db.MakeBetween(qs.pred.attr, qs.pred.lo, qs.pred.hi)
                : db.MakeComparison(qs.pred.attr, qs.pred.op, qs.pred.lo);
        const CounterReading before = CounterReading::Now();
        const auto out = index.Select(td);
        if (!qs.between) {
          const CounterReading after = CounterReading::Now();
          cmp_probes += after.probes - before.probes;
          cmp_rounds += after.rounds - before.rounds;
          cmp_invocations += after.invocations - before.invocations;
        }
        hits += out.size();
        hash = HashResult(out, hash);
      }
      const double millis = watch.ElapsedMillis();
      const uint64_t uses = db.uses();
      const uint64_t trips = db.round_trips();
      const size_t k_final = index.pop(0).k();

      // Search probes exclude the two per-call end probes on both sides so
      // the ratio isolates the narrowing loop the (m−1)/lg m bound covers.
      const double search_probes =
          static_cast<double>(cmp_probes) - 2.0 * cmp_invocations;
      if (m == 2) {
        base_millis = millis;
        base_search_probes = search_probes;
        base_hash = hash;
      }
      const double speedup = millis > 0.0 ? base_millis / millis : 0.0;
      const double inflation =
          base_search_probes > 0.0 ? search_probes / base_search_probes : 0.0;
      std::printf("%10.1f %4zu %10.2f %10llu %12llu %9llu %9llu %8.2fx %8.2fx\n",
                  lat / 1000.0, m, millis,
                  static_cast<unsigned long long>(uses),
                  static_cast<unsigned long long>(trips),
                  static_cast<unsigned long long>(cmp_probes),
                  static_cast<unsigned long long>(cmp_rounds), inflation,
                  speedup);

      if (hash != base_hash) {
        std::printf("!! result sets diverged from the m=2 baseline (m=%zu)\n",
                    m);
        ++failures;
      }
      if (!smoke && m == 8) {
        const double log_m_k =
            std::ceil(std::log2(static_cast<double>(k_final)) / 3.0);
        const double rounds_per_call =
            cmp_invocations > 0
                ? static_cast<double>(cmp_rounds) / cmp_invocations
                : 0.0;
        if (rounds_per_call > 2.0 + log_m_k) {
          std::printf("!! rounds/call %.2f exceeds 2 + ceil(log8 %zu) = %.0f\n",
                      rounds_per_call, k_final, 2.0 + log_m_k);
          ++failures;
        }
        const double predicted = 7.0 / std::log2(8.0);  // (m-1)/lg m
        if (inflation > 0.0 &&
            (inflation < predicted * 0.85 || inflation > predicted * 1.15)) {
          std::printf("!! probe inflation %.2fx outside 15%% of %.2fx\n",
                      inflation, predicted);
          ++failures;
        }
        if (lat >= 1000000 && speedup < 3.0) {
          std::printf("!! speedup %.2fx below the 3x gate at 1ms\n", speedup);
          ++failures;
        }
      }

      json.BeginRow();
      json.Field("tmlat_ns", lat);
      json.Field("fanout", static_cast<uint64_t>(m));
      json.Field("millis", millis);
      json.Field("qpf_uses", uses);
      json.Field("round_trips", trips);
      json.Field("qfilter_probes_cmp", cmp_probes);
      json.Field("qfilter_rounds_cmp", cmp_rounds);
      json.Field("qfilter_invocations_cmp", cmp_invocations);
      json.Field("probe_inflation_vs_m2", inflation);
      json.Field("speedup_vs_m2", speedup);
      json.Field("hits", static_cast<uint64_t>(hits));
      json.Field("k_final", static_cast<uint64_t>(k_final));
      json.Field("result_hash", std::to_string(hash));
    }
    std::printf("\n");
  }
  json.WriteIfRequested(args);
  if (failures > 0) {
    std::printf("%d gate violation(s)\n", failures);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace prkb::bench

int main(int argc, char** argv) { return prkb::bench::Run(argc, argv); }
