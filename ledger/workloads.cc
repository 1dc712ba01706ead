#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "common/rng.h"
#include "common/serial.h"
#include "edbms/cipherbase_qpf.h"
#include "ledger.h"
#include "net/coalesce.h"
#include "net/qpf_client.h"
#include "net/qpf_server.h"
#include "obs/metrics.h"
#include "prkb/prkb_io.h"
#include "prkb/selection.h"
#include "prkb/shard.h"
#include "prkb/wal.h"
#include "query/parser.h"
#include "query/planner.h"
#include "workload/synthetic_table.h"

namespace prkb::ledger {
namespace {

using edbms::AttrId;
using edbms::CompareOp;
using edbms::Trapdoor;
using edbms::TupleId;
using edbms::Value;

// ---------------------------------------------------------------------------
// Sizes. All three workloads share the paper's synthetic setting: 8 uniform
// integer attributes over [1, 30M] (Sec. 8.2.2), chains warmed to the
// static-PRKB size k≈250 (Sec. 8.2.4) before timing.

constexpr size_t kAttrs = 8;
constexpr size_t kRows = 20000;
constexpr size_t kWarmK = 250;
constexpr Value kDomainLo = 1;
constexpr Value kDomainHi = 30'000'000;
/// Deployments built per run; setup_s is their median.
constexpr int kSetupRuns = 3;
/// Snapshot or WAL re-opens per run, after one untimed warm-up re-open;
/// write.recover_s is their median.
constexpr int kRecoverRuns = 15;
/// Each client's op list is cut into this many consecutive segments;
/// select_p95_ms and ops_per_s are the median over segments, so a stall of
/// the shared host during one segment does not set the run's figure.
constexpr size_t kSegments = 5;
/// Traced runs alternate traced and untraced blocks of this many ops per
/// client, so trace.overhead_frac compares like with like.
constexpr size_t kTraceBlock = 16;
constexpr size_t kScanBatch = 256;

/// Operations per second of budget, per client. Fixed (not measured), so the
/// same arguments always mean the same work.
constexpr size_t kSqlOpsPerSecond = 2000;
constexpr size_t kRemoteOpsPerSecondPerClient = 200;
constexpr size_t kDurableOpsPerSecond = 2000;

constexpr uint64_t kRemoteTmLatencyNs = 300'000;
constexpr size_t kRemoteClients = 4;
constexpr size_t kRemoteShards = 2;

// ---------------------------------------------------------------------------
// Generated inputs.

/// One plaintext predicate as the data owner would phrase it.
struct Pred {
  AttrId attr = 0;
  bool between = false;
  CompareOp op = CompareOp::kLt;
  Value lo = 0;  // comparison constant, or BETWEEN lower bound
  Value hi = 0;  // BETWEEN upper bound
};

Oracle::Range RangeOf(const Pred& p) {
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  if (p.between) return {p.attr, p.lo, p.hi};
  switch (p.op) {
    case CompareOp::kLt:
      return {p.attr, kMin, p.lo - 1};
    case CompareOp::kLe:
      return {p.attr, kMin, p.lo};
    case CompareOp::kGt:
      return {p.attr, p.lo + 1, kMax};
    case CompareOp::kGe:
      return {p.attr, p.lo, kMax};
  }
  return {p.attr, kMin, kMax};
}

std::vector<Oracle::Range> RangesOf(const std::vector<Pred>& preds) {
  std::vector<Oracle::Range> out;
  for (const Pred& p : preds) out.push_back(RangeOf(p));
  return out;
}

const char* OpText(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return "<";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGe:
      return ">=";
  }
  return "<";
}

std::string ColumnName(size_t attr) {
  std::string name = "c";
  name += std::to_string(attr);
  return name;
}

std::string SqlOf(const std::vector<Pred>& preds) {
  std::string sql = "SELECT * FROM t WHERE ";
  for (size_t i = 0; i < preds.size(); ++i) {
    const Pred& p = preds[i];
    if (i > 0) sql += " AND ";
    sql += ColumnName(p.attr);
    if (p.between) {
      sql += " BETWEEN " + std::to_string(p.lo) + " AND " +
             std::to_string(p.hi);
    } else {
      sql += std::string(" ") + OpText(p.op) + " " + std::to_string(p.lo);
    }
  }
  return sql;
}

Trapdoor Issue(edbms::Edbms* db, const Pred& p) {
  return p.between ? db->MakeBetween(p.attr, p.lo, p.hi)
                   : db->MakeComparison(p.attr, p.op, p.lo);
}

Pred RandomComparison(Rng& rng, AttrId attr) {
  Pred p;
  p.attr = attr;
  p.op = static_cast<CompareOp>(rng.UniformInt(0, 3));
  p.lo = rng.UniformInt64(kDomainLo, kDomainHi);
  return p;
}

/// A band of 0.5%–10% of the domain.
Pred RandomBetween(Rng& rng, AttrId attr) {
  const Value span = kDomainHi - kDomainLo;
  const Value width = rng.UniformInt64(span / 200, span / 10);
  Pred p;
  p.attr = attr;
  p.between = true;
  p.lo = rng.UniformInt64(kDomainLo, kDomainHi - width);
  p.hi = p.lo + width;
  return p;
}

/// 2–3 distinct attributes, the first being `first`; one in three
/// conjunctions carries a BETWEEN (which rules the MD grid route out).
std::vector<Pred> RandomConjunction(Rng& rng, AttrId first) {
  const size_t dims = rng.UniformInt(2, 3);
  std::vector<AttrId> attrs = {first};
  while (attrs.size() < dims) {
    const auto a = static_cast<AttrId>(rng.UniformInt(0, kAttrs - 1));
    if (std::find(attrs.begin(), attrs.end(), a) == attrs.end()) {
      attrs.push_back(a);
    }
  }
  const bool with_between = rng.UniformInt(0, 2) == 0;
  std::vector<Pred> preds;
  for (size_t i = 0; i < attrs.size(); ++i) {
    preds.push_back(with_between && i + 1 == attrs.size()
                        ? RandomBetween(rng, attrs[i])
                        : RandomComparison(rng, attrs[i]));
  }
  return preds;
}

/// Plain table (base rows, then every row the run may insert).
Oracle MakeOracle(uint64_t seed, size_t inserts, edbms::PlainTable* base) {
  workload::SyntheticSpec spec;
  spec.rows = kRows;
  spec.attrs = kAttrs;
  spec.domain_lo = kDomainLo;
  spec.domain_hi = kDomainHi;
  spec.seed = seed;
  *base = workload::MakeSyntheticTable(spec);
  std::vector<std::vector<Value>> cols(kAttrs);
  for (AttrId a = 0; a < kAttrs; ++a) {
    cols[a] = base->column(a);
    cols[a].reserve(kRows + inserts);
  }
  Rng rng(seed ^ 0x1A5E27ULL);
  for (size_t i = 0; i < inserts; ++i) {
    for (AttrId a = 0; a < kAttrs; ++a) {
      cols[a].push_back(rng.UniformInt64(kDomainLo, kDomainHi));
    }
  }
  return Oracle(std::move(cols));
}

// ---------------------------------------------------------------------------
// Shared measurement plumbing.

obs::MetricsRegistry& Reg() { return obs::MetricsRegistry::Global(); }
uint64_t Ctr(const char* name) { return Reg().GetCounter(name)->value(); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Percentile of a registry histogram, interpolated linearly inside its
/// power-of-two bucket (the histogram keeps no finer detail).
double HistPercentile(const char* name, double p) {
  const obs::LatencyHistogram* h = Reg().GetHistogram(name);
  const uint64_t n = h->count();
  if (n == 0) return 0.0;
  const double rank = p * static_cast<double>(n - 1) + 1.0;
  double seen = 0.0;
  for (size_t b = 0; b < obs::LatencyHistogram::kBuckets; ++b) {
    const double in = static_cast<double>(h->bucket(b));
    if (in > 0.0 && seen + in >= rank) {
      const double lo =
          b == 0 ? 0.0 : static_cast<double>(uint64_t{1} << (b - 1));
      const double hi = static_cast<double>(
          obs::LatencyHistogram::BucketUpper(b));
      return lo + (hi - lo) * (rank - seen) / in;
    }
    seen += in;
  }
  return static_cast<double>(h->max());
}

double HistMean(const char* name) {
  const obs::LatencyHistogram* h = Reg().GetHistogram(name);
  return Ratio(static_cast<double>(h->sum()), static_cast<double>(h->count()));
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// Folds one answer's digest into a client's running winners hash.
uint64_t HashStep(uint64_t h, const Oracle::Digest& d) {
  return Oracle::Mix(h ^ d.sum) ^ d.count;
}

/// What one closed-loop client measured.
struct ClientLog {
  /// Scales each op's time to nominal host speed (see HostSpeed).
  HostSpeed speed;
  /// Ops this client will run (sizes the segments).
  size_t planned = 1;
  std::vector<double> select_ms;
  std::vector<uint8_t> select_segment;
  std::array<uint64_t, kSegments> segment_ns{};
  std::array<uint64_t, kSegments> segment_ops{};
  std::vector<double> insert_ms;
  /// Insert latencies from untraced ops only (traced runs report them).
  std::vector<double> insert_ms_untraced;
  uint64_t busy_ns = 0;
  uint64_t traced_ns = 0, traced_ops = 0;
  uint64_t untraced_ns = 0, untraced_ops = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t winners = 0;  // running hash of every answer's digest
  std::vector<double> rounds_per_select;
  std::vector<double> evals_per_insert;
  std::vector<double> est_error_pct;
  uint64_t multi_pred_sql = 0, md_routed = 0;
  std::vector<std::string> errors;

  void Fail(std::string why) {
    ++failed;
    if (errors.size() < 5) errors.push_back(std::move(why));
  }
  /// Segment of op number `op` (0-based).
  size_t SegmentOf(uint64_t op) const {
    return std::min<size_t>(kSegments - 1, op * kSegments / planned);
  }
  /// Records the latency of the op just timed, a selection.
  void AddSelect(double ms) {
    select_ms.push_back(ms);
    select_segment.push_back(static_cast<uint8_t>(SegmentOf(attempted - 1)));
  }
};

/// Whether op `i` of a client is traced in a traced run.
bool Sampled(bool trace, size_t i) {
  return trace && ((i / kTraceBlock) % 2 == 0);
}

/// Times `fn` as one op: an `op` root span when sampled, and the client's
/// busy-time books either way. Returns the op's time in ns, scaled to
/// nominal host speed.
template <typename Fn>
uint64_t TimeOp(ClientLog& log, bool sampled, Fn&& fn) {
  // The root span opens inside the timed call, after any host-speed sample.
  const auto op = [&] {
    std::optional<ScopedSpan> root;
    if (sampled) root.emplace("op", /*root=*/true);
    fn();
  };
  double scaled = 0.0;
  log.speed.Time(&scaled, op);
  const auto ns = static_cast<uint64_t>(scaled);
  log.busy_ns += ns;
  const size_t seg = log.SegmentOf(log.attempted);
  log.segment_ns[seg] += ns;
  ++log.segment_ops[seg];
  if (sampled) {
    log.traced_ns += ns;
    ++log.traced_ops;
  } else {
    log.untraced_ns += ns;
    ++log.untraced_ops;
  }
  ++log.attempted;
  return ns;
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Times the re-opens of one recovery measurement: the first (rep 0) is an
/// untimed warm-up; the others are scaled by one host-speed window that
/// spans them all, sampled before each.
class RecoverTimer {
 public:
  template <typename Fn>
  void Time(int rep, Fn&& fn) {
    speed_.Sample();
    const uint64_t t0 = NowNs();
    fn();
    const double ns = static_cast<double>(NowNs() - t0);
    if (rep > 0) times_.push_back(ns * speed_.Scale() / 1e9);
  }
  double MedianSeconds() const { return Median(times_); }

 private:
  HostSpeed speed_;
  std::vector<double> times_;
};

/// Builds a deployment kSetupRuns times, keeps the last, and reports the
/// median of their scaled set-up times.
template <typename T>
std::unique_ptr<T> SetupRepeated(
    const std::function<std::unique_ptr<T>(int, SetupClock&)>& build,
    double* setup_s) {
  std::vector<double> times;
  std::unique_ptr<T> dep;
  for (int i = 0; i < kSetupRuns; ++i) {
    dep.reset();
    SetupClock clock;
    dep = build(i, clock);
    times.push_back(clock.ns / 1e9);
  }
  *setup_s = Median(times);
  return dep;
}

/// Warms every chain of `index` to k >= kWarmK with fresh comparisons
/// issued by `db` (the paper's static-PRKB setting).
void WarmChains(core::PrkbIndex* index, edbms::Edbms* db, uint64_t seed,
                SetupClock& clock) {
  for (AttrId a = 0; a < kAttrs; ++a) {
    clock.Step([&] { index->EnableAttr(a); });
    Rng rng(seed * 131 + a);
    while (index->pop(a).k() < kWarmK) {
      const Value c = rng.UniformInt64(kDomainLo, kDomainHi);
      clock.Step([&] {
        index->Select(db->MakeComparison(a, CompareOp::kLt, c));
      });
    }
  }
}

edbms::CipherbaseEdbms Encrypt(uint64_t seed, const edbms::PlainTable& plain,
                               SetupClock& clock) {
  return clock.Step(
      [&] { return edbms::CipherbaseEdbms::FromPlainTable(seed, plain); });
}

std::vector<uint8_t> EncodePop(const core::Pop& pop) {
  Encoder enc;
  pop.EncodeTo(&enc);
  return enc.Release();
}

/// Records a failed check of the run as a whole (not of one operation).
void Fail(RunResult* out, std::string why) {
  ++out->failed;
  out->errors.push_back(std::move(why));
}

/// Checks every chain against the plaintext oracle.
void ValidateChains(const core::PrkbIndex& index, const Oracle& oracle,
                    size_t rows, RunResult* out) {
  for (const AttrId a : index.EnabledAttrs()) {
    const Status s = index.pop(a).ValidateAgainstPlain(oracle.Column(a, rows));
    if (!s.ok()) {
      Fail(out, "chain c" + std::to_string(a) + ": " + s.ToString());
    }
  }
}

void Merge(std::vector<double>* into, const std::vector<double>& from) {
  into->insert(into->end(), from.begin(), from.end());
}

/// Registry and span numbers shared by the three workloads' traced runs.
struct LayerInputs {
  uint64_t ops = 0;
  uint64_t selects = 0;
  double chain_k_mean = 0.0;
  double insert_us_p50 = 0.0;
  double evals_per_insert = 0.0;
  double rounds_per_select = 0.0;
  double parse_us = 0.0;
  double plan_us = 0.0;
  double md_route_frac = 0.0;
  double est_error_pct_p50 = 0.0;
  double cal_eval_ns = 0.0;
  double cal_rt_ns = 0.0;
  double wal_fsyncs = 0.0, wal_bytes = 0.0, wal_compactions = 0.0;
  double wal_bytes_per_insert = 0.0;
  double insert_p50_ms = 0.0, insert_p99_ms = 0.0;
  double recover_s = 0.0;
  double traced_ops_per_s = 0.0, untraced_ops_per_s = 0.0;
  bool remote = false;
};

void AddLayerMetrics(const LayerInputs& in, RunResult* out) {
  const SpanSummary spans = Summarize(Recorder::Get().Logs());
  uint64_t entries = 0, cells = 0, entry_ns = 0;
  std::vector<double> entry_us;
  for (const ThreadLog* log : Recorder::Get().Logs()) {
    entries += log->entry_ns.size();
    cells += log->entry_cells;
    for (const uint64_t ns : log->entry_ns) {
      entry_ns += ns;
      entry_us.push_back(static_cast<double>(ns) / 1e3);
    }
  }
  auto self_ns = [&](const char* name) {
    const auto it = spans.self_ns.find(name);
    return it == spans.self_ns.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto count_of = [&](const char* name) {
    const auto it = spans.count.find(name);
    return it == spans.count.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double ops = static_cast<double>(in.ops);
  const double selects = static_cast<double>(in.selects);
  const double traced_ops = static_cast<double>(spans.roots);
  const double eval_ns = Ratio(static_cast<double>(entry_ns),
                               static_cast<double>(cells));
  const double round_mean_ns = HistMean("qpf.round_trip_ns");
  const double round_p50_ns = HistPercentile("qpf.round_trip_ns", 0.5);
  const double entry_mean_ns = Ratio(static_cast<double>(entry_ns),
                                     static_cast<double>(entries));

  double layer_self = 0.0;
  for (const auto& [name, ns] : spans.self_ns) {
    if (name != "op") layer_self += static_cast<double>(ns);
  }
  // Entries a traced op made on its own thread are its children; a served
  // backend's entries run on server workers and belong to no op.
  const double exec_self = self_ns("query.execute") + self_ns("prkb.select");
  const double exec_count = count_of("query.execute") + count_of("prkb.select");
  const uint64_t hits = Ctr("prkb.cache.hits");
  const uint64_t misses = Ctr("prkb.cache.misses");
  const uint64_t spec = Ctr("probe_sched.speculative");
  const uint64_t spec_waste = Ctr("probe_sched.speculative_waste");
  const uint64_t co_rounds = Ctr("coalesce.rounds");

  auto add = [&](const char* name, double v, const char* unit) {
    out->metrics.push_back({name, v, unit});
  };
  add("query.parse_us", in.parse_us, "us");
  add("query.plan_us", in.plan_us, "us");
  // Remote selections make no client-side entries to subtract.
  add("exec.cpu_us_per_select",
      in.remote ? 0.0 : Ratio(exec_self, exec_count) / 1e3, "us");
  add("exec.md_route_frac", in.md_route_frac, "fraction");
  add("exec.est_error_pct_p50", in.est_error_pct_p50, "%");
  add("exec.cal_eval_fit_ratio", Ratio(in.cal_eval_ns, eval_ns), "ratio");
  add("exec.cal_rt_fit_ratio",
      in.remote ? Ratio(in.cal_rt_ns, round_p50_ns) : 0.0, "ratio");
  add("prkb.cache_hit_frac",
      Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
      "fraction");
  add("prkb.qfilter_probes_per_select",
      Ratio(static_cast<double>(Ctr("qfilter.probes")), selects), "count");
  add("prkb.qscan_evals_per_select",
      Ratio(static_cast<double>(Ctr("qscan.tuples_scanned")), selects),
      "count");
  add("prkb.splits_per_select",
      Ratio(static_cast<double>(Ctr("prkb.splits")), selects), "count");
  add("prkb.chain_k_mean", in.chain_k_mean, "count");
  add("prkb.rounds_per_select", in.rounds_per_select, "count");
  add("prkb.spec_useful_frac",
      spec > 0 ? 1.0 - static_cast<double>(spec_waste) /
                           static_cast<double>(spec)
               : 0.0,
      "fraction");
  add("prkb.lock_wait_us_p99", HistPercentile("prkb.lock.wait_ns", 0.99) / 1e3,
      "us");
  add("prkb.select_retry_frac",
      Ratio(static_cast<double>(Ctr("prkb.lock.select_retries")), selects),
      "fraction");
  add("prkb.insert_us_p50", in.insert_us_p50, "us");
  add("prkb.evals_per_insert", in.evals_per_insert, "count");
  add("prkb.buffer_flushes_per_op",
      Ratio(static_cast<double>(Ctr("update.buffer.flushes")), ops), "count");
  add("prkb.flush_batch_mean", HistMean("update.buffer.flush_batch_size"),
      "count");
  add("prkb.wal_fsyncs_per_op", Ratio(in.wal_fsyncs, ops), "count");
  add("prkb.wal_bytes_per_op", Ratio(in.wal_bytes, ops), "B");
  add("prkb.wal_compactions", in.wal_compactions, "count");
  add("prkb.membership_bytes",
      static_cast<double>(Reg().GetGauge("memberset.bytes")->value()), "B");
  add("edbms.entry_us_p50", Percentile(entry_us, 0.5), "us");
  add("edbms.entry_us_p99", Percentile(entry_us, 0.99), "us");
  add("edbms.eval_ns", eval_ns, "ns");
  add("edbms.cells_per_entry",
      Ratio(static_cast<double>(cells), static_cast<double>(entries)),
      "count");
  // In-process, entries are sampled inside traced ops only; served entries
  // are all sampled, so they are counted against every op.
  const double entry_ops = in.remote ? ops : traced_ops;
  add("edbms.entries_per_op", Ratio(static_cast<double>(entries), entry_ops),
      "count");
  add("edbms.busy_frac",
      in.remote ? 0.0
                : Ratio(static_cast<double>(entry_ns),
                        static_cast<double>(spans.root_ns)),
      "fraction");
  add("net.round_us_p50", in.remote ? round_p50_ns / 1e3 : 0.0, "us");
  add("net.round_us_p99",
      in.remote ? HistPercentile("qpf.round_trip_ns", 0.99) / 1e3 : 0.0, "us");
  add("net.wire_queue_us",
      in.remote ? (round_mean_ns - entry_mean_ns) / 1e3 : 0.0, "us");
  add("net.bytes_per_op",
      Ratio(static_cast<double>(Ctr("net.bytes_sent")), ops), "B");
  add("net.frames_per_op",
      Ratio(static_cast<double>(Ctr("net.frames_sent")), ops), "count");
  add("net.entries_per_round",
      Ratio(static_cast<double>(Ctr("coalesce.entries")),
            static_cast<double>(co_rounds)),
      "ratio");
  add("net.dedup_frac",
      Ratio(static_cast<double>(Ctr("coalesce.dedup_tds")),
            static_cast<double>(co_rounds)),
      "ratio");
  add("net.linger_us",
      static_cast<double>(Reg().GetGauge("coalesce.linger_ns")->value()) / 1e3,
      "us");
  add("write.insert_p50_ms", in.insert_p50_ms, "ms");
  add("write.insert_p99_ms", in.insert_p99_ms, "ms");
  add("write.wal_bytes_per_insert", in.wal_bytes_per_insert, "B");
  add("write.recover_s", in.recover_s, "s");
  add("trace.unattributed_frac",
      1.0 - Ratio(layer_self, static_cast<double>(spans.root_ns)), "fraction");
  add("trace.overhead_frac",
      in.untraced_ops_per_s > 0.0
          ? 1.0 - in.traced_ops_per_s / in.untraced_ops_per_s
          : 0.0,
      "fraction");
}

/// End-to-end metrics, from the clients' logs.
void AddEndToEnd(const std::vector<ClientLog>& clients, double setup_s,
                 uint64_t qpf_uses, size_t index_bytes, size_t rows,
                 RunResult* out) {
  std::vector<double> select_ms;
  std::array<std::vector<double>, kSegments> segment_ms;
  std::vector<double> segment_rate(kSegments, 0.0);
  uint64_t attempted = 0;
  for (const ClientLog& c : clients) {
    Merge(&select_ms, c.select_ms);
    for (size_t i = 0; i < c.select_ms.size(); ++i) {
      segment_ms[c.select_segment[i]].push_back(c.select_ms[i]);
    }
    for (size_t s = 0; s < kSegments; ++s) {
      segment_rate[s] += Ratio(static_cast<double>(c.segment_ops[s]),
                               static_cast<double>(c.segment_ns[s]) / 1e9);
    }
    attempted += c.attempted;
  }
  std::vector<double> segment_p95;
  for (const auto& ms : segment_ms) segment_p95.push_back(Percentile(ms, 0.95));
  auto add = [&](const char* name, double v, const char* unit) {
    out->metrics.push_back({name, v, unit});
  };
  add("setup_s", setup_s, "s");
  add("select_p50_ms", Percentile(select_ms, 0.5), "ms");
  add("select_p95_ms", Median(segment_p95), "ms");
  add("ops_per_s", Median(segment_rate), "1/s");
  add("qpf_uses_per_op",
      Ratio(static_cast<double>(qpf_uses), static_cast<double>(attempted)),
      "count");
  add("index_bytes_per_row",
      Ratio(static_cast<double>(index_bytes), static_cast<double>(rows)), "B");
  add("peak_rss_mb", PeakRssMb(), "MB");
}

/// Folds the clients' attempt and failure counts into the result.
void Tally(const std::vector<ClientLog>& clients, RunResult* out) {
  for (const ClientLog& c : clients) {
    out->attempted += c.attempted;
    out->failed += c.failed;
    for (const std::string& e : c.errors) out->errors.push_back(e);
  }
}

/// Throughput of the traced and untraced op blocks of all clients.
void SplitThroughput(const std::vector<ClientLog>& clients, LayerInputs* in) {
  for (const ClientLog& c : clients) {
    in->traced_ops_per_s += Ratio(static_cast<double>(c.traced_ops),
                                  static_cast<double>(c.traced_ns) / 1e9);
    in->untraced_ops_per_s += Ratio(static_cast<double>(c.untraced_ops),
                                    static_cast<double>(c.untraced_ns) / 1e9);
  }
}

/// Saves each index to `dir`, then re-loads all of them into fresh indexes
/// kRecoverRuns times; each load must reproduce every chain byte for byte.
/// Returns the median load time.
double SnapshotRecover(const std::vector<const core::PrkbIndex*>& indexes,
                       edbms::Edbms* db, const std::string& dir,
                       RunResult* out) {
  std::vector<std::string> paths;
  for (size_t i = 0; i < indexes.size(); ++i) {
    paths.push_back(dir + "/snapshot-" + std::to_string(i) + ".prkb");
    const Status s = core::SavePrkb(*indexes[i], paths.back());
    if (!s.ok()) Fail(out, "save: " + s.ToString());
  }
  RecoverTimer timer;
  for (int r = 0; r <= kRecoverRuns; ++r) {
    std::vector<std::unique_ptr<core::PrkbIndex>> fresh;
    timer.Time(r, [&] {
      for (const std::string& path : paths) {
        fresh.push_back(std::make_unique<core::PrkbIndex>(db));
        const Status s = core::LoadPrkb(fresh.back().get(), path);
        if (!s.ok()) Fail(out, "load: " + s.ToString());
      }
    });
    for (size_t i = 0; i < indexes.size(); ++i) {
      for (const AttrId a : indexes[i]->EnabledAttrs()) {
        if (!fresh[i]->IsEnabled(a) ||
            EncodePop(fresh[i]->pop(a)) != EncodePop(indexes[i]->pop(a))) {
          Fail(out, "snapshot reload differs on c" + std::to_string(a));
        }
      }
    }
  }
  return timer.MedianSeconds();
}

core::PrkbOptions BaseOptions(uint64_t seed) {
  core::PrkbOptions o;
  o.seed = seed;
  o.batch_size = kScanBatch;
  return o;
}

// ---------------------------------------------------------------------------
// sql_warm_inproc: SQL text through the planner over an in-process backend.

struct SqlOp {
  enum Kind { kInsert, kFresh, kRepeat } kind = kFresh;
  std::vector<Pred> preds;
  std::string sql;
  size_t ref = 0;  // kRepeat: index of the fresh op re-sent
};

std::vector<SqlOp> MakeSqlOps(uint64_t seed, size_t n) {
  Rng rng(seed ^ 0x5A1ULL);
  std::vector<SqlOp> ops;
  std::deque<size_t> working;  // the last 16 fresh statements
  for (size_t i = 0; i < n; ++i) {
    SqlOp op;
    const double r = rng.UniformDouble();
    if (r < 0.10) {
      op.kind = SqlOp::kInsert;
    } else if (r < 0.28 && !working.empty()) {
      op.kind = SqlOp::kRepeat;
      op.ref = working[rng.UniformInt(0, working.size() - 1)];
      op.preds = ops[op.ref].preds;
    } else {
      const auto attr = static_cast<AttrId>(rng.UniformInt(0, kAttrs - 1));
      const double shape = rng.UniformDouble();
      if (shape < 0.4) {
        op.preds = {RandomComparison(rng, attr)};
      } else if (shape < 0.7) {
        op.preds = {RandomBetween(rng, attr)};
      } else {
        op.preds = RandomConjunction(rng, attr);
      }
      op.sql = SqlOf(op.preds);
      working.push_back(i);
      if (working.size() > 16) working.pop_front();
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

struct SqlDeployment {
  SqlDeployment(uint64_t seed, const edbms::PlainTable& plain,
                SetupClock& clock)
      : db(Encrypt(seed, plain, clock)),
        deco(&db, /*serving=*/false),
        index(&deco, BaseOptions(seed)),
        planner(&catalog, &deco, &index) {
    std::vector<std::string> cols;
    for (size_t a = 0; a < kAttrs; ++a) cols.push_back(ColumnName(a));
    catalog.RegisterTable("t", cols);
    WarmChains(&index, &deco, seed, clock);
  }

  edbms::CipherbaseEdbms db;
  TimedEdbms deco;
  core::PrkbIndex index;
  query::Catalog catalog;
  query::Planner planner;
};

/// A fresh statement's trapdoors and route, kept for its exact repeats (a
/// client re-sending a prepared statement's issued trapdoors).
struct Prepared {
  std::string route;
  std::vector<Trapdoor> tds;
};

std::vector<TupleId> RunPrepared(core::PrkbIndex& index, const Prepared& p,
                                 edbms::SelectionStats* st) {
  ScopedSpan span("prkb.select");
  if (p.route == "prkb-md") return index.SelectRangeMd(p.tds, st);
  if (p.route == "prkb-sd+") return index.SelectRangeSdPlus(p.tds, st);
  return index.Select(p.tds[0], st);
}

void RunSql(const RunArgs& args, RunResult* out) {
  const size_t n_ops = kSqlOpsPerSecond * static_cast<size_t>(args.seconds);
  const std::vector<SqlOp> ops = MakeSqlOps(args.seed, n_ops);
  size_t n_inserts = 0;
  for (const SqlOp& op : ops) n_inserts += op.kind == SqlOp::kInsert;
  edbms::PlainTable plain(kAttrs);
  const Oracle oracle = MakeOracle(args.seed, n_inserts, &plain);

  double setup_s = 0.0;
  auto dep = SetupRepeated<SqlDeployment>(
      [&](int, SetupClock& clock) {
        return std::make_unique<SqlDeployment>(args.seed, plain, clock);
      },
      &setup_s);
  Reg().Reset();
  Recorder::Get().set_tracing(args.trace);

  ClientLog log;
  log.planned = ops.size();
  // The statements the generator's working set can repeat (its last 16).
  std::unordered_map<size_t, Prepared> prepared;
  std::deque<size_t> prepared_order;
  std::vector<double> plan_us, parse_us;
  size_t rows = kRows;
  const uint64_t uses0 = dep->deco.uses();
  const uint64_t trips0 = dep->deco.round_trips();
  for (size_t i = 0; i < ops.size(); ++i) {
    const SqlOp& op = ops[i];
    const bool sampled = Sampled(args.trace, i);
    if (op.kind == SqlOp::kInsert) {
      const auto want = static_cast<TupleId>(rows);
      const std::vector<Value> row = oracle.Row(want);
      edbms::SelectionStats st;
      TupleId got = 0;
      const uint64_t ns = TimeOp(log, sampled, [&] {
        ScopedSpan span("prkb.insert");
        got = dep->index.Insert(row, &st);
      });
      ++rows;
      log.insert_ms.push_back(Ms(ns));
      if (!sampled) log.insert_ms_untraced.push_back(Ms(ns));
      log.evals_per_insert.push_back(static_cast<double>(st.qpf_uses));
      if (got != want) log.Fail("insert got tid " + std::to_string(got));
      continue;
    }
    std::vector<TupleId> winners;
    edbms::SelectionStats st;
    bool ok = true;
    uint64_t ns = 0;
    if (op.kind == SqlOp::kRepeat) {
      const auto it = prepared.find(op.ref);
      if (it == prepared.end()) {
        ++log.attempted;
        log.Fail("repeat of a failed statement");
        continue;
      }
      ns = TimeOp(log, sampled,
                  [&] { winners = RunPrepared(dep->index, it->second, &st); });
    } else {
      std::optional<Result<query::ExecutionResult>> res;
      ns = TimeOp(log, sampled, [&] {
        std::optional<Result<query::SelectStatement>> stmt;
        {
          ScopedSpan span("query.parse");
          stmt.emplace(query::Parse(op.sql));
        }
        if (!stmt->ok()) {
          res.emplace(stmt->status());
          return;
        }
        ScopedSpan span("query.execute");
        res.emplace(dep->planner.Execute(stmt->value()));
      });
      if (!res->ok()) {
        ok = false;
        log.Fail(op.sql + ": " + res->status().ToString());
      } else {
        query::ExecutionResult& r = res->value();
        winners = std::move(r.rows);
        st = r.stats;
        const double est = r.physical.root.estimated.Total();
        if (est > 0.0) {
          log.est_error_pct.push_back(
              std::abs(static_cast<double>(st.qpf_uses) - est) /
              std::max(est, 1.0) * 100.0);
        }
        if (op.preds.size() > 1) {
          ++log.multi_pred_sql;
          log.md_routed += r.physical.route == "prkb-md";
        }
        Prepared p;
        p.route = r.physical.route;
        for (size_t t = 0; t < r.physical.num_trapdoors(); ++t) {
          p.tds.push_back(r.physical.td(static_cast<int>(t)));
        }
        prepared[i] = std::move(p);
        prepared_order.push_back(i);
        if (prepared_order.size() > 16) {
          prepared.erase(prepared_order.front());
          prepared_order.pop_front();
        }
      }
      if (sampled) {
        // Plan-only cost of the same statement, outside the op's span.
        uint64_t t0 = NowNs();
        auto stmt = query::Parse(op.sql);
        parse_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
        if (stmt.ok()) {
          stmt.value().explain = true;
          t0 = NowNs();
          (void)dep->planner.Execute(stmt.value());
          plan_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
        }
      }
    }
    log.AddSelect(Ms(ns));
    log.rounds_per_select.push_back(static_cast<double>(st.qpf_round_trips));
    if (!ok) continue;
    const Oracle::Digest d = Oracle::Of(winners);
    if (oracle.Expected(RangesOf(op.preds), rows) != d) {
      log.Fail("wrong winners for op " + std::to_string(i));
    }
    log.winners = HashStep(log.winners, d);
  }
  Recorder::Get().set_tracing(false);

  ValidateChains(dep->index, oracle, rows, out);
  const double recover_s =
      SnapshotRecover({&dep->index}, &dep->deco, args.work_dir, out);
  const uint64_t uses = dep->deco.uses() - uses0;
  std::vector<ClientLog> clients = {log};
  Tally(clients, out);
  out->fingerprint = {
      {"qpf_uses", uses},
      {"round_trips", dep->deco.round_trips() - trips0},
      {"splits", Ctr("prkb.splits")},
      {"md_routes", log.md_routed},
      {"winners_hash", log.winners},
  };
  if (!args.trace) {
    AddEndToEnd(clients, setup_s, uses, dep->index.SizeBytes(), rows, out);
    return;
  }
  LayerInputs in;
  in.recover_s = recover_s;
  in.ops = log.attempted;
  in.selects = log.select_ms.size();
  double k = 0.0;
  for (AttrId a = 0; a < kAttrs; ++a) k += dep->index.StatsFor(a).k;
  in.chain_k_mean = k / kAttrs;
  (void)dep->index.SizeBytes();  // samples memberset.bytes
  std::vector<double> ins_us;
  for (const double ms : log.insert_ms) ins_us.push_back(ms * 1e3);
  in.insert_us_p50 = Percentile(ins_us, 0.5);
  in.evals_per_insert = Mean(log.evals_per_insert);
  in.rounds_per_select = Mean(log.rounds_per_select);
  in.parse_us = Median(parse_us);
  in.plan_us = Median(plan_us);
  in.md_route_frac = Ratio(static_cast<double>(log.md_routed),
                           static_cast<double>(log.multi_pred_sql));
  in.est_error_pct_p50 = Median(log.est_error_pct);
  in.cal_eval_ns = dep->index.calibrator().eval_ns();
  in.insert_p50_ms = Percentile(log.insert_ms_untraced, 0.5);
  in.insert_p99_ms = Percentile(log.insert_ms_untraced, 0.99);
  SplitThroughput(clients, &in);
  AddLayerMetrics(in, out);
}

// ---------------------------------------------------------------------------
// remote_tm_4c: four clients over one loopback connection to a QpfServer
// whose backend charges 300µs per trusted-machine entry.

struct RemoteOp {
  std::vector<Pred> preds;
  std::vector<Trapdoor> tds;  // issued before timing
};

/// Client `c` owns attributes c and c + 4: its single-predicate selections
/// touch only those, and about 10% of its ops are 2-attribute MD
/// comparisons reaching into another client's attribute.
std::vector<RemoteOp> MakeRemoteOps(uint64_t seed, size_t client, size_t n) {
  Rng rng(seed * 977 + client);
  std::vector<RemoteOp> ops(n);
  for (RemoteOp& op : ops) {
    const size_t slot = rng.UniformInt(0, kAttrs / kRemoteClients - 1);
    const auto own = static_cast<AttrId>(client + kRemoteClients * slot);
    const double r = rng.UniformDouble();
    if (r < 0.10) {
      AttrId other = own;
      while (other == own) {
        other = static_cast<AttrId>(rng.UniformInt(0, kAttrs - 1));
      }
      op.preds = {RandomComparison(rng, own), RandomComparison(rng, other)};
    } else if (r < 0.64) {
      op.preds = {RandomComparison(rng, own)};
    } else {
      op.preds = {RandomBetween(rng, own)};
    }
  }
  return ops;
}

struct RemoteDeployment {
  RemoteDeployment(uint64_t seed, const edbms::PlainTable& plain,
                   SetupClock& clock)
      : db(Encrypt(seed, plain, clock)), served(&db, /*serving=*/true) {
    // Warm the chains in-process (no latency), then hand them to the shards.
    std::vector<core::Pop> warm_pops;
    {
      core::PrkbIndex warm(&db, BaseOptions(seed));
      WarmChains(&warm, &db, seed, clock);
      for (AttrId a = 0; a < kAttrs; ++a) warm_pops.push_back(warm.pop(a));
    }
    clock.Step([&] { Serve(seed, std::move(warm_pops)); });
  }

  /// Starts the server, connects the client stack and installs the chains.
  void Serve(uint64_t seed, std::vector<core::Pop> warm_pops) {
    db.trusted_machine().set_call_latency_ns(kRemoteTmLatencyNs);
    net::QpfServerOptions sopts;
    sopts.workers = kRemoteClients;
    server = std::make_unique<net::QpfServer>(&served, sopts);
    const Status s = server->ServeTcp(0);
    if (!s.ok()) {
      error = "serve: " + s.ToString();
      return;
    }
    auto conn = net::QpfClient::ConnectTcp("127.0.0.1", server->port());
    if (!conn.ok()) {
      error = "connect: " + conn.status().ToString();
      return;
    }
    client = std::move(conn).value();
    remote = std::make_unique<net::RemoteEdbms>(&db, client.get());
    bus = std::make_unique<net::CoalescedEdbms>(remote.get());
    bus->CalibrateTransport(kRemoteTmLatencyNs);
    core::PrkbOptions o = BaseOptions(seed);
    o.rt_latency_hint_ns = static_cast<double>(kRemoteTmLatencyNs);
    index = std::make_unique<core::ShardedPrkbIndex>(bus.get(), kRemoteShards,
                                                     o);
    for (AttrId a = 0; a < kAttrs; ++a) {
      index->EnableAttr(a);
      index->shard(index->ShardOf(a)).WithLocked([&](core::PrkbIndex& ix) {
        ix.InstallPop(a, std::move(warm_pops[a]));
      });
    }
  }

  ~RemoteDeployment() {
    index.reset();
    bus.reset();
    remote.reset();
    if (client) client->Close();
    client.reset();
    if (server) server->Stop();
  }
  RemoteDeployment(const RemoteDeployment&) = delete;
  RemoteDeployment& operator=(const RemoteDeployment&) = delete;

  edbms::CipherbaseEdbms db;
  TimedEdbms served;
  std::unique_ptr<net::QpfServer> server;
  std::unique_ptr<net::QpfClient> client;
  std::unique_ptr<net::RemoteEdbms> remote;
  std::unique_ptr<net::CoalescedEdbms> bus;
  std::unique_ptr<core::ShardedPrkbIndex> index;
  std::string error;
};

void RunRemote(const RunArgs& args, RunResult* out) {
  const size_t per_client =
      kRemoteOpsPerSecondPerClient * static_cast<size_t>(args.seconds);
  edbms::PlainTable plain(kAttrs);
  const Oracle oracle = MakeOracle(args.seed, 0, &plain);
  std::vector<std::vector<RemoteOp>> ops;
  for (size_t c = 0; c < kRemoteClients; ++c) {
    ops.push_back(MakeRemoteOps(args.seed, c, per_client));
  }

  double setup_s = 0.0;
  auto dep = SetupRepeated<RemoteDeployment>(
      [&](int, SetupClock& clock) {
        return std::make_unique<RemoteDeployment>(args.seed, plain, clock);
      },
      &setup_s);
  if (!dep->error.empty()) {
    Fail(out, dep->error);
    return;
  }
  for (auto& list : ops) {
    for (RemoteOp& op : list) {
      for (const Pred& p : op.preds) op.tds.push_back(Issue(&dep->db, p));
    }
  }
  Reg().Reset();
  Recorder::Get().set_tracing(args.trace);

  const uint64_t uses0 = dep->bus->uses();
  const uint64_t trips0 = dep->bus->round_trips();
  std::vector<ClientLog> logs(kRemoteClients);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kRemoteClients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[c];
      log.planned = ops[c].size();
      for (size_t i = 0; i < ops[c].size(); ++i) {
        const RemoteOp& op = ops[c][i];
        std::vector<TupleId> winners;
        const uint64_t ns = TimeOp(log, Sampled(args.trace, i), [&] {
          ScopedSpan span("prkb.select");
          winners = op.tds.size() == 1 ? dep->index->Select(op.tds[0])
                                       : dep->index->SelectRangeMd(op.tds);
        });
        log.AddSelect(Ms(ns));
        const Status health = dep->bus->Health();
        const Oracle::Digest d = Oracle::Of(winners);
        if (!health.ok()) {
          log.Fail("transport: " + health.ToString());
        } else if (oracle.Expected(RangesOf(op.preds), kRows) != d) {
          log.Fail("wrong winners for client " + std::to_string(c) + " op " +
                   std::to_string(i));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Recorder::Get().set_tracing(false);

  const uint64_t uses = dep->bus->uses() - uses0;
  const uint64_t trips = dep->bus->round_trips() - trips0;
  std::vector<const core::PrkbIndex*> shards;
  for (size_t s = 0; s < dep->index->num_shards(); ++s) {
    dep->index->shard(s).WithLocked([&](core::PrkbIndex& ix) {
      ValidateChains(ix, oracle, kRows, out);
      shards.push_back(&ix);
    });
  }
  // The clients have stopped, so the shards are read without their locks.
  const double recover_s =
      SnapshotRecover(shards, dep->bus.get(), args.work_dir, out);
  Tally(logs, out);
  if (!args.trace) {
    AddEndToEnd(logs, setup_s, uses, dep->index->SizeBytes(), kRows, out);
    return;
  }
  LayerInputs in;
  in.recover_s = recover_s;
  in.remote = true;
  for (const ClientLog& c : logs) {
    in.ops += c.attempted;
    in.selects += c.select_ms.size();
  }
  // SelectionStats deltas are taken on the shared oracle, so under
  // concurrent clients they include other clients' rounds; the oracle's own
  // total over the run is exact.
  in.rounds_per_select =
      Ratio(static_cast<double>(trips), static_cast<double>(in.selects));
  double k = 0.0;
  for (AttrId a = 0; a < kAttrs; ++a) k += dep->index->StatsFor(a).k;
  in.chain_k_mean = k / kAttrs;
  (void)dep->index->SizeBytes();
  for (const auto& r : dep->index->Describe()) {
    in.cal_eval_ns += r.cal_eval_ns / static_cast<double>(kRemoteShards);
    in.cal_rt_ns += r.cal_rt_latency_ns / static_cast<double>(kRemoteShards);
  }
  SplitThroughput(logs, &in);
  AddLayerMetrics(in, out);
}

// ---------------------------------------------------------------------------
// durable_write_mix: buffered inserts and selections over a WAL'd index.

struct DurableOp {
  bool insert = false;
  Pred pred;
  std::optional<Trapdoor> td;  // issued before timing
};

std::vector<DurableOp> MakeDurableOps(uint64_t seed, size_t n) {
  Rng rng(seed ^ 0xD0AB1EULL);
  std::vector<DurableOp> ops(n);
  for (DurableOp& op : ops) {
    op.insert = rng.UniformDouble() < 0.5;
    if (op.insert) continue;
    const auto attr = static_cast<AttrId>(rng.UniformInt(0, kAttrs - 1));
    op.pred = rng.UniformDouble() < 0.6 ? RandomComparison(rng, attr)
                                        : RandomBetween(rng, attr);
  }
  return ops;
}

core::PrkbOptions DurableOptions(uint64_t seed) {
  core::PrkbOptions o = BaseOptions(seed);
  o.buffered_inserts = true;
  return o;
}

/// Group commit writes every committed record to the log file, without
/// fsync, and compacts at 256 KiB.
///
/// An fsync per commit made this workload's times follow the shared disk,
/// not the program: during one slow spell of the disk, ten seeds gave a
/// select p99 spread of 58%. Without it, log bytes, compaction and replay
/// are still measured; the flush itself is not.
///
/// At ~170 B of log per op the default 8 MiB threshold would fold the log
/// once per ~50k ops, beyond one run. A small threshold makes compaction
/// cycle many times per run, and keeps the log left for recovery to replay
/// small next to the snapshot, so write.recover_s does not swing with where
/// in the run the last compaction fell.
core::WalOptions DurableWalOptions() {
  core::WalOptions o;
  o.fsync_on_commit = false;
  o.compact_threshold_bytes = 256u << 10;
  return o;
}

struct DurableDeployment {
  DurableDeployment(uint64_t seed, const edbms::PlainTable& plain,
                    const std::string& wal_dir, SetupClock& clock)
      : db(Encrypt(seed, plain, clock)),
        deco(&db, /*serving=*/false),
        index(&deco, DurableOptions(seed)) {
    WarmChains(&index, &deco, seed, clock);
    std::filesystem::remove_all(wal_dir);
    auto opened = clock.Step([&] {
      return core::PrkbWal::Open(&index, wal_dir, DurableWalOptions());
    });
    if (!opened.ok()) {
      error = "wal open: " + opened.status().ToString();
      return;
    }
    wal = std::move(opened).value();
  }

  edbms::CipherbaseEdbms db;
  TimedEdbms deco;
  core::PrkbIndex index;
  std::unique_ptr<core::PrkbWal> wal;  // after index: detaches first
  std::string error;
};

void RunDurable(const RunArgs& args, RunResult* out) {
  const size_t n_ops = kDurableOpsPerSecond * static_cast<size_t>(args.seconds);
  std::vector<DurableOp> ops = MakeDurableOps(args.seed, n_ops);
  size_t n_inserts = 0;
  for (const DurableOp& op : ops) n_inserts += op.insert;
  edbms::PlainTable plain(kAttrs);
  const Oracle oracle = MakeOracle(args.seed, n_inserts, &plain);

  double setup_s = 0.0;
  std::string wal_dir;
  auto dep = SetupRepeated<DurableDeployment>(
      [&](int i, SetupClock& clock) {
        wal_dir = args.work_dir + "/wal-" + std::to_string(i);
        return std::make_unique<DurableDeployment>(args.seed, plain, wal_dir,
                                                   clock);
      },
      &setup_s);
  if (!dep->error.empty()) {
    Fail(out, dep->error);
    return;
  }
  for (DurableOp& op : ops) {
    if (!op.insert) op.td = Issue(&dep->deco, op.pred);
  }
  Reg().Reset();
  Recorder::Get().set_tracing(args.trace);

  const core::PrkbWal::Stats wal0 = dep->wal->stats();
  const uint64_t uses0 = dep->deco.uses();
  const uint64_t trips0 = dep->deco.round_trips();
  ClientLog log;
  log.planned = ops.size();
  size_t rows = kRows;
  for (size_t i = 0; i < ops.size(); ++i) {
    const DurableOp& op = ops[i];
    const bool sampled = Sampled(args.trace, i);
    edbms::SelectionStats st;
    if (op.insert) {
      const auto want = static_cast<TupleId>(rows);
      const std::vector<Value> row = oracle.Row(want);
      TupleId got = 0;
      const uint64_t ns = TimeOp(log, sampled, [&] {
        ScopedSpan span("prkb.insert");
        got = dep->index.Insert(row, &st);
      });
      ++rows;
      log.insert_ms.push_back(Ms(ns));
      if (!sampled) log.insert_ms_untraced.push_back(Ms(ns));
      log.evals_per_insert.push_back(static_cast<double>(st.qpf_uses));
      if (got != want) log.Fail("insert got tid " + std::to_string(got));
      continue;
    }
    std::vector<TupleId> winners;
    const uint64_t ns = TimeOp(log, sampled, [&] {
      ScopedSpan span("prkb.select");
      winners = dep->index.Select(*op.td, &st);
    });
    log.AddSelect(Ms(ns));
    log.rounds_per_select.push_back(static_cast<double>(st.qpf_round_trips));
    const Oracle::Digest d = Oracle::Of(winners);
    if (oracle.Expected({RangeOf(op.pred)}, rows) != d) {
      log.Fail("wrong winners for op " + std::to_string(i));
    }
    log.winners = HashStep(log.winners, d);
  }
  Recorder::Get().set_tracing(false);
  const uint64_t uses = dep->deco.uses() - uses0;
  const uint64_t trips = dep->deco.round_trips() - trips0;
  const core::PrkbWal::Stats wal1 = dep->wal->stats();
  ValidateChains(dep->index, oracle, rows, out);

  // Recovery: close the log, then re-open its directory into fresh indexes
  // over the same store. Replay must re-create every chain byte for byte,
  // spend no QPF, and keep every acknowledged insert placed or buffered.
  dep->wal.reset();
  std::vector<std::vector<uint8_t>> live;
  for (AttrId a = 0; a < kAttrs; ++a) {
    live.push_back(EncodePop(dep->index.pop(a)));
  }
  RecoverTimer timer;
  for (int r = 0; r <= kRecoverRuns; ++r) {
    core::PrkbIndex fresh(&dep->deco, DurableOptions(args.seed));
    const uint64_t before = dep->deco.uses();
    std::optional<Result<std::unique_ptr<core::PrkbWal>>> wal;
    timer.Time(r, [&] {
      wal.emplace(core::PrkbWal::Open(&fresh, wal_dir, DurableWalOptions()));
    });
    if (!wal->ok()) {
      Fail(out, "recover: " + wal->status().ToString());
      break;
    }
    if (dep->deco.uses() != before) {
      Fail(out, "recovery spent QPF uses");
    }
    for (AttrId a = 0; a < kAttrs; ++a) {
      if (!fresh.IsEnabled(a) || EncodePop(fresh.pop(a)) != live[a]) {
        Fail(out, "recovered chain c" + std::to_string(a) + " differs");
        continue;
      }
      const core::Pop& pop = fresh.pop(a);
      for (TupleId t = 0; t < rows; ++t) {
        if (pop.partition_of(t) == core::Pop::kNoPartition &&
            !pop.insert_buffer().Contains(t)) {
          Fail(out, "tuple " + std::to_string(t) + " lost from c" +
                        std::to_string(a));
          break;
        }
      }
    }
  }
  const double recover_s = timer.MedianSeconds();

  std::vector<ClientLog> clients = {log};
  Tally(clients, out);
  const double wal_bytes =
      static_cast<double>(wal1.appended_bytes - wal0.appended_bytes);
  out->fingerprint = {
      {"qpf_uses", uses},
      {"round_trips", trips},
      {"splits", Ctr("prkb.splits")},
      {"wal_bytes", static_cast<uint64_t>(wal_bytes)},
      {"winners_hash", log.winners},
  };
  if (!args.trace) {
    AddEndToEnd(clients, setup_s, uses, dep->index.SizeBytes(), rows, out);
    return;
  }
  LayerInputs in;
  in.recover_s = recover_s;
  in.ops = log.attempted;
  in.selects = log.select_ms.size();
  double k = 0.0;
  for (AttrId a = 0; a < kAttrs; ++a) k += dep->index.StatsFor(a).k;
  in.chain_k_mean = k / kAttrs;
  (void)dep->index.SizeBytes();
  std::vector<double> ins_us;
  for (const double ms : log.insert_ms) ins_us.push_back(ms * 1e3);
  in.insert_us_p50 = Percentile(ins_us, 0.5);
  in.evals_per_insert = Mean(log.evals_per_insert);
  in.rounds_per_select = Mean(log.rounds_per_select);
  in.cal_eval_ns = dep->index.calibrator().eval_ns();
  in.wal_fsyncs = static_cast<double>(wal1.fsyncs - wal0.fsyncs);
  in.wal_bytes = wal_bytes;
  in.wal_compactions = static_cast<double>(wal1.compactions - wal0.compactions);
  in.wal_bytes_per_insert =
      Ratio(wal_bytes, static_cast<double>(log.insert_ms.size()));
  in.insert_p50_ms = Percentile(log.insert_ms_untraced, 0.5);
  in.insert_p99_ms = Percentile(log.insert_ms_untraced, 0.99);
  SplitThroughput(clients, &in);
  AddLayerMetrics(in, out);
}

}  // namespace

bool RunWorkload(const RunArgs& args, RunResult* out) {
  if (args.workload == "sql_warm_inproc") {
    RunSql(args, out);
  } else if (args.workload == "remote_tm_4c") {
    RunRemote(args, out);
  } else if (args.workload == "durable_write_mix") {
    RunDurable(args, out);
  } else {
    return false;
  }
  return true;
}

}  // namespace prkb::ledger
