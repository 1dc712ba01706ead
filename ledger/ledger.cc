#include "ledger.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

namespace prkb::ledger {

Recorder& Recorder::Get() {
  static Recorder r;
  return r;
}

ThreadLog& Recorder::Local() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    const std::lock_guard<std::mutex> lock(mu_);
    logs_.push_back(std::make_unique<ThreadLog>());
    log = logs_.back().get();
  }
  return *log;
}

std::vector<ThreadLog*> Recorder::Logs() {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<ThreadLog*> out;
  for (const auto& l : logs_) out.push_back(l.get());
  return out;
}

ScopedSpan::ScopedSpan(const char* name, bool root) : root_(root) {
  Recorder& rec = Recorder::Get();
  if (!rec.tracing()) return;
  ThreadLog& log = rec.Local();
  if (root) {
    log.op = rec.NextOpId();
    log.stack.clear();
  } else if (log.op == 0) {
    return;
  }
  Span s;
  s.op = log.op;
  s.id = log.next_id++;
  s.parent = log.stack.empty() ? 0 : log.stack.back();
  s.name = name;
  s.t0 = NowNs();
  index_ = log.spans.size();
  log.spans.push_back(s);
  log.stack.push_back(s.id);
  log_ = &log;
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  log_->spans[index_].t1 = NowNs();
  log_->stack.pop_back();
  if (root_) log_->op = 0;
}

SpanSummary Summarize(const std::vector<ThreadLog*>& logs) {
  SpanSummary out;
  for (const ThreadLog* log : logs) {
    // Spans of one op are contiguous in their thread's log (one op is open
    // per thread at a time), so children are summed per op block.
    size_t begin = 0;
    while (begin < log->spans.size()) {
      size_t end = begin;
      while (end < log->spans.size() &&
             log->spans[end].op == log->spans[begin].op) {
        ++end;
      }
      std::unordered_map<uint32_t, uint64_t> child_ns;
      for (size_t i = begin; i < end; ++i) {
        const Span& s = log->spans[i];
        if (s.parent != 0) child_ns[s.parent] += s.t1 - s.t0;
      }
      for (size_t i = begin; i < end; ++i) {
        const Span& s = log->spans[i];
        const uint64_t dur = s.t1 - s.t0;
        const uint64_t kids = child_ns[s.id];
        out.self_ns[s.name] += dur > kids ? dur - kids : 0;
        ++out.count[s.name];
        if (s.parent == 0) {
          out.root_ns += dur;
          ++out.roots;
        }
      }
      begin = end;
    }
  }
  return out;
}

namespace {

/// Times one backend entry of `cells` cells when tracing.
template <typename Fn>
auto TimedEntry(bool serving, size_t cells, Fn&& fn) {
  Recorder& rec = Recorder::Get();
  if (!rec.tracing()) return fn();
  if (!serving && rec.Local().op == 0) return fn();
  ScopedSpan span("edbms.entry");
  const uint64_t t0 = NowNs();
  auto out = fn();
  ThreadLog& log = rec.Local();
  log.entry_ns.push_back(NowNs() - t0);
  log.entry_cells += cells;
  return out;
}

}  // namespace

bool TimedEdbms::DoEval(const edbms::Trapdoor& td, edbms::TupleId tid) {
  return TimedEntry(serving_, 1, [&] { return inner_->ServeEval(td, tid); });
}

BitVector TimedEdbms::DoEvalBatch(const edbms::Trapdoor& td,
                                  std::span<const edbms::TupleId> tids) {
  return TimedEntry(serving_, tids.size(),
                    [&] { return inner_->ServeEvalBatch(td, tids); });
}

BitVector TimedEdbms::DoEvalMany(std::span<const edbms::ProbeRequest> reqs) {
  return TimedEntry(serving_, reqs.size(),
                    [&] { return inner_->ServeEvalMany(reqs); });
}

std::vector<edbms::Value> Oracle::Row(edbms::TupleId t) const {
  std::vector<edbms::Value> row(cols_.size());
  for (size_t a = 0; a < cols_.size(); ++a) row[a] = cols_[a][t];
  return row;
}

bool Oracle::Matches(const std::vector<Range>& q, edbms::TupleId t) const {
  for (const Range& r : q) {
    const edbms::Value v = cols_[r.attr][t];
    if (v < r.lo || v > r.hi) return false;
  }
  return true;
}

uint64_t Oracle::Mix(uint64_t x) {
  uint64_t z = x + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Oracle::Digest Oracle::Of(const std::vector<edbms::TupleId>& rows) {
  Digest d;
  d.count = rows.size();
  for (const edbms::TupleId t : rows) d.sum += Mix(t);
  return d;
}

Oracle::Digest Oracle::Expected(const std::vector<Range>& q,
                                size_t rows) const {
  Digest d;
  for (edbms::TupleId t = 0; t < rows; ++t) {
    if (Matches(q, t)) {
      ++d.count;
      d.sum += Mix(t);
    }
  }
  return d;
}

namespace {

/// Reference kernel: dependent lookups into a 64 KiB table mixed with
/// multiplies — the shape of table-driven cipher rounds, on bench data.
/// Of the kernels tried (4 KiB, 64 KiB and 64 MiB tables), this one tracked
/// the program's run-to-run speed best: correlation 0.89 across eight
/// same-seed sql_warm_inproc runs, cutting their spread from 11% to 5%.
const std::vector<uint64_t>& KernelTable() {
  static const std::vector<uint64_t> table = [] {
    std::vector<uint64_t> t(8192);
    uint64_t x = 0x243F6A8885A308D3ULL;
    for (uint64_t& v : t) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = x;
    }
    return t;
  }();
  return table;
}

uint64_t ReferenceKernel(uint64_t h) {
  const std::vector<uint64_t>& table = KernelTable();
  for (int i = 0; i < 8000; ++i) {
    h = (h * 0x9E3779B97F4A7C15ULL) ^ table[(h >> 40) & 8191];
  }
  return h;
}

/// Touches every cache line of the table, so the timed kernel does not
/// depend on how much of the cache the program's last operations used.
uint64_t WarmKernelTable() {
  uint64_t s = 0;
  const std::vector<uint64_t>& table = KernelTable();
  for (size_t i = 0; i < table.size(); i += 8) s += table[i];
  return s;
}

constexpr size_t kSpeedWindow = 9;
/// Nominal kernel time: its typical time between program operations on a
/// 4-vCPU 2.0 GHz VM. Scaled times read as times on that host at its
/// typical speed. Must never change, or scaled times stop being comparable.
constexpr double kReferenceKernelNs = 45000.0;

}  // namespace

void HostSpeed::Sample() {
  const uint64_t seed = 1 + (WarmKernelTable() & 1);
  const uint64_t t0 = NowNs();
  volatile uint64_t sink = ReferenceKernel(seed);
  (void)sink;
  const uint64_t ns = NowNs() - t0;
  if (recent_.size() < kSpeedWindow) {
    recent_.push_back(ns);
  } else {
    recent_[next_] = ns;
    next_ = (next_ + 1) % kSpeedWindow;
  }
}

double HostSpeed::Scale() const {
  if (recent_.empty()) return 1.0;
  std::vector<uint64_t> v = recent_;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(v.size() / 2),
                   v.end());
  return kReferenceKernelNs / static_cast<double>(v[v.size() / 2]);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(p * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

}  // namespace prkb::ledger
