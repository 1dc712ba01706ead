#include "edbms/service_provider.h"

#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace prkb::edbms {
namespace {

std::vector<TupleId> LiveTuples(const Edbms& db) {
  std::vector<TupleId> out;
  const size_t n = db.num_rows();
  out.reserve(n);
  for (TupleId tid = 0; tid < n; ++tid) {
    if (db.IsLive(tid)) out.push_back(tid);
  }
  return out;
}

/// The PRKB fast-path cache counters live in the shared registry (the prkb
/// layer registers the same names); snapshotting them here lets every
/// operation report its cache delta without a dependency on that layer.
struct CacheCounters {
  obs::Counter* hits;
  obs::Counter* misses;
  static const CacheCounters& Get() {
    static const CacheCounters c = {
        obs::MetricsRegistry::Global().GetCounter("prkb.cache.hits"),
        obs::MetricsRegistry::Global().GetCounter("prkb.cache.misses"),
    };
    return c;
  }
};

}  // namespace

StatsScope::StatsScope(const Edbms* db, SelectionStats* stats, const char* op)
    : db_(db),
      stats_(stats),
      op_(op),
      uses_(db->uses()),
      trips_(db->round_trips()),
      batches_(db->batches()),
      cache_hits_(CacheCounters::Get().hits->value()),
      cache_misses_(CacheCounters::Get().misses->value()) {}

void StatsScope::Finish() {
  if (done_) return;
  done_ = true;
  const double millis = watch_.ElapsedMillis();
  if (stats_ != nullptr) {
    stats_->qpf_uses = db_->uses() - uses_;
    stats_->qpf_round_trips = db_->round_trips() - trips_;
    stats_->qpf_batches = db_->batches() - batches_;
    stats_->cache_hits = CacheCounters::Get().hits->value() - cache_hits_;
    stats_->cache_misses = CacheCounters::Get().misses->value() - cache_misses_;
    stats_->millis = millis;
  }
  // Op-level registry mirror. The lookup-by-name cost is per operation, not
  // per tuple, so the convenience beats caching pointers per op string.
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter(std::string(op_) + ".count")->Add(1);
  registry.GetHistogram(std::string(op_) + ".duration_ns")
      ->Record(static_cast<uint64_t>(millis * 1e6));
}

std::vector<TupleId> BaselineScanner::Select(const Trapdoor& td,
                                             SelectionStats* stats) const {
  const obs::ObsTracer::Span span("baseline.scan");
  StatsScope scope(db_, stats, "baseline.select");

  const std::vector<TupleId> live = LiveTuples(*db_);
  const std::vector<uint8_t> hit = ScanTuples(db_, td, live, policy_);
  std::vector<TupleId> out;
  for (size_t i = 0; i < live.size(); ++i) {
    if (hit[i]) out.push_back(live[i]);
  }
  return out;
}

std::vector<TupleId> BaselineScanner::SelectConjunction(
    const std::vector<Trapdoor>& tds, SelectionStats* stats) const {
  const obs::ObsTracer::Span span("baseline.conjunction");
  StatsScope scope(db_, stats, "baseline.conjunction");
  std::vector<TupleId> out;

  if (!policy_.batched()) {
    // Legacy scalar loop: left-to-right per tuple, stop at the first 0.
    const size_t n = db_->num_rows();
    for (TupleId tid = 0; tid < n; ++tid) {
      if (!db_->IsLive(tid)) continue;
      bool all = true;
      for (const Trapdoor& td : tds) {
        if (!db_->Eval(td, tid)) {
          all = false;
          break;
        }
      }
      if (all) out.push_back(tid);
    }
  } else {
    // Predicate-at-a-time over the survivor set: tuple t reaches predicate i
    // iff predicates 0..i-1 all held — exactly the tuples the scalar loop
    // evaluates predicate i on, so the QPF-use count is unchanged.
    std::vector<TupleId> survivors = LiveTuples(*db_);
    for (const Trapdoor& td : tds) {
      if (survivors.empty()) break;
      const std::vector<uint8_t> hit = ScanTuples(db_, td, survivors, policy_);
      size_t w = 0;
      for (size_t i = 0; i < survivors.size(); ++i) {
        if (hit[i]) survivors[w++] = survivors[i];
      }
      survivors.resize(w);
    }
    out = std::move(survivors);
  }
  return out;
}

}  // namespace prkb::edbms
