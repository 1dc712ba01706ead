#ifndef PRKB_PRKB_SELECTION_H_
#define PRKB_PRKB_SELECTION_H_

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "edbms/edbms.h"
#include "edbms/service_provider.h"
#include "exec/calibrate.h"
#include "obs/metrics.h"
#include "prkb/pop.h"
#include "prkb/probe_sched.h"
#include "prkb/qfilter.h"
#include "prkb/qscan.h"

namespace prkb::exec {
class Executor;
}  // namespace prkb::exec

namespace prkb::core {

class PrkbWal;

/// Extra knobs for PRKB processing.
struct PrkbOptions {
  /// Seed for the SP-local sampling randomness used by QFilter.
  uint64_t seed = 0x5EED;
  /// Multi-dimensional processing only: when true, an NS partition whose scan
  /// was cut short by cross-dimension pruning is finished off with direct QPF
  /// calls so updatePRKB can still split it (ablation: pay QPF now for a
  /// finer index later). The paper's algorithm corresponds to `false`.
  bool eager_md_update = false;
  /// Tuples per QPF batch round trip on the scan paths (QScan, BETWEEN end
  /// partitions, MD candidate bands, no-index linear scan). 1 = the paper's
  /// literal scalar model; larger values amortise the per-round-trip latency
  /// without changing which (trapdoor, tuple) pairs are evaluated on the
  /// single-predicate paths.
  size_t batch_size = 1;
  /// Threads (including the caller) issuing batch round trips concurrently
  /// when one partition yields multiple chunks. 1 = single-threaded scans.
  size_t scan_workers = 1;
  /// Repeat-predicate fast path: remember, per chain, the cut(s) each
  /// trapdoor carved and answer a byte-identical re-sent trapdoor from the
  /// chain alone — zero QPF uses, no probes, no split. `false` restores the
  /// always-probe behaviour (ablation / the paper's literal algorithms).
  bool fast_path = true;
  /// m for the batched probe scheduler (DESIGN.md §11): every search round
  /// evaluates up to m−1 pivot samples in one round trip, cutting the
  /// ~lg k serial probe trips to ~log_m k for ≤ (m−1)/lg m× more QPF uses.
  size_t probe_fanout = 8;
  /// Fuse concurrent searches (BETWEEN's two end-searches, PRKB(MD)'s
  /// per-dimension filters) into shared probe rounds.
  bool probe_fusion = true;
  /// Let the first QScan chunk of the candidate NS partitions ride in the
  /// final QFilter round once the surviving interval is ≤ 2 partitions.
  bool speculative_scan = true;
  /// Planner hint: expected per-round-trip transport latency, in ns. 0
  /// keeps the paper's pure QPF-use costing; > 0 makes the planner price
  /// routes as round_trips × latency + evals × unit_cost and pick m.
  double rt_latency_hint_ns = 0.0;
  /// POPE-style deferred inserts (DESIGN.md §14): Insert appends the tuple
  /// to a per-chain unsorted buffer in O(1) with zero QPF; placement waits
  /// until a selection touches the chain, which either batch-scans the
  /// buffer or flushes it through one lock-step m-ary placement — whichever
  /// the cost model prices cheaper. `false` keeps eager per-tuple placement
  /// (the paper's Sec. 7.1 behaviour).
  bool buffered_inserts = false;
  /// Hard cap on buffered tuples per chain; an append that reaches the cap
  /// flushes synchronously. 0 disables the cap.
  size_t max_buffered_inserts = 4096;
  /// Flush-vs-scan pricing bias: flush when its one-off cost is within this
  /// factor of a single buffered scan (the flush pays once, the scan on
  /// every query until someone flushes — see COST_MODEL.md).
  double buffer_flush_horizon = 8.0;

  edbms::BatchPolicy scan_policy() const {
    return edbms::BatchPolicy{batch_size, scan_workers};
  }

  ProbeSchedOptions sched() const {
    ProbeSchedOptions o;
    o.fanout = probe_fanout < 2 ? 2 : probe_fanout;
    o.fuse = probe_fusion;
    o.speculative = speculative_scan;
    o.spec_chunk = batch_size < 1 ? 1 : batch_size;
    return o;
  }
};

/// The PRKB index of one table: one partial-order-partition chain per enabled
/// attribute, plus the selection / update drivers of Secs. 5-7. Lives
/// entirely at the service provider; its only inputs are trapdoors and QPF
/// outputs.
class PrkbIndex {
 public:
  /// `db` must outlive the index.
  PrkbIndex(edbms::Edbms* db, PrkbOptions options = {});

  /// initPRKB for `attr`: a single partition over all live tuples.
  void EnableAttr(edbms::AttrId attr);
  bool IsEnabled(edbms::AttrId attr) const {
    return pops_.contains(attr);
  }
  Pop& pop(edbms::AttrId attr) { return pops_.at(attr); }
  const Pop& pop(edbms::AttrId attr) const { return pops_.at(attr); }
  /// Attributes with a chain, in ascending order.
  std::vector<edbms::AttrId> EnabledAttrs() const;
  /// Installs a deserialised chain (prkb_io.cc). With a WAL attached this
  /// re-hooks the chain's mutation listener and schedules a compaction (the
  /// log cannot describe a wholesale replacement; the next snapshot does).
  void InstallPop(edbms::AttrId attr, Pop pop);

  /// The write-ahead log observing this index, or nullptr (prkb/wal.h; set
  /// and cleared by PrkbWal itself, which the caller owns).
  PrkbWal* wal() const { return wal_; }

  /// Selection with one predicate (Sec. 5, and Appendix A for BETWEEN
  /// trapdoors): builds a single-predicate physical plan and runs it through
  /// the shared exec::Executor (QFilter → QScan → updatePRKB). Falls back to
  /// a plain linear scan when the attribute has no PRKB. The result is
  /// unordered.
  std::vector<edbms::TupleId> Select(const edbms::Trapdoor& td,
                                     edbms::SelectionStats* stats = nullptr);

  /// Read-only selection attempt for shared-lock concurrent serving
  /// (ConcurrentPrkbIndex): the chosen plan is run only if it is provably
  /// read-only — a fast-path cache hit, the baseline scan or the empty
  /// chain, none of which mutate the index — and returns true; returns
  /// false — without spending any QPF — when answering might mutate the
  /// chain, in which case the caller must retry with Select() under an
  /// exclusive lock. Never mutates the index.
  bool TrySelectShared(const edbms::Trapdoor& td,
                       std::vector<edbms::TupleId>* out,
                       edbms::SelectionStats* stats = nullptr) const;

  /// Multi-dimensional range query, naive extension "PRKB(SD+)" (Sec. 6
  /// baseline): runs single-predicate processing per trapdoor and intersects.
  std::vector<edbms::TupleId> SelectRangeSdPlus(
      const std::vector<edbms::Trapdoor>& tds,
      edbms::SelectionStats* stats = nullptr);

  /// Multi-dimensional range query, "PRKB(MD)" (Sec. 6.2): grid pruning +
  /// per-region predicate testing + early stop.
  std::vector<edbms::TupleId> SelectRangeMd(
      const std::vector<edbms::Trapdoor>& tds,
      edbms::SelectionStats* stats = nullptr);

  /// Insertion handling (Sec. 7.1): encrypts/stores the row via the EDBMS
  /// and places the new tuple in every enabled chain with O(lg k) QPF uses.
  /// Equivalent to db()->Insert(row) followed by PlaceStored(tid).
  edbms::TupleId Insert(const std::vector<edbms::Value>& row,
                        edbms::SelectionStats* stats = nullptr);

  /// The chain half of insertion handling: places an already-stored tuple
  /// into every enabled chain. Split out for sharded serving
  /// (ShardedPrkbIndex stores the row once, then fans placement across the
  /// shards owning the table's attributes).
  void PlaceStored(edbms::TupleId tid, edbms::SelectionStats* stats = nullptr);

  /// Deletion handling (Sec. 7.2). Equivalent to db()->Delete(tid) followed
  /// by EraseFromChains(tid).
  void Delete(edbms::TupleId tid);

  /// The chain half of deletion handling: unlinks a tuple from every enabled
  /// chain without touching the EDBMS store (the sharded router deletes the
  /// row once, then fans the unlink).
  void EraseFromChains(edbms::TupleId tid);

  /// Appends an already-stored tuple to `attr`'s insert buffer (zero QPF)
  /// and flushes synchronously if that reaches max_buffered_inserts. Used by
  /// the buffered Insert/PlaceStored paths and by ConcurrentPrkbIndex, which
  /// calls it per attribute under that attribute's stripe lock.
  void BufferAppendAttr(edbms::AttrId attr, edbms::TupleId tid);

  /// Places every buffered tuple of `attr` on the chain via one lock-step
  /// batched m-ary placement (update.cc), amortising the ~log_m k probe
  /// round trips over the whole batch. Byte-identical to placing the tuples
  /// eagerly in append order. No-op when the buffer is empty. Does not
  /// commit the WAL (the surrounding public operation does).
  void FlushBuffered(edbms::AttrId attr);

  /// Index footprint across all enabled attributes (Table 3).
  size_t SizeBytes() const;

  /// Point-in-time health/shape report of one attribute's chain.
  struct ChainStats {
    edbms::AttrId attr = 0;
    size_t k = 0;
    size_t tuples = 0;
    size_t min_partition = 0;
    size_t max_partition = 0;
    double mean_partition = 0.0;
    size_t cuts = 0;
    size_t insert_usable_cuts = 0;
    size_t bytes = 0;
  };
  ChainStats StatsFor(edbms::AttrId attr) const;
  /// Multi-line human-readable report over all enabled attributes.
  std::string DescribeStats() const;

  edbms::Edbms* db() { return db_; }
  const edbms::Edbms* db() const { return db_; }
  const PrkbOptions& options() const { return options_; }

  /// This index's online cost calibrator (exec/calibrate.h): fed by the
  /// executor after every plan run, consulted by exec::ConstantsFor on every
  /// query-path price. Per-index on purpose — each shard of a
  /// ShardedPrkbIndex measures its own transport latency, so m calibrates
  /// per shard rather than globally. Internally synchronised; mutable so the
  /// shared-lock selection paths can feed it.
  exec::CostCalibrator& calibrator() const { return calibrator_; }

 private:
  /// The executor runs plan operators against the private primitives below
  /// (it is the single relocated copy of the legacy selection drivers).
  friend class exec::Executor;
  /// The WAL attaches/detaches itself and hooks chains as they appear.
  friend class PrkbWal;

  /// Durability helpers, defined in wal.cc (they need the full PrkbWal):
  /// hooks `attr`'s chain to the attached WAL's per-attribute sink…
  void WalHookAttr(edbms::AttrId attr);
  /// …and makes the records of the finishing operation durable (group
  /// commit: one write + fsync per public mutating op). No-ops without a
  /// WAL.
  void CommitWal();

  /// Appendix A driver for BETWEEN trapdoors (between.cc). `fp` non-null
  /// caches the resulting cut pair (if both ends split). `sched` carries the
  /// probe-scheduler knobs (the planner may override m per route).
  std::vector<edbms::TupleId> SelectBetween(const edbms::Trapdoor& td,
                                            const TrapdoorFp* fp,
                                            const ProbeSchedOptions& sched);
  /// Places an already-stored tuple into the chain of `attr` (update.cc).
  void PlaceTuple(edbms::AttrId attr, edbms::TupleId tid);
  /// Places a batch of stored tuples into `attr`'s chain with lock-step
  /// m-ary searches sharing probe rounds (update.cc). Equivalent to calling
  /// PlaceTuple per tuple in order, with the round trips collapsed.
  void BatchPlace(edbms::AttrId attr, const std::vector<edbms::TupleId>& tids);

  /// PRKB(MD) implementation detail (multidim.cc).
  std::vector<edbms::TupleId> RunMd(
      const std::vector<const edbms::Trapdoor*>& tds,
      const ProbeSchedOptions& sched);

  /// Per-operation sampling RNG: seeded from the shared seed and an atomic
  /// sequence number, so concurrent shared-lock readers never contend on RNG
  /// state and single-threaded runs stay bit-for-bit reproducible.
  Rng OpRng() const {
    const uint64_t seq = op_seq_.fetch_add(1, std::memory_order_relaxed);
    return Rng(options_.seed ^ ((seq + 1) * 0x9E3779B97F4A7C15ULL));
  }

  edbms::Edbms* db_;
  PrkbOptions options_;
  mutable exec::CostCalibrator calibrator_;
  mutable std::atomic<uint64_t> op_seq_{0};
  std::unordered_map<edbms::AttrId, Pop> pops_;
  PrkbWal* wal_ = nullptr;
};

/// `prkb.cache.{hits,misses}` instruments shared by the selection paths
/// (selection.cc, multidim.cc) — docs/OBSERVABILITY.md.
struct CacheMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  static const CacheMetrics& Get();
};

/// updatePRKB for the single-comparison flow (Sec. 5.3): applies the split
/// discovered by QScan, orienting the two halves by the homogeneous
/// neighbour's label. Returns the new cut's id, or Pop::kNoCut when the
/// predicate turned out equivalent (no split).
uint64_t ApplyComparisonSplit(Pop* pop, const QFilterResult& filter,
                              QScanResult&& scan, const edbms::Trapdoor& td);

}  // namespace prkb::core

#endif  // PRKB_PRKB_SELECTION_H_
