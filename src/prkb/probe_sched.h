#ifndef PRKB_PRKB_PROBE_SCHED_H_
#define PRKB_PRKB_PROBE_SCHED_H_

#include <cstddef>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/bitvector.h"
#include "common/rng.h"
#include "edbms/qpf.h"
#include "prkb/pop.h"
#include "prkb/qfilter.h"

namespace prkb::core {

/// Knobs for the batched probe scheduler (DESIGN.md §11). The paper counts
/// QPF uses; a deployment also pays one round trip per backend entry, so the
/// scheduler trades a bounded use inflation — ≤ (m−1)/lg m× for the m-ary
/// search — for a ~lg m× cut in round trips.
struct ProbeSchedOptions {
  /// m: pivots per search round is m−1. 2 reproduces the paper's binary
  /// search probe-for-probe (the two end probes still share one round).
  size_t fanout = 8;
  /// Fuse concurrent searches (BETWEEN's two end-searches, PRKB(MD)'s
  /// per-dimension filters) into shared rounds instead of running them
  /// back-to-back.
  bool fuse = true;
  /// Once the surviving interval is ≤ 2 partitions, let the first QScan
  /// chunk of every candidate NS partition ride in the final probe round.
  bool speculative = true;
  /// Tuples prefetched per candidate partition when speculating.
  size_t spec_chunk = 1;
};

/// The paper's binary search (Sec. 5.1) as a schedule: one midpoint pivot
/// per round, no fusion, no speculation. Paper-literal controls run this;
/// it spends the same QPF uses on the same samples as Algorithm 1, and only
/// the two end probes sharing one round save a trip.
inline constexpr ProbeSchedOptions kBinarySearchSched{
    .fanout = 2, .fuse = false, .speculative = false};

/// Speculatively prefetched Θ outcomes for the leading members of candidate
/// NS partitions, keyed by chain position at QFilter time (QScan runs before
/// any split, so positions are stable). QScan consumes matching prefixes;
/// whatever it never asks for is the speculation's waste.
struct PrepaidScan {
  struct Outcome {
    edbms::TupleId tid;
    bool output;
  };
  std::unordered_map<size_t, std::vector<Outcome>> by_pos;
  size_t total = 0;
  size_t consumed = 0;

  size_t waste() const { return total - consumed; }
};

/// Adds a finished selection's unconsumed prefetches to the
/// `probe_sched.speculative_waste` counter.
void RecordSpeculativeWaste(const PrepaidScan& prepaid);

/// One shippable probe round: heterogeneous (trapdoor, tuple) requests from
/// any number of concurrent searches, evaluated in a single
/// QpfOracle::EvalMany round trip (scalar Eval when only one lane queued).
/// On a coalescing transport, that one call is where concurrent selections'
/// rounds merge into one backend entry.
class ProbeRound {
 public:
  explicit ProbeRound(edbms::QpfOracle* qpf) : qpf_(qpf) {}

  /// Queues Θ(td, tid); returns the lane to pass to ResultOf after Flush.
  /// `source` tags the owning search — a flushed round carrying requests
  /// from ≥ 2 sources counts as fused.
  size_t Add(const edbms::Trapdoor& td, edbms::TupleId tid, int source = 0);

  /// Ships every queued request in one round trip (a lone probe stays a
  /// scalar Eval). No-op when empty or already flushed.
  void Flush();

  /// Lane outcome from the last Flush.
  bool ResultOf(size_t lane) const { return results_.Get(lane); }

  /// Round trips this ProbeRound has shipped so far.
  uint64_t trips() const { return trips_; }

 private:
  edbms::QpfOracle* qpf_;
  std::vector<edbms::ProbeRequest> reqs_;
  std::vector<int> sources_;
  BitVector results_;
  bool shipped_ = false;
  uint64_t trips_ = 0;
};

/// m-ary adjacent-flip search over chain positions: maintains an interval
/// (a, b) with label(a) != label(b) and narrows it with min(m−1, b−a−1)
/// evenly-spaced pivots per round until b − a == 1. The chain-label
/// structure (Lemma 5.1: one possibly-mixed partition, homogeneous labels on
/// either side) guarantees each probed round has exactly one flip, so any m
/// converges to the same adjacent pair the paper's binary search finds.
class FlipSearch {
 public:
  FlipSearch(size_t a, size_t b, bool label_a, size_t fanout)
      : a_(a), b_(b), label_a_(label_a), fanout_(fanout < 2 ? 2 : fanout) {}

  bool done() const { return b_ - a_ <= 1; }
  size_t a() const { return a_; }
  size_t b() const { return b_; }
  bool label_a() const { return label_a_; }

  /// Appends this round's pivot positions (ascending, interior to (a, b)).
  void Pivots(std::vector<size_t>* out) const;

  /// Consumes the labels of this round's pivots (parallel arrays, the exact
  /// output of Pivots) and narrows the interval to the flip gap.
  void Absorb(std::span<const size_t> pivots, std::span<const uint8_t> labels);

 private:
  size_t a_;
  size_t b_;
  bool label_a_;
  size_t fanout_;
};

/// QFilter (Sec. 5.1): locates the NS pair by exploiting Lemma 5.1 and
/// derives the Winner group for free, probing in m-ary batched rounds — an
/// ends round, then ≤ ⌈log_m k⌉ FlipSearch rounds (≈ 2 + lg k sampled QPF
/// calls at m = 2). With `prepaid` non-null and speculation enabled, the
/// final disambiguation round also carries the first QScan chunk of the
/// candidate NS partitions. Requires pop.k() >= 1 and every partition
/// non-empty.
QFilterResult QFilter(const Pop& pop, const edbms::Trapdoor& td,
                      edbms::QpfOracle* qpf, Rng* rng,
                      const ProbeSchedOptions& opts,
                      PrepaidScan* prepaid = nullptr);

/// One dimension of a fused multi-filter request.
struct FusedFilterReq {
  const Pop* pop;
  const edbms::Trapdoor* td;
  QFilterResult* out;
};

/// Runs several QFilters over distinct chains, sharing one probe round per
/// search round when opts.fuse is set (PRKB(MD)'s per-dimension filters pay
/// max instead of sum of their round trips). Sequential per-filter rounds
/// when fusion is off. Results land in each request's `out`.
void FusedQFilters(std::span<const FusedFilterReq> reqs,
                   edbms::QpfOracle* qpf, Rng* rng,
                   const ProbeSchedOptions& opts);

}  // namespace prkb::core

#endif  // PRKB_PRKB_PROBE_SCHED_H_
