#ifndef PRKB_PRKB_QFILTER_H_
#define PRKB_PRKB_QFILTER_H_

#include <cstddef>

#include "common/rng.h"
#include "edbms/qpf.h"
#include "prkb/pop.h"

namespace prkb::core {

/// Outcome of QFilter (Algorithm 1; the search itself runs in
/// prkb/probe_sched.h): the Not-Sure pair plus the Winner group, described
/// as chain-position ranges so no tuple lists are materialised.
struct QFilterResult {
  /// True when Θ agreed on the samples of P₁ and Pₖ (line 3): the separating
  /// point is at one of the chain ends.
  bool boundary_case = false;

  /// Chain positions of the NS pair, ns_a < ns_b (ns_a == ns_b == 0 iff
  /// k == 1, where the single partition is the whole "pair").
  size_t ns_a = 0;
  size_t ns_b = 0;

  /// Sampled QPF labels of the chain ends (label1 / labelk in the paper).
  bool label_first = false;
  bool label_last = false;

  /// Winner group TW: every partition at a position in [win_begin, win_end)
  /// is T-homogeneous and its tuples satisfy the predicate with zero QPF
  /// uses. Empty range when there is no sure winner.
  size_t win_begin = 0;
  size_t win_end = 0;

  bool HasWinners() const { return win_begin < win_end; }
};

/// Draws the random sample tuple QFilter probes from a partition
/// ("Pᵢ.sample" in the paper).
edbms::TupleId SamplePartition(const Pop& pop, size_t pos, Rng* rng);

}  // namespace prkb::core

#endif  // PRKB_PRKB_QFILTER_H_
