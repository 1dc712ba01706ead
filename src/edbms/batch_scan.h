#ifndef PRKB_EDBMS_BATCH_SCAN_H_
#define PRKB_EDBMS_BATCH_SCAN_H_

#include <cstddef>
#include <span>
#include <vector>

#include "edbms/qpf.h"

namespace prkb::edbms {

/// How scan loops consume the QPF: scalar per-tuple calls (the paper's
/// literal model) or chunked batch round trips.
///
/// The batch size does not change which (trapdoor, tuple) pairs are
/// evaluated on the exhaustive scan paths — only how the evaluations are
/// packaged — so QPF-use counts and leakage are identical to the scalar path.
struct BatchPolicy {
  /// Tuples per EvalBatch round trip. <= 1 selects the scalar legacy loop.
  size_t batch_size = 1;

  bool batched() const { return batch_size > 1; }
};

/// Evaluates `td` on every tuple of `tids`, honouring `policy`. Returns one
/// byte per tuple (1 = satisfied) in input order. Deterministic for a fixed
/// input regardless of batch size.
std::vector<uint8_t> ScanTuples(QpfOracle* qpf, const Trapdoor& td,
                                std::span<const TupleId> tids,
                                const BatchPolicy& policy);

}  // namespace prkb::edbms

#endif  // PRKB_EDBMS_BATCH_SCAN_H_
