#ifndef PRKB_PRKB_QSCAN_H_
#define PRKB_PRKB_QSCAN_H_

#include <vector>

#include "edbms/batch_scan.h"
#include "edbms/qpf.h"
#include "prkb/pop.h"
#include "prkb/probe_sched.h"
#include "prkb/qfilter.h"

namespace prkb::core {

/// Outcome of QScan (Algorithm 2).
struct QScanResult {
  /// TWNS — tuples of the NS pair that satisfy the predicate.
  std::vector<edbms::TupleId> winners;

  /// Whether a non-homogeneous partition was found (Case 2 of Lemma 4.5:
  /// the predicate is inequivalent and updatePRKB can extend the chain).
  bool split_found = false;
  /// Chain position of the non-homogeneous partition.
  size_t split_pos = 0;
  /// Its exact division by QPF output — handed to updatePRKB so the split
  /// costs zero extra QPF uses (Sec. 5.3).
  std::vector<edbms::TupleId> split_true;
  std::vector<edbms::TupleId> split_false;

  /// Whether the second NS partition was actually scanned (false when the
  /// early-stop strategy fired).
  bool scanned_b = false;

  /// Actual (scanned) QPF label of the first NS partition; only meaningful
  /// when it was homogeneous (split_found == false or split_pos == ns_b).
  bool a_label = false;
};

/// QScan (Sec. 5.2): confirms the exact selection result inside the NS pair
/// with the early-stop strategy — if the first partition turns out
/// non-homogeneous, the second one's QPF outputs are already implied by
/// `filter.label_last` (labelb in the paper) and it is not scanned.
///
/// `policy` controls how the partition scans consume the QPF (scalar calls
/// or chunked batch round trips). Each NS partition is
/// still scanned exhaustively and the early stop between the two partitions
/// is unchanged, so results and QPF-use counts are identical to the scalar
/// path for every policy.
///
/// `prepaid` (optional) holds Θ outcomes the probe scheduler prefetched in
/// the final QFilter round; matching member-order prefixes are consumed
/// instead of re-evaluated, so the bits and their order are unchanged.
QScanResult QScan(const Pop& pop, const QFilterResult& filter,
                  const edbms::Trapdoor& td, edbms::QpfOracle* qpf,
                  const edbms::BatchPolicy& policy = {},
                  PrepaidScan* prepaid = nullptr);

/// Exhaustively tests every tuple of the partition at chain position `pos`,
/// appending satisfied tuples to `true_out` and the rest to `false_out` in
/// member order. Shared by QScan, BETWEEN processing and tests.
void ScanPartitionExact(const Pop& pop, size_t pos, const edbms::Trapdoor& td,
                        edbms::QpfOracle* qpf,
                        const edbms::BatchPolicy& policy,
                        std::vector<edbms::TupleId>* true_out,
                        std::vector<edbms::TupleId>* false_out,
                        PrepaidScan* prepaid = nullptr);

}  // namespace prkb::core

#endif  // PRKB_PRKB_QSCAN_H_
