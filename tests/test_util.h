#ifndef PRKB_TESTS_TEST_UTIL_H_
#define PRKB_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "edbms/cipherbase_qpf.h"
#include "edbms/table.h"
#include "edbms/types.h"
#include "prkb/selection.h"

namespace prkb::testutil {

/// Builds a plaintext table with `rows` rows and `attrs` attributes whose
/// values are drawn uniformly from [lo, hi].
inline edbms::PlainTable RandomTable(size_t rows, size_t attrs, Rng* rng,
                                     edbms::Value lo = 0,
                                     edbms::Value hi = 999) {
  edbms::PlainTable t(attrs);
  std::vector<edbms::Value> row(attrs);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < attrs; ++a) row[a] = rng->UniformInt64(lo, hi);
    t.AddRow(row);
  }
  return t;
}

/// Ground-truth evaluation of a plaintext predicate over the plain table,
/// restricted to live rows of `db` when provided.
inline std::vector<edbms::TupleId> OracleSelect(
    const edbms::PlainTable& plain, const edbms::PlainPredicate& pred,
    const edbms::Edbms* db = nullptr) {
  std::vector<edbms::TupleId> out;
  for (edbms::TupleId tid = 0; tid < plain.num_rows(); ++tid) {
    if (db != nullptr && !db->IsLive(tid)) continue;
    if (pred.Satisfies(plain.at(pred.attr, tid))) out.push_back(tid);
  }
  return out;
}

/// Conjunction oracle.
inline std::vector<edbms::TupleId> OracleSelectAll(
    const edbms::PlainTable& plain,
    const std::vector<edbms::PlainPredicate>& preds,
    const edbms::Edbms* db = nullptr) {
  std::vector<edbms::TupleId> out;
  for (edbms::TupleId tid = 0; tid < plain.num_rows(); ++tid) {
    if (db != nullptr && !db->IsLive(tid)) continue;
    bool all = true;
    for (const auto& p : preds) {
      if (!p.Satisfies(plain.at(p.attr, tid))) {
        all = false;
        break;
      }
    }
    if (all) out.push_back(tid);
  }
  return out;
}

/// Sorts a selection result for comparison against an oracle.
inline std::vector<edbms::TupleId> Sorted(std::vector<edbms::TupleId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// Plain values of one attribute indexed by tuple id (for
/// Pop::ValidateAgainstPlain).
inline std::vector<edbms::Value> ColumnOf(const edbms::PlainTable& plain,
                                          edbms::AttrId attr) {
  return plain.column(attr);
}

/// The m = 2 control: `base` with the probe schedule of
/// core::kBinarySearchSched — the paper's binary search, one midpoint pivot
/// per round, no fusion, no speculation.
inline core::PrkbOptions FanoutTwoControl(core::PrkbOptions base = {}) {
  base.probe_fanout = core::kBinarySearchSched.fanout;
  base.probe_fusion = core::kBinarySearchSched.fuse;
  base.speculative_scan = core::kBinarySearchSched.speculative;
  return base;
}

}  // namespace prkb::testutil

#endif  // PRKB_TESTS_TEST_UTIL_H_
