#include "ext/minmax.h"

#include <limits>

namespace prkb::ext {
namespace {

using edbms::TupleId;
using edbms::Value;

ExtremeResult FindExtreme(const core::PrkbIndex& index,
                          edbms::CipherbaseEdbms* db, edbms::AttrId attr,
                          bool want_min) {
  ExtremeResult out;
  auto& tm = db->trusted_machine();
  const uint64_t before = tm.value_decrypts();

  auto consider = [&](TupleId tid, Value* best_v) {
    const Value v = tm.DecryptValue(db->table().at(attr, tid));
    const bool better =
        want_min ? (v < *best_v || (v == *best_v && tid < out.tid))
                 : (v > *best_v || (v == *best_v && tid < out.tid));
    if (!out.found || better) {
      *best_v = v;
      out.tid = tid;
      out.found = true;
    }
  };

  Value best = want_min ? std::numeric_limits<Value>::max()
                        : std::numeric_limits<Value>::min();
  if (index.IsEnabled(attr) && index.pop(attr).k() > 0) {
    const core::Pop& pop = index.pop(attr);
    // The extreme lives in one of the two end partitions — the SP does not
    // know which end is which, so both are candidates.
    for (TupleId tid : pop.tuples(0, 1)) consider(tid, &best);
    if (pop.k() > 1) {
      for (TupleId tid : pop.tuples(pop.k() - 1, pop.k())) {
        consider(tid, &best);
      }
    }
  } else {
    for (TupleId tid = 0; tid < db->num_rows(); ++tid) {
      if (db->IsLive(tid)) consider(tid, &best);
    }
  }
  out.tm_decrypts = tm.value_decrypts() - before;
  return out;
}

}  // namespace

ExtremeResult FindMin(const core::PrkbIndex& index,
                      edbms::CipherbaseEdbms* db, edbms::AttrId attr) {
  return FindExtreme(index, db, attr, /*want_min=*/true);
}

ExtremeResult FindMax(const core::PrkbIndex& index,
                      edbms::CipherbaseEdbms* db, edbms::AttrId attr) {
  return FindExtreme(index, db, attr, /*want_min=*/false);
}

}  // namespace prkb::ext
