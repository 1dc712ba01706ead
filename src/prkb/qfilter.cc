#include "prkb/qfilter.h"

#include <cassert>

namespace prkb::core {

edbms::TupleId SamplePartition(const Pop& pop, size_t pos, Rng* rng) {
  const MemberSet& members = pop.members_at(pos);
  assert(!members.Empty());
  // Rank-select on the compressed set: no materialisation per probe.
  return members.Select(rng->UniformInt(0, members.Size() - 1));
}

}  // namespace prkb::core
