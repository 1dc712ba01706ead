#include "prkb/qfilter.h"

#include <cassert>
#include <span>

namespace prkb::core {

edbms::TupleId SamplePartition(const Pop& pop, size_t pos, Rng* rng) {
  const std::span<const edbms::TupleId> members = pop.tuples(pos, pos + 1);
  assert(!members.empty());
  // The slice is ascending, so index i is the rank-i member.
  return members[rng->UniformInt(0, members.size() - 1)];
}

}  // namespace prkb::core
