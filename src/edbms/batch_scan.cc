#include "edbms/batch_scan.h"

#include <algorithm>

namespace prkb::edbms {

std::vector<uint8_t> ScanTuples(QpfOracle* qpf, const Trapdoor& td,
                                std::span<const TupleId> tids,
                                const BatchPolicy& policy) {
  std::vector<uint8_t> out(tids.size());
  if (!policy.batched()) {
    for (size_t i = 0; i < tids.size(); ++i) {
      out[i] = qpf->Eval(td, tids[i]) ? 1 : 0;
    }
    return out;
  }

  const size_t chunk = policy.batch_size;
  for (size_t begin = 0; begin < tids.size(); begin += chunk) {
    const size_t len = std::min(chunk, tids.size() - begin);
    const BitVector bits = qpf->EvalBatch(td, tids.subspan(begin, len));
    for (size_t i = 0; i < len; ++i) out[begin + i] = bits.Get(i) ? 1 : 0;
  }
  return out;
}

}  // namespace prkb::edbms
