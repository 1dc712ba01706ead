#include "edbms/trusted_machine.h"

#include <algorithm>
#include <bit>
#include <mutex>

#include "common/latency.h"
#include "obs/metrics.h"

namespace prkb::edbms {
namespace {

/// TM entries and per-entry work, process-wide (docs/OBSERVABILITY.md).
struct TmMetrics {
  obs::Counter* entries;
  obs::Counter* evals;
  obs::Counter* value_decrypts;
  obs::Counter* trapdoor_hits;
  obs::Counter* trapdoor_misses;
  obs::LatencyHistogram* batch_cells;

  static const TmMetrics& Get() {
    static const TmMetrics m = {
        obs::MetricsRegistry::Global().GetCounter("tm.entries"),
        obs::MetricsRegistry::Global().GetCounter("tm.evals"),
        obs::MetricsRegistry::Global().GetCounter("tm.value_decrypts"),
        obs::MetricsRegistry::Global().GetCounter("tm.trapdoor_hits"),
        obs::MetricsRegistry::Global().GetCounter("tm.trapdoor_misses"),
        obs::MetricsRegistry::Global().GetHistogram("tm.batch_cells"),
    };
    return m;
  }
};

// Cells per decrypt step in the batch entries; one chunk's outcomes fill one
// 64-bit mask.
constexpr size_t kLanes = ValueCrypter::kBatchLanes;
static_assert(kLanes <= 64);

// Sets bit base + i of `out` for each set bit i of `hits`. A batch entry
// collects a chunk's outcomes into `hits` first: they are data-dependent, so
// branching on each one would mispredict about every other lane.
void SetHits(BitVector* out, size_t base, uint64_t hits) {
  for (; hits != 0; hits &= hits - 1) out->Set(base + std::countr_zero(hits));
}

// Whether two lanes carry the same trapdoor, so Open would give both the
// same answer.
bool SameTrapdoor(const Trapdoor& a, const Trapdoor& b) {
  return &a == &b || (a.uid == b.uid && a.attr == b.attr &&
                      a.kind == b.kind && a.blob == b.blob);
}

std::vector<uint8_t> SeedBytes(uint64_t seed) {
  std::vector<uint8_t> out(8);
  for (int i = 0; i < 8; ++i) out[i] = static_cast<uint8_t>(seed >> (8 * i));
  return out;
}

}  // namespace

TrustedMachine::TrustedMachine(uint64_t master_seed)
    : prf_(SeedBytes(master_seed)),
      crypter_(prf_.DeriveAesKey("value-enc")),
      trapdoor_cipher_(prf_.DeriveAesKey("trapdoor-enc")),
      trapdoor_mac_(prf_.DeriveKey("trapdoor-mac")) {}

void TrustedMachine::SimulateLatency() const { latency_.Apply(); }

bool TrustedMachine::Open(const Trapdoor& td, PlainPredicate* out) {
  {
    std::shared_lock<std::shared_mutex> lock(verified_mu_);
    auto it = verified_.find(td.uid);
    if (it != verified_.end()) {
      const Verified& v = it->second;
      if (v.pred.attr == td.attr && v.pred.kind == td.kind &&
          std::equal(td.blob.begin(), td.blob.end(), v.blob.begin(),
                     v.blob.end())) {
        *out = v.pred;
        TmMetrics::Get().trapdoor_hits->Add(1);
        return true;
      }
    }
  }
  TmMetrics::Get().trapdoor_misses->Add(1);
  TrapdoorPayload p;
  if (!OpenTrapdoor(trapdoor_cipher_, trapdoor_mac_, td, &p)) return false;
  *out = PlainPredicate{
      .attr = td.attr, .kind = td.kind, .op = p.op, .lo = p.lo, .hi = p.hi};
  Verified v{{}, *out};
  // OpenTrapdoor accepts only blobs of exactly kTrapdoorBlobSize bytes.
  std::copy(td.blob.begin(), td.blob.end(), v.blob.begin());
  std::unique_lock<std::shared_mutex> lock(verified_mu_);
  if (verified_.size() >= kVerifiedCapacity) verified_.clear();
  verified_.try_emplace(td.uid, v);
  return true;
}

size_t TrustedMachine::verified_size() const {
  std::shared_lock<std::shared_mutex> lock(verified_mu_);
  return verified_.size();
}

bool TrustedMachine::EvalPredicate(const Trapdoor& td, const EncValue& cell,
                                   bool* ok) {
  predicate_evals_.fetch_add(1, std::memory_order_relaxed);
  round_trips_.fetch_add(1, std::memory_order_relaxed);
  TmMetrics::Get().entries->Add(1);
  TmMetrics::Get().evals->Add(1);
  SimulateLatency();
  PlainPredicate pred;
  if (!Open(td, &pred)) {
    if (ok != nullptr) *ok = false;
    return false;
  }
  if (ok != nullptr) *ok = true;
  return pred.Satisfies(crypter_.Decrypt(cell));
}

BitVector TrustedMachine::EvalPredicateBatch(
    const Trapdoor& td, std::span<const EncValue* const> cells, bool* ok) {
  BitVector out(cells.size());
  predicate_evals_.fetch_add(cells.size(), std::memory_order_relaxed);
  round_trips_.fetch_add(1, std::memory_order_relaxed);
  const TmMetrics& m = TmMetrics::Get();
  m.entries->Add(1);
  m.evals->Add(cells.size());
  m.batch_cells->Record(cells.size());
  SimulateLatency();  // the whole batch travels in one round trip
  PlainPredicate pred;
  if (!Open(td, &pred)) {
    if (ok != nullptr) *ok = false;
    return out;
  }
  if (ok != nullptr) *ok = true;
  Value v[kLanes] = {};
  for (size_t base = 0; base < cells.size(); base += kLanes) {
    const size_t n = std::min(kLanes, cells.size() - base);
    crypter_.DecryptBatch(cells.subspan(base, n), v);
    uint64_t hits = 0;
    for (size_t i = 0; i < n; ++i) {
      hits |= uint64_t{pred.Satisfies(v[i])} << i;
    }
    SetHits(&out, base, hits);
  }
  return out;
}

BitVector TrustedMachine::EvalPredicateMulti(
    std::span<const Trapdoor* const> tds,
    std::span<const EncValue* const> cells, bool* ok) {
  BitVector out(cells.size());
  predicate_evals_.fetch_add(cells.size(), std::memory_order_relaxed);
  round_trips_.fetch_add(1, std::memory_order_relaxed);
  const TmMetrics& m = TmMetrics::Get();
  m.entries->Add(1);
  m.evals->Add(cells.size());
  m.batch_cells->Record(cells.size());
  SimulateLatency();  // the whole fused round travels in one round trip
  // Lanes of one search sit next to each other, so each run of lanes under
  // the same trapdoor opens it once.
  bool all_ok = true;
  const Trapdoor* open_td = nullptr;
  PlainPredicate pred;
  bool pred_ok = false;
  Value v[kLanes] = {};
  for (size_t base = 0; base < cells.size(); base += kLanes) {
    const size_t n = std::min(kLanes, cells.size() - base);
    crypter_.DecryptBatch(cells.subspan(base, n), v);
    uint64_t hits = 0;
    for (size_t i = 0; i < n; ++i) {
      const Trapdoor& td = *tds[base + i];
      if (open_td == nullptr || !SameTrapdoor(td, *open_td)) {
        pred_ok = Open(td, &pred);
        open_td = &td;
      }
      if (!pred_ok) {
        all_ok = false;
        continue;  // lane stays false
      }
      hits |= uint64_t{pred.Satisfies(v[i])} << i;
    }
    SetHits(&out, base, hits);
  }
  if (ok != nullptr) *ok = all_ok;
  return out;
}

Value TrustedMachine::DecryptValue(const EncValue& cell) {
  value_decrypts_.fetch_add(1, std::memory_order_relaxed);
  round_trips_.fetch_add(1, std::memory_order_relaxed);
  TmMetrics::Get().entries->Add(1);
  TmMetrics::Get().value_decrypts->Add(1);
  SimulateLatency();
  return crypter_.Decrypt(cell);
}

}  // namespace prkb::edbms
