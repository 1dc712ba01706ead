#include "net/coalesce.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>
#include <utility>

namespace prkb::net {
namespace {

/// Conservative wire-size estimates for chunking a merged entry under
/// RoundBusOptions.max_entry_bytes. Deliberately above the exact
/// EncodeEvalManyReq encoding (varints + u32 tid per item; varint header +
/// blob per trapdoor) so an estimated-fitting chunk always fits the frame.
constexpr size_t kChunkFixedBytes = 64;
constexpr size_t kItemBytes = 16;

size_t TdBytes(const edbms::Trapdoor& td) { return 48 + td.blob.size(); }

bool SameTrapdoor(const edbms::Trapdoor& a, const edbms::Trapdoor& b) {
  return a.uid == b.uid && a.attr == b.attr && a.kind == b.kind &&
         a.blob == b.blob;
}

/// Upper bound on one round's wire size, cheap enough to gate the fast
/// paths on: runs of the same trapdoor pointer (the shape of every scan
/// round) charge the trapdoor once, so the common case is a pointer compare
/// per request with a single dereference. Non-adjacent repeats re-charge —
/// still an over-estimate, never an under-estimate.
size_t EstimateBytes(std::span<const edbms::ProbeRequest> reqs) {
  size_t bytes = kChunkFixedBytes + reqs.size() * kItemBytes;
  const edbms::Trapdoor* last = nullptr;
  for (const edbms::ProbeRequest& req : reqs) {
    if (req.td != last) {
      bytes += TdBytes(*req.td);
      last = req.td;
    }
  }
  return bytes;
}

}  // namespace

RoundBus::RoundBus(edbms::QpfOracle* inner, RoundBusOptions opts)
    : inner_(inner), opts_(opts), linger_ns_(opts.linger_ns) {
  CoalesceMetrics::Get().linger_ns->Set(static_cast<int64_t>(opts.linger_ns));
}

uint64_t RoundBus::Submit(std::span<const edbms::ProbeRequest> reqs) {
  if (reqs.empty()) return 0;
  const CoalesceMetrics& m = CoalesceMetrics::Get();
  m.rounds->Add(1);
  m.requests->Add(reqs.size());
  auto sub = std::make_shared<Sub>();
  sub->reqs.assign(reqs.begin(), reqs.end());
  const std::lock_guard<std::mutex> lock(mu_);
  const uint64_t t = next_ticket_++;
  totals_.rounds += 1;
  totals_.requests += reqs.size();
  subs_.emplace(t, sub);
  queue_.push_back(std::move(sub));
  return t;
}

BitVector RoundBus::Exchange(std::span<const edbms::ProbeRequest> reqs) {
  if (reqs.empty()) return BitVector();
  if (linger_ns_.load(std::memory_order_relaxed) == 0 &&
      ClaimPassthrough(reqs.size(), EstimateBytes(reqs))) {
    return inner_->ServeEvalMany(reqs);
  }
  return Await(Submit(reqs));
}

bool RoundBus::TryDirect(const edbms::Trapdoor& td, size_t n) {
  if (n == 0) return false;
  // Lock-free decline while a window is open: with a nonzero linger every
  // round must go through the queue so it can merge.
  if (linger_ns_.load(std::memory_order_relaxed) != 0) return false;
  return ClaimPassthrough(n, kChunkFixedBytes + n * kItemBytes + TdBytes(td));
}

bool RoundBus::ClaimPassthrough(size_t n, size_t bytes) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (linger_ns_.load(std::memory_order_relaxed) != 0 || !queue_.empty() ||
        collecting_ || bytes > opts_.max_entry_bytes) {
      return false;
    }
    totals_.rounds += 1;
    totals_.requests += n;
    totals_.entries += 1;
    factor_ewma_ = flushes_ == 0 ? 1.0 : 0.75 * factor_ewma_ + 0.25;
    ++flushes_;
  }
  // The factor gauge is refreshed on merged flushes and stats() reads;
  // skipping it here keeps the passthrough to counter bumps only.
  const CoalesceMetrics& m = CoalesceMetrics::Get();
  m.rounds->Add(1);
  m.requests->Add(n);
  m.entries->Add(1);
  return true;
}

BitVector RoundBus::Await(uint64_t t) {
  if (t == 0) return BitVector();
  std::unique_lock<std::mutex> lk(mu_);
  const auto it = subs_.find(t);
  if (it == subs_.end()) return BitVector();  // unknown/double-awaited ticket
  std::shared_ptr<Sub> sub = std::move(it->second);
  subs_.erase(it);
  while (sub->state != Sub::kDone) {
    if (!collecting_ && sub->state == Sub::kQueued) {
      // No collection in progress and our round is still queued: elect
      // ourselves collector. This flushes at least our own round.
      CollectAndFlush(lk);
    } else {
      cv_.wait(lk, [&] {
        return sub->state == Sub::kDone ||
               (!collecting_ && sub->state == Sub::kQueued);
      });
    }
  }
  return std::move(sub->bits);
}

void RoundBus::CollectAndFlush(std::unique_lock<std::mutex>& lk) {
  collecting_ = true;
  const uint64_t linger = linger_ns_.load(std::memory_order_relaxed);
  if (linger > 0) {
    // Linger with the lock released so concurrent selections can queue
    // their rounds into this entry. A spurious wakeup only shortens the
    // window; correctness never depends on the full linger elapsing.
    cv_.wait_for(lk, std::chrono::nanoseconds(linger));
  }
  std::vector<std::shared_ptr<Sub>> batch = std::move(queue_);
  queue_.clear();
  for (const auto& s : batch) s->state = Sub::kFlushing;
  // Hand the collector role to the next waiter *before* the (possibly slow)
  // backend entry: successive entries overlap on the wire exactly like the
  // pipelined client's correlation-id multiplexing.
  collecting_ = false;
  cv_.notify_all();
  lk.unlock();
  const size_t entries = FlushBatch(batch);
  lk.lock();
  for (const auto& s : batch) s->state = Sub::kDone;
  if (entries > 0) {
    const double sample =
        static_cast<double>(batch.size()) / static_cast<double>(entries);
    factor_ewma_ =
        flushes_ == 0 ? sample : 0.75 * factor_ewma_ + 0.25 * sample;
    ++flushes_;
    CoalesceMetrics::Get().factor_x1000->Set(
        static_cast<int64_t>(factor_ewma_ * 1000.0));
  }
  cv_.notify_all();
}

size_t RoundBus::FlushBatch(const std::vector<std::shared_ptr<Sub>>& batch) {
  if (batch.empty()) return 0;
  if (batch.size() == 1 &&
      EstimateBytes(batch[0]->reqs) <= opts_.max_entry_bytes) {
    // One in-budget round in the window: ship it verbatim — it is exactly
    // the entry the uncoalesced transport would send (intra-round dedup
    // happens at encode time), so the cross-request dedup/scatter machinery
    // below would only add latency.
    Sub& sub = *batch[0];
    sub.bits = inner_->ServeEvalMany(sub.reqs);
    CoalesceMetrics::Get().entries->Add(1);
    const std::lock_guard<std::mutex> lock(mu_);
    totals_.entries += 1;
    return 1;
  }

  // Merge every queued round into chunks under the wire budget, sending
  // each distinct predicate once per chunk however many selections carry
  // it. Dedup is by trapdoor *value* (uid + full compare): different
  // selections hold different Trapdoor copies of the same issued predicate,
  // which pointer identity — the intra-round key EncodeEvalManyReq uses —
  // cannot see.
  struct Chunk {
    std::vector<edbms::ProbeRequest> reqs;
    std::unordered_map<uint64_t, const edbms::Trapdoor*> canon;
    std::unordered_set<const edbms::Trapdoor*> raw;
    size_t bytes = kChunkFixedBytes;
  };
  std::vector<Chunk> chunks(1);
  struct Slot {
    uint32_t chunk;
    uint32_t index;
  };
  std::vector<std::vector<Slot>> slots(batch.size());

  const CoalesceMetrics& m = CoalesceMetrics::Get();
  uint64_t dedup = 0;
  uint64_t splits = 0;
  for (size_t si = 0; si < batch.size(); ++si) {
    slots[si].reserve(batch[si]->reqs.size());
    for (const edbms::ProbeRequest& req : batch[si]->reqs) {
      Chunk* c = &chunks.back();
      const edbms::Trapdoor* canonical = nullptr;
      const auto hit = c->canon.find(req.td->uid);
      if (hit != c->canon.end() && SameTrapdoor(*hit->second, *req.td)) {
        canonical = hit->second;
      }
      size_t add = kItemBytes + (canonical == nullptr ? TdBytes(*req.td) : 0);
      if (c->bytes + add > opts_.max_entry_bytes && !c->reqs.empty()) {
        chunks.emplace_back();
        c = &chunks.back();
        canonical = nullptr;
        add = kItemBytes + TdBytes(*req.td);
        ++splits;
      }
      if (canonical == nullptr) {
        c->canon.try_emplace(req.td->uid, req.td);
        canonical = req.td;
      } else if (canonical != req.td && !c->raw.contains(req.td)) {
        ++dedup;  // a distinct pointer collapsed onto the canonical copy
      }
      c->raw.insert(req.td);
      c->reqs.push_back(edbms::ProbeRequest{canonical, req.tid});
      c->bytes += add;
      slots[si].push_back(
          Slot{static_cast<uint32_t>(chunks.size() - 1),
               static_cast<uint32_t>(c->reqs.size() - 1)});
    }
  }

  std::vector<BitVector> bits(chunks.size());
  for (size_t i = 0; i < chunks.size(); ++i) {
    bits[i] = inner_->ServeEvalMany(chunks[i].reqs);
  }

  for (size_t si = 0; si < batch.size(); ++si) {
    Sub& sub = *batch[si];
    sub.bits = BitVector(sub.reqs.size());
    for (size_t j = 0; j < slots[si].size(); ++j) {
      const Slot& s = slots[si][j];
      if (s.index < bits[s.chunk].size()) {
        sub.bits.Assign(j, bits[s.chunk].Get(s.index));
      }
    }
  }

  m.entries->Add(chunks.size());
  if (batch.size() >= 2) m.merged_rounds->Add(batch.size());
  if (dedup > 0) m.dedup_tds->Add(dedup);
  if (splits > 0) m.overflow_splits->Add(splits);
  {
    // totals_ is guarded by mu_, which FlushBatch runs outside of; take it
    // briefly just for the stats roll-up.
    const std::lock_guard<std::mutex> lock(mu_);
    totals_.entries += chunks.size();
    if (batch.size() >= 2) totals_.merged_rounds += batch.size();
    totals_.dedup_tds += dedup;
    totals_.overflow_splits += splits;
  }
  return chunks.size();
}

void RoundBus::SetFittedLatency(uint64_t rt_latency_ns) {
  if (!opts_.adaptive_linger) return;
  uint64_t linger = 0;
  if (rt_latency_ns >= opts_.linger_floor_latency_ns) {
    linger = std::min<uint64_t>(
        static_cast<uint64_t>(static_cast<double>(rt_latency_ns) *
                              opts_.linger_frac),
        opts_.max_linger_ns);
  }
  linger_ns_.store(linger, std::memory_order_relaxed);
  CoalesceMetrics::Get().linger_ns->Set(static_cast<int64_t>(linger));
}

double RoundBus::factor() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return flushes_ == 0 ? 1.0 : std::max(1.0, factor_ewma_);
}

RoundBus::Stats RoundBus::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Stats out = totals_;
  out.linger_ns = linger_ns_.load(std::memory_order_relaxed);
  out.factor = flushes_ == 0 ? 1.0 : std::max(1.0, factor_ewma_);
  return out;
}

}  // namespace prkb::net
