#ifndef PRKB_EDBMS_TRUSTED_MACHINE_H_
#define PRKB_EDBMS_TRUSTED_MACHINE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <span>
#include <unordered_map>

#include "common/bitvector.h"
#include "common/latency.h"
#include "crypto/cipher.h"
#include "crypto/hmac.h"
#include "crypto/prf.h"
#include "edbms/encryption.h"
#include "edbms/types.h"

namespace prkb::edbms {

/// Software stand-in for the tamper-resistant trusted machine (TM) of
/// Cipherbase / TrustedDB. The TM is provisioned with the data owner's key
/// material; the service provider hands it ciphertexts and gets back exactly
/// one bit per predicate evaluation.
///
/// Substitution note (see DESIGN.md): the paper runs this on an FPGA /
/// crypto-coprocessor. Here the decrypt-and-compare really happens (AES-NI
/// where the CPU has it, the portable table-lookup AES otherwise; see
/// crypto/aes128.h), and an optional fixed per-entry latency emulates the
/// hardware round trip. Both the paper's cost metrics are preserved: the
/// call count, and a per-call cost well above a plain comparison.
///
/// Entries come in two granularities: scalar EvalPredicate (one round trip
/// per tuple) and the batch entries EvalPredicateBatch/Multi (one round trip
/// for a whole ciphertext batch). A batch entry decrypts its cells in chunks
/// of ValueCrypter::kBatchLanes with a batched CTR keystream, then applies
/// the same plain predicate the scalar entry does, so all three give the
/// same bits. Counters are atomic and the verified trapdoor cache is
/// lock-protected so parallel scan workers can drive one TM concurrently.
class TrustedMachine {
 public:
  /// Provisioned with the same seed as the data owner.
  explicit TrustedMachine(uint64_t master_seed);

  // The mutex and atomics delete the implicit move; the owning Edbms is
  // returned by value from factories, so move explicitly (fresh mutex,
  // counter snapshot). Never move a TM with scans in flight.
  TrustedMachine(TrustedMachine&& other) noexcept
      : prf_(std::move(other.prf_)),
        crypter_(std::move(other.crypter_)),
        trapdoor_cipher_(std::move(other.trapdoor_cipher_)),
        trapdoor_mac_(std::move(other.trapdoor_mac_)),
        verified_(std::move(other.verified_)),
        predicate_evals_(
            other.predicate_evals_.load(std::memory_order_relaxed)),
        value_decrypts_(other.value_decrypts_.load(std::memory_order_relaxed)),
        round_trips_(other.round_trips_.load(std::memory_order_relaxed)),
        latency_(other.latency_) {}

  /// Θ's inner worker: verifies the trapdoor, decrypts the cell, compares.
  /// Returns false (and sets ok=false if provided) on a forged trapdoor.
  bool EvalPredicate(const Trapdoor& td, const EncValue& cell,
                     bool* ok = nullptr);

  /// Batched TM entry: one simulated round trip for the whole batch, then a
  /// bulk decrypt-and-compare of every cell. Bit i of the result corresponds
  /// to cells[i]. Counts |cells| predicate evaluations but a single round
  /// trip. All bits are false (ok=false) on a forged trapdoor.
  BitVector EvalPredicateBatch(const Trapdoor& td,
                               std::span<const EncValue* const> cells,
                               bool* ok = nullptr);

  /// Heterogeneous batched TM entry: one simulated round trip for a batch
  /// where every cell may carry its own trapdoor (the probe scheduler's
  /// fused rounds mix predicates from concurrent searches). tds and cells
  /// are parallel arrays; bit i is tds[i] applied to cells[i]. Counts
  /// |cells| predicate evaluations but a single round trip. A forged
  /// trapdoor yields false for its own lanes only (and ok=false overall).
  BitVector EvalPredicateMulti(std::span<const Trapdoor* const> tds,
                               std::span<const EncValue* const> cells,
                               bool* ok = nullptr);

  /// Decrypts a cell inside the TM (used by the Logarithmic-SRC-i
  /// confirmation step and index maintenance). Counted separately.
  Value DecryptValue(const EncValue& cell);

  /// Configures an artificial per-TM-entry delay, in nanoseconds, to emulate
  /// hardware/transport latency. 0 (default) disables it. Short delays spin;
  /// delays above ~50µs genuinely sleep (common/latency.h). Charged through
  /// the TM's LatencyModel — the single simulation hook per backend entry —
  /// so serving this TM behind a real wire (net::QpfServer) never
  /// double-counts latency: zero the model when the transport is physical.
  void set_call_latency_ns(uint64_t ns) { latency_.set_ns(ns); }
  LatencyModel& latency_model() { return latency_; }
  const LatencyModel& latency_model() const { return latency_; }

  uint64_t predicate_evals() const {
    return predicate_evals_.load(std::memory_order_relaxed);
  }
  uint64_t value_decrypts() const {
    return value_decrypts_.load(std::memory_order_relaxed);
  }
  /// Number of TM entries: scalar calls plus batch calls (the unit the
  /// simulated latency is charged per).
  uint64_t round_trips() const {
    return round_trips_.load(std::memory_order_relaxed);
  }
  void ResetCounters() {
    predicate_evals_.store(0, std::memory_order_relaxed);
    value_decrypts_.store(0, std::memory_order_relaxed);
    round_trips_.store(0, std::memory_order_relaxed);
  }

  /// Most verified trapdoors the TM keeps. A newly verified trapdoor that
  /// finds the cache this full empties it first, so the TM's memory stays
  /// bounded however many trapdoors it is shown; a trapdoor opened again
  /// after an emptying pays one more MAC check.
  static constexpr size_t kVerifiedCapacity = size_t{1} << 16;
  /// Verified trapdoors held right now (at most kVerifiedCapacity).
  size_t verified_size() const;

 private:
  /// A trapdoor whose MAC has been checked: its sealed blob, and the plain
  /// predicate it opens to (attr and kind from the MAC-bound header).
  struct Verified {
    std::array<uint8_t, kTrapdoorBlobSize> blob;
    PlainPredicate pred;
  };

  void SimulateLatency() const;
  /// Writes the plain predicate of `td` to `*out`: from the verified cache
  /// when this exact trapdoor (uid, attr, kind and blob) was opened before,
  /// else by checking its MAC. Returns false on a forged trapdoor, including
  /// one that reuses a verified trapdoor's uid.
  bool Open(const Trapdoor& td, PlainPredicate* out);

  crypto::Prf prf_;
  ValueCrypter crypter_;
  crypto::AesCtr trapdoor_cipher_;
  crypto::HmacSha256 trapdoor_mac_;
  // Verified trapdoors, keyed by uid: MAC verification happens once per
  // trapdoor, not once per tuple. Guarded for parallel scan workers.
  mutable std::shared_mutex verified_mu_;
  std::unordered_map<uint64_t, Verified> verified_;
  std::atomic<uint64_t> predicate_evals_{0};
  std::atomic<uint64_t> value_decrypts_{0};
  std::atomic<uint64_t> round_trips_{0};
  LatencyModel latency_;
};

}  // namespace prkb::edbms

#endif  // PRKB_EDBMS_TRUSTED_MACHINE_H_
