#ifndef PRKB_EDBMS_ENCRYPTION_H_
#define PRKB_EDBMS_ENCRYPTION_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "crypto/cipher.h"
#include "crypto/prf.h"
#include "edbms/types.h"

namespace prkb::edbms {

/// A probabilistically encrypted attribute value: AES-128-CTR with a unique
/// 64-bit nonce. Two encryptions of equal plaintexts are unlinkable, so the
/// service provider learns nothing from ciphertexts alone — exactly the
/// EDBMS premise the paper builds on.
struct EncValue {
  uint64_t nonce = 0;
  uint64_t ct = 0;
};

/// Symmetric value encryption shared by the data owner (encrypts) and the
/// trusted machine (decrypts). Constructed from a derived AES key.
class ValueCrypter {
 public:
  explicit ValueCrypter(const crypto::Aes128::Key& key) : ctr_(key) {}

  /// Encrypts `v` under `nonce`. The caller guarantees nonce uniqueness.
  EncValue Encrypt(Value v, uint64_t nonce) const {
    return EncValue{nonce, ctr_.CryptWord(nonce, static_cast<uint64_t>(v))};
  }

  /// Recovers the plain value.
  Value Decrypt(const EncValue& ev) const {
    return static_cast<Value>(ctr_.CryptWord(ev.nonce, ev.ct));
  }

  /// Lanes per keystream step of DecryptBatch; the TM decrypts a batch entry
  /// in chunks of this many cells.
  static constexpr size_t kBatchLanes = 64;

  /// out[i] = Decrypt(*cells[i]) for every cell, with the keystream computed
  /// several blocks at a time (AesCtr::KeystreamWords).
  void DecryptBatch(std::span<const EncValue* const> cells, Value* out) const {
    uint64_t ks[kBatchLanes] = {};
    for (size_t base = 0; base < cells.size(); base += kBatchLanes) {
      const size_t n = std::min(kBatchLanes, cells.size() - base);
      for (size_t i = 0; i < n; ++i) ks[i] = cells[base + i]->nonce;
      ctr_.KeystreamWords(ks, ks, n);
      for (size_t i = 0; i < n; ++i) {
        out[base + i] = static_cast<Value>(cells[base + i]->ct ^ ks[i]);
      }
    }
  }

 private:
  crypto::AesCtr ctr_;
};

/// SP-visible encrypted predicate: the trapdoor the data owner hands over so
/// the QPF can evaluate the (hidden) predicate on encrypted tuples. The SP
/// sees the target attribute and the predicate *family* (Sec. 3.1), but the
/// operator and constants are sealed in `blob` (nonce || ct || MAC tag).
struct Trapdoor {
  AttrId attr = 0;
  PredicateKind kind = PredicateKind::kComparison;
  /// SP-visible handle; unique per issued trapdoor. Equality of uids does NOT
  /// imply predicate equivalence — that is only discoverable through QPF
  /// outputs (Def. 4.3).
  uint64_t uid = 0;
  std::vector<uint8_t> blob;
};

/// Byte layout of the sealed trapdoor payload.
struct TrapdoorPayload {
  CompareOp op;
  Value lo;
  Value hi;
};

inline constexpr size_t kTrapdoorNonceSize = 8;
inline constexpr size_t kTrapdoorCtSize = 17;  // op(1) + lo(8) + hi(8)
inline constexpr size_t kTrapdoorTagSize = 16;
inline constexpr size_t kTrapdoorBlobSize =
    kTrapdoorNonceSize + kTrapdoorCtSize + kTrapdoorTagSize;

/// Seals `payload` into a trapdoor blob (encrypt-then-MAC).
std::vector<uint8_t> SealTrapdoor(const crypto::AesCtr& cipher,
                                  const crypto::HmacSha256& mac, AttrId attr,
                                  PredicateKind kind, uint64_t nonce,
                                  const TrapdoorPayload& payload);

/// Verifies the MAC and opens the blob. Returns false on tampering.
bool OpenTrapdoor(const crypto::AesCtr& cipher, const crypto::HmacSha256& mac,
                  const Trapdoor& td, TrapdoorPayload* out);

}  // namespace prkb::edbms

#endif  // PRKB_EDBMS_ENCRYPTION_H_
