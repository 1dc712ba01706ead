#ifndef PRKB_CRYPTO_CIPHER_H_
#define PRKB_CRYPTO_CIPHER_H_

#include <cstdint>
#include <vector>

#include "crypto/aes128.h"

namespace prkb::crypto {

/// AES-128-CTR stream cipher. Encryption and decryption are the same
/// operation (XOR with the keystream). The 64-bit nonce must be unique per
/// message under one key; the data owner draws nonces from a counter.
class AesCtr {
 public:
  explicit AesCtr(const Aes128::Key& key) : aes_(key) {}

  /// XORs `n` bytes of keystream derived from (nonce, starting counter 0)
  /// into `data` in place.
  void Crypt(uint64_t nonce, uint8_t* data, size_t n) const;

  /// Convenience: encrypts/decrypts a single 64-bit word, one AES block op
  /// per attribute value. The data owner's encrypt and the TM's scalar entry
  /// use it; the TM's batch entries use KeystreamWords.
  uint64_t CryptWord(uint64_t nonce, uint64_t word) const;

  /// Batch form of CryptWord's keystream: ks[i] is the word CryptWord(
  /// nonces[i], w) XORs into w. Eight blocks per step on AES-NI; see
  /// Aes128::KeystreamWords. `ks` may be `nonces` itself (in-place).
  void KeystreamWords(const uint64_t* nonces, uint64_t* ks, size_t n) const {
    aes_.KeystreamWords(nonces, ks, n);
  }

 private:
  Aes128 aes_;
};

/// AES-128-ECB, exposed for FIPS-197 test vectors and for fixed-size
/// deterministic token encryption inside the SSE layer. Do not use ECB for
/// attribute values (deterministic encryption leaks equality).
class AesEcb {
 public:
  explicit AesEcb(const Aes128::Key& key) : aes_(key) {}

  /// Encrypts/decrypts whole blocks; `n` must be a multiple of 16.
  void Encrypt(const uint8_t* in, uint8_t* out, size_t n) const;
  void Decrypt(const uint8_t* in, uint8_t* out, size_t n) const;

 private:
  Aes128 aes_;
};

}  // namespace prkb::crypto

#endif  // PRKB_CRYPTO_CIPHER_H_
