#ifndef PRKB_CRYPTO_AES128_H_
#define PRKB_CRYPTO_AES128_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace prkb::crypto {

class Aes128;

namespace detail {
/// The portable table-lookup encryption, bypassing the AES-NI dispatch. It is
/// what EncryptBlock runs on hosts without AES-NI; tests and bench_micro call
/// it directly to check and time that path on any host.
void EncryptBlockPortable(const Aes128& aes, const uint8_t in[16],
                          uint8_t out[16]);
}  // namespace detail

/// AES-128 block cipher (FIPS-197) with no external crypto dependency. One
/// instance holds an expanded key schedule; Encrypt/Decrypt operate on single
/// 16-byte blocks.
///
/// Encryption runs on AES-NI when the CPU has it (x86-64, checked once at
/// run time; the binary needs no -maes and still runs elsewhere). Without
/// AES-NI, and on every non-x86 build, it falls back to a portable byte-wise
/// S-box implementation. That fallback indexes tables by key- and
/// data-dependent bytes, so it is not constant-time: it leaves a cache-timing
/// channel that the AES-NI path does not have. Both paths produce identical
/// bits (tests/crypto_test.cc checks FIPS-197 vectors on each and a random
/// differential between them). Decryption is always the portable code; the
/// EDBMS hot path uses CTR mode, which only encrypts.
///
/// This is the EDBMS's "application level encryption": the data owner and the
/// trusted machine hold the key; the service provider only ever moves
/// ciphertext around.
class Aes128 {
 public:
  static constexpr size_t kBlockSize = 16;
  static constexpr size_t kKeySize = 16;

  using Block = std::array<uint8_t, kBlockSize>;
  using Key = std::array<uint8_t, kKeySize>;

  /// Expands `key` into the 11 round keys.
  explicit Aes128(const Key& key);

  /// Encrypts one block: out = E_k(in). `out` may alias `in`.
  void EncryptBlock(const uint8_t in[kBlockSize],
                    uint8_t out[kBlockSize]) const;

  /// Decrypts one block: out = D_k(in). `out` may alias `in`.
  void DecryptBlock(const uint8_t in[kBlockSize],
                    uint8_t out[kBlockSize]) const;

  /// CTR keystream for `n` single-block messages: ks[i] is the low 64 bits
  /// of E_k(nonces[i] || 0), i.e. what AesCtr::CryptWord XORs into a word.
  /// On AES-NI, eight blocks are in flight per step so the rounds pipeline.
  /// `ks` may be `nonces` itself (in-place).
  void KeystreamWords(const uint64_t* nonces, uint64_t* ks, size_t n) const;

 private:
  friend void detail::EncryptBlockPortable(const Aes128& aes,
                                           const uint8_t in[kBlockSize],
                                           uint8_t out[kBlockSize]);

  // 11 round keys x 16 bytes, in FIPS-197 byte order (which is also the
  // order AES-NI loads them in).
  std::array<uint8_t, 176> round_keys_;
};

}  // namespace prkb::crypto

#endif  // PRKB_CRYPTO_AES128_H_
