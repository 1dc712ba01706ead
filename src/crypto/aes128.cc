#include "crypto/aes128.h"

#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace prkb::crypto {
namespace {

// FIPS-197 S-box and inverse S-box.
constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr uint8_t kInvSbox[256] = {
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3, 0x9e,
    0x81, 0xf3, 0xd7, 0xfb, 0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f, 0xff, 0x87,
    0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde, 0xe9, 0xcb, 0x54, 0x7b, 0x94, 0x32,
    0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b, 0x42, 0xfa, 0xc3, 0x4e,
    0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24, 0xb2, 0x76, 0x5b, 0xa2, 0x49,
    0x6d, 0x8b, 0xd1, 0x25, 0x72, 0xf8, 0xf6, 0x64, 0x86, 0x68, 0x98, 0x16,
    0xd4, 0xa4, 0x5c, 0xcc, 0x5d, 0x65, 0xb6, 0x92, 0x6c, 0x70, 0x48, 0x50,
    0xfd, 0xed, 0xb9, 0xda, 0x5e, 0x15, 0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84,
    0x90, 0xd8, 0xab, 0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7, 0xe4, 0x58, 0x05,
    0xb8, 0xb3, 0x45, 0x06, 0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02,
    0xc1, 0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b, 0x3a, 0x91, 0x11, 0x41,
    0x4f, 0x67, 0xdc, 0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6, 0x73,
    0x96, 0xac, 0x74, 0x22, 0xe7, 0xad, 0x35, 0x85, 0xe2, 0xf9, 0x37, 0xe8,
    0x1c, 0x75, 0xdf, 0x6e, 0x47, 0xf1, 0x1a, 0x71, 0x1d, 0x29, 0xc5, 0x89,
    0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b, 0xfc, 0x56, 0x3e, 0x4b,
    0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0, 0xfe, 0x78, 0xcd, 0x5a, 0xf4,
    0x1f, 0xdd, 0xa8, 0x33, 0x88, 0x07, 0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59,
    0x27, 0x80, 0xec, 0x5f, 0x60, 0x51, 0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d,
    0x2d, 0xe5, 0x7a, 0x9f, 0x93, 0xc9, 0x9c, 0xef, 0xa0, 0xe0, 0x3b, 0x4d,
    0xae, 0x2a, 0xf5, 0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2b, 0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63,
    0x55, 0x21, 0x0c, 0x7d};

constexpr uint8_t kRcon[10] = {0x01, 0x02, 0x04, 0x08, 0x10,
                               0x20, 0x40, 0x80, 0x1b, 0x36};

inline uint8_t Xtime(uint8_t x) {
  return static_cast<uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

// GF(2^8) multiply by small constants used in (Inv)MixColumns.
inline uint8_t Mul(uint8_t x, uint8_t c) {
  uint8_t r = 0;
  while (c != 0) {
    if (c & 1) r ^= x;
    x = Xtime(x);
    c >>= 1;
  }
  return r;
}

#if defined(__x86_64__)

// Whether this CPU has AES-NI. Decided once, on first use: a function-local
// static, with an explicit __builtin_cpu_init() because the order of static
// initialisers against libgcc's CPU-model constructor is unspecified.
bool HasAesNi() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("aes") && __builtin_cpu_supports("sse4.1");
  }();
  return has;
}

// AES-NI takes round keys and blocks in FIPS-197 byte order, so the schedule
// the constructor expands loads as is.
__attribute__((target("aes,sse4.1"))) void EncryptBlockNi(const uint8_t* rk,
                                                          const uint8_t* in,
                                                          uint8_t* out) {
  const auto* k = reinterpret_cast<const __m128i*>(rk);
  __m128i b = _mm_xor_si128(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(in)),
      _mm_loadu_si128(k));
  for (int r = 1; r < 10; ++r) b = _mm_aesenc_si128(b, _mm_loadu_si128(k + r));
  b = _mm_aesenclast_si128(b, _mm_loadu_si128(k + 10));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), b);
}

// Low 64 bits of E_k(nonce || 0) for each nonce. AESENC has a latency of
// several cycles but issues every cycle or two, so eight independent blocks
// per round keep the unit busy where one block would stall on its own chain.
__attribute__((target("aes,sse4.1"))) void KeystreamWordsNi(
    const uint8_t* rk, const uint64_t* nonces, uint64_t* ks, size_t n) {
  constexpr size_t kLanes = 8;
  __m128i k[11];
  for (int r = 0; r < 11; ++r) {
    k[r] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rk) + r);
  }
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    __m128i b[kLanes];
#pragma GCC unroll 8
    for (size_t j = 0; j < kLanes; ++j) {
      b[j] = _mm_xor_si128(
          _mm_cvtsi64_si128(static_cast<long long>(nonces[i + j])), k[0]);
    }
    for (int r = 1; r < 10; ++r) {
#pragma GCC unroll 8
      for (size_t j = 0; j < kLanes; ++j) b[j] = _mm_aesenc_si128(b[j], k[r]);
    }
#pragma GCC unroll 8
    for (size_t j = 0; j < kLanes; ++j) {
      ks[i + j] = static_cast<uint64_t>(
          _mm_cvtsi128_si64(_mm_aesenclast_si128(b[j], k[10])));
    }
  }
  for (; i < n; ++i) {
    __m128i b = _mm_xor_si128(
        _mm_cvtsi64_si128(static_cast<long long>(nonces[i])), k[0]);
    for (int r = 1; r < 10; ++r) b = _mm_aesenc_si128(b, k[r]);
    ks[i] = static_cast<uint64_t>(
        _mm_cvtsi128_si64(_mm_aesenclast_si128(b, k[10])));
  }
}

#endif  // defined(__x86_64__)

}  // namespace

Aes128::Aes128(const Key& key) {
  std::memcpy(round_keys_.data(), key.data(), kKeySize);
  for (int i = 4; i < 44; ++i) {
    uint8_t t[4];
    std::memcpy(t, &round_keys_[(i - 1) * 4], 4);
    if (i % 4 == 0) {
      // RotWord + SubWord + Rcon.
      const uint8_t tmp = t[0];
      t[0] = static_cast<uint8_t>(kSbox[t[1]] ^ kRcon[i / 4 - 1]);
      t[1] = kSbox[t[2]];
      t[2] = kSbox[t[3]];
      t[3] = kSbox[tmp];
    }
    for (int b = 0; b < 4; ++b) {
      round_keys_[i * 4 + b] =
          static_cast<uint8_t>(round_keys_[(i - 4) * 4 + b] ^ t[b]);
    }
  }
}

namespace detail {

void EncryptBlockPortable(const Aes128& aes, const uint8_t in[16],
                          uint8_t out[16]) {
  const uint8_t* rk = aes.round_keys_.data();
  uint8_t s[16];
  for (int i = 0; i < 16; ++i) s[i] = static_cast<uint8_t>(in[i] ^ rk[i]);

  for (int round = 1; round <= 10; ++round) {
    // SubBytes.
    for (auto& b : s) b = kSbox[b];
    // ShiftRows (state is column-major: s[c*4+r]).
    uint8_t t[16];
    for (int c = 0; c < 4; ++c) {
      for (int r = 0; r < 4; ++r) t[c * 4 + r] = s[((c + r) % 4) * 4 + r];
    }
    if (round < 10) {
      // MixColumns.
      for (int c = 0; c < 4; ++c) {
        const uint8_t a0 = t[c * 4], a1 = t[c * 4 + 1], a2 = t[c * 4 + 2],
                      a3 = t[c * 4 + 3];
        s[c * 4] = static_cast<uint8_t>(Xtime(a0) ^ (Xtime(a1) ^ a1) ^ a2 ^ a3);
        s[c * 4 + 1] =
            static_cast<uint8_t>(a0 ^ Xtime(a1) ^ (Xtime(a2) ^ a2) ^ a3);
        s[c * 4 + 2] =
            static_cast<uint8_t>(a0 ^ a1 ^ Xtime(a2) ^ (Xtime(a3) ^ a3));
        s[c * 4 + 3] =
            static_cast<uint8_t>((Xtime(a0) ^ a0) ^ a1 ^ a2 ^ Xtime(a3));
      }
    } else {
      std::memcpy(s, t, 16);
    }
    // AddRoundKey.
    for (int i = 0; i < 16; ++i) s[i] ^= rk[round * 16 + i];
  }
  std::memcpy(out, s, 16);
}

}  // namespace detail

void Aes128::EncryptBlock(const uint8_t in[kBlockSize],
                          uint8_t out[kBlockSize]) const {
#if defined(__x86_64__)
  if (HasAesNi()) {
    EncryptBlockNi(round_keys_.data(), in, out);
    return;
  }
#endif
  detail::EncryptBlockPortable(*this, in, out);
}

void Aes128::KeystreamWords(const uint64_t* nonces, uint64_t* ks,
                            size_t n) const {
#if defined(__x86_64__)
  if (HasAesNi()) {
    KeystreamWordsNi(round_keys_.data(), nonces, ks, n);
    return;
  }
#endif
  for (size_t i = 0; i < n; ++i) {
    uint8_t block[kBlockSize] = {};
    std::memcpy(block, &nonces[i], 8);
    detail::EncryptBlockPortable(*this, block, block);
    std::memcpy(&ks[i], block, 8);
  }
}

void Aes128::DecryptBlock(const uint8_t in[kBlockSize],
                          uint8_t out[kBlockSize]) const {
  uint8_t s[16];
  for (int i = 0; i < 16; ++i) {
    s[i] = static_cast<uint8_t>(in[i] ^ round_keys_[160 + i]);
  }

  for (int round = 9; round >= 0; --round) {
    // InvShiftRows.
    uint8_t t[16];
    for (int c = 0; c < 4; ++c) {
      for (int r = 0; r < 4; ++r) t[((c + r) % 4) * 4 + r] = s[c * 4 + r];
    }
    // InvSubBytes.
    for (auto& b : t) b = kInvSbox[b];
    // AddRoundKey.
    for (int i = 0; i < 16; ++i) t[i] ^= round_keys_[round * 16 + i];
    if (round > 0) {
      // InvMixColumns.
      for (int c = 0; c < 4; ++c) {
        const uint8_t a0 = t[c * 4], a1 = t[c * 4 + 1], a2 = t[c * 4 + 2],
                      a3 = t[c * 4 + 3];
        s[c * 4] = static_cast<uint8_t>(Mul(a0, 14) ^ Mul(a1, 11) ^
                                        Mul(a2, 13) ^ Mul(a3, 9));
        s[c * 4 + 1] = static_cast<uint8_t>(Mul(a0, 9) ^ Mul(a1, 14) ^
                                            Mul(a2, 11) ^ Mul(a3, 13));
        s[c * 4 + 2] = static_cast<uint8_t>(Mul(a0, 13) ^ Mul(a1, 9) ^
                                            Mul(a2, 14) ^ Mul(a3, 11));
        s[c * 4 + 3] = static_cast<uint8_t>(Mul(a0, 11) ^ Mul(a1, 13) ^
                                            Mul(a2, 9) ^ Mul(a3, 14));
      }
    } else {
      std::memcpy(s, t, 16);
    }
  }
  std::memcpy(out, s, 16);
}

}  // namespace prkb::crypto
