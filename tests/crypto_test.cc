#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "crypto/aes128.h"
#include "crypto/cipher.h"
#include "crypto/hmac.h"
#include "crypto/prf.h"
#include "crypto/sha256.h"
#include "gtest/gtest.h"

namespace prkb::crypto {
namespace {

std::string ToHex(const uint8_t* data, size_t n) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (size_t i = 0; i < n; ++i) {
    out += kHex[data[i] >> 4];
    out += kHex[data[i] & 0xF];
  }
  return out;
}

std::vector<uint8_t> FromHex(const std::string& hex) {
  std::vector<uint8_t> out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(
        static_cast<uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

// ---------------------------------------------------------------- AES-128

// FIPS-197 Appendix C.1 known-answer test.
TEST(Aes128Test, Fips197AppendixC1) {
  Aes128::Key key;
  for (int i = 0; i < 16; ++i) key[i] = static_cast<uint8_t>(i);
  uint8_t pt[16];
  for (int i = 0; i < 16; ++i) pt[i] = static_cast<uint8_t>(i * 0x11);
  Aes128 aes(key);
  uint8_t ct[16];
  aes.EncryptBlock(pt, ct);
  EXPECT_EQ(ToHex(ct, 16), "69c4e0d86a7b0430d8cdb78070b4c55a");
  detail::EncryptBlockPortable(aes, pt, ct);
  EXPECT_EQ(ToHex(ct, 16), "69c4e0d86a7b0430d8cdb78070b4c55a");
  uint8_t back[16];
  aes.DecryptBlock(ct, back);
  EXPECT_EQ(0, std::memcmp(back, pt, 16));
}

// FIPS-197 Appendix B example vector.
TEST(Aes128Test, Fips197AppendixB) {
  const auto key_bytes = FromHex("2b7e151628aed2a6abf7158809cf4f3c");
  Aes128::Key key;
  std::memcpy(key.data(), key_bytes.data(), 16);
  const auto pt = FromHex("3243f6a8885a308d313198a2e0370734");
  Aes128 aes(key);
  uint8_t ct[16];
  aes.EncryptBlock(pt.data(), ct);
  EXPECT_EQ(ToHex(ct, 16), "3925841d02dc09fbdc118597196a0b32");
  detail::EncryptBlockPortable(aes, pt.data(), ct);
  EXPECT_EQ(ToHex(ct, 16), "3925841d02dc09fbdc118597196a0b32");
}

// EncryptBlock runs on AES-NI where the CPU has it; the portable table
// implementation is the fallback elsewhere. Both must give the same bits, for
// single blocks and for the batched CTR keystream.
TEST(Aes128Test, DispatchedPathMatchesPortableOnRandomKeys) {
  std::mt19937_64 rng(0xAE5);
  for (int k = 0; k < 64; ++k) {
    Aes128::Key key;
    for (auto& b : key) b = static_cast<uint8_t>(rng());
    const Aes128 aes(key);
    std::vector<uint64_t> nonces(1000);
    for (int i = 0; i < 1000; ++i) {
      uint8_t in[16];
      for (auto& b : in) b = static_cast<uint8_t>(rng());
      uint8_t got[16], want[16];
      aes.EncryptBlock(in, got);
      detail::EncryptBlockPortable(aes, in, want);
      ASSERT_EQ(ToHex(got, 16), ToHex(want, 16)) << "key " << k << " block "
                                                 << i;
      nonces[i] = rng();
    }
    std::vector<uint64_t> ks(nonces.size());
    aes.KeystreamWords(nonces.data(), ks.data(), nonces.size());
    for (size_t i = 0; i < nonces.size(); ++i) {
      uint8_t block[16] = {};
      std::memcpy(block, &nonces[i], 8);
      detail::EncryptBlockPortable(aes, block, block);
      uint64_t want;
      std::memcpy(&want, block, 8);
      ASSERT_EQ(ks[i], want) << "key " << k << " lane " << i;
    }
  }
}

TEST(Aes128Test, EncryptDecryptRoundTripRandomBlocks) {
  Aes128::Key key{};
  key[0] = 0x42;
  Aes128 aes(key);
  uint8_t block[16] = {0};
  for (int iter = 0; iter < 100; ++iter) {
    uint8_t ct[16], back[16];
    aes.EncryptBlock(block, ct);
    aes.DecryptBlock(ct, back);
    EXPECT_EQ(0, std::memcmp(block, back, 16));
    // Chain: next plaintext is this ciphertext.
    std::memcpy(block, ct, 16);
  }
}

TEST(Aes128Test, InPlaceEncryptionAllowed) {
  Aes128::Key key{};
  Aes128 aes(key);
  uint8_t a[16] = {1, 2, 3};
  uint8_t b[16] = {1, 2, 3};
  uint8_t out[16];
  aes.EncryptBlock(a, a);  // in place
  aes.EncryptBlock(b, out);
  EXPECT_EQ(0, std::memcmp(a, out, 16));
}

// -------------------------------------------------------------------- CTR

TEST(AesCtrTest, CryptIsAnInvolution) {
  AesCtr ctr(Aes128::Key{1, 2, 3, 4});
  std::vector<uint8_t> msg(100);
  for (size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<uint8_t>(i);
  auto enc = msg;
  ctr.Crypt(/*nonce=*/99, enc.data(), enc.size());
  EXPECT_NE(enc, msg);
  ctr.Crypt(99, enc.data(), enc.size());
  EXPECT_EQ(enc, msg);
}

TEST(AesCtrTest, DistinctNoncesGiveDistinctStreams) {
  AesCtr ctr(Aes128::Key{7});
  uint64_t a = ctr.CryptWord(1, 0);
  uint64_t b = ctr.CryptWord(2, 0);
  EXPECT_NE(a, b);
}

TEST(AesCtrTest, CryptWordMatchesCryptBuffer) {
  AesCtr ctr(Aes128::Key{9});
  uint64_t word = 0x0123456789ABCDEFULL;
  const uint64_t enc_word = ctr.CryptWord(5, word);
  uint8_t buf[8];
  std::memcpy(buf, &word, 8);
  ctr.Crypt(5, buf, 8);
  uint64_t enc_buf;
  std::memcpy(&enc_buf, buf, 8);
  EXPECT_EQ(enc_word, enc_buf);
}

// The batch keystream is CryptWord's keystream lane by lane, at sizes that
// cover the eight-block step and its tail, and when written over its input.
TEST(AesCtrTest, KeystreamWordsMatchesCryptWordPerLane) {
  AesCtr ctr(Aes128::Key{5, 4, 3, 2, 1});
  std::mt19937_64 rng(42);
  for (size_t n : {0, 1, 7, 8, 9, 63, 64, 65, 1000}) {
    std::vector<uint64_t> nonces(n);
    for (auto& x : nonces) x = rng();
    std::vector<uint64_t> ks(n, 0xDEAD);
    ctr.KeystreamWords(nonces.data(), ks.data(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(ks[i], ctr.CryptWord(nonces[i], 0)) << "n=" << n << " i=" << i;
    }
    ctr.KeystreamWords(nonces.data(), nonces.data(), n);  // in place
    EXPECT_EQ(nonces, ks) << "n=" << n;
  }
}

TEST(AesEcbTest, MultiBlockRoundTrip) {
  AesEcb ecb(Aes128::Key{3});
  std::vector<uint8_t> msg(64);
  for (size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<uint8_t>(7 * i);
  std::vector<uint8_t> ct(64), back(64);
  ecb.Encrypt(msg.data(), ct.data(), 64);
  ecb.Decrypt(ct.data(), back.data(), 64);
  EXPECT_EQ(back, msg);
}

// ---------------------------------------------------------------- SHA-256

TEST(Sha256Test, EmptyString) {
  const auto d = Sha256::Hash("");
  EXPECT_EQ(ToHex(d.data(), d.size()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  const auto d = Sha256::Hash("abc");
  EXPECT_EQ(ToHex(d.data(), d.size()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  const auto d = Sha256::Hash(
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  EXPECT_EQ(ToHex(d.data(), d.size()),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  std::vector<uint8_t> chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  const auto d = h.Finalize();
  EXPECT_EQ(ToHex(d.data(), d.size()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, StreamingMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  Sha256 h;
  for (char c : msg) h.Update(reinterpret_cast<const uint8_t*>(&c), 1);
  EXPECT_EQ(h.Finalize(), Sha256::Hash(msg));
}

// ------------------------------------------------------------------- HMAC

// RFC 4231 test case 1.
TEST(HmacTest, Rfc4231Case1) {
  std::vector<uint8_t> key(20, 0x0b);
  HmacSha256 mac(key);
  const auto tag = mac.Compute("Hi There");
  EXPECT_EQ(ToHex(tag.data(), tag.size()),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 ("Jefe").
TEST(HmacTest, Rfc4231Case2) {
  std::vector<uint8_t> key = {'J', 'e', 'f', 'e'};
  HmacSha256 mac(key);
  const auto tag = mac.Compute("what do ya want for nothing?");
  EXPECT_EQ(ToHex(tag.data(), tag.size()),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 6: key longer than the block size.
TEST(HmacTest, Rfc4231Case6LongKey) {
  std::vector<uint8_t> key(131, 0xaa);
  HmacSha256 mac(key);
  const auto tag =
      mac.Compute("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(ToHex(tag.data(), tag.size()),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, VerifyDetectsDifference) {
  HmacSha256 mac(std::vector<uint8_t>{1, 2, 3});
  auto a = mac.Compute("x");
  auto b = a;
  EXPECT_TRUE(HmacSha256::Verify(a, b));
  b[5] ^= 1;
  EXPECT_FALSE(HmacSha256::Verify(a, b));
}

// -------------------------------------------------------------------- PRF

TEST(PrfTest, DerivedKeysAreLabelSeparated) {
  Prf prf(std::vector<uint8_t>{1, 2, 3, 4});
  EXPECT_NE(prf.DeriveAesKey("a"), prf.DeriveAesKey("b"));
  EXPECT_EQ(prf.DeriveAesKey("a"), prf.DeriveAesKey("a"));
  EXPECT_NE(prf.DeriveKey("a"), prf.DeriveKey("b"));
}

TEST(PrfTest, Eval64IsDeterministicAndSpread) {
  Prf prf(std::vector<uint8_t>{9});
  EXPECT_EQ(prf.Eval64("lbl", 7), prf.Eval64("lbl", 7));
  EXPECT_NE(prf.Eval64("lbl", 7), prf.Eval64("lbl", 8));
  EXPECT_NE(prf.Eval64("lbl", 7), prf.Eval64("other", 7));
}

TEST(PrfTest, DifferentMasterKeysDisagree) {
  Prf a(std::vector<uint8_t>{1});
  Prf b(std::vector<uint8_t>{2});
  EXPECT_NE(a.Eval64("l", 0), b.Eval64("l", 0));
}

}  // namespace
}  // namespace prkb::crypto
