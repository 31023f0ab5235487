// Known-answer and property tests for AES, AES-CBC/PKCS#7, and AES-WRAP.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.h"
#include "common/hex.h"
#include "common/random.h"
#include "crypto/aes.h"
#include "crypto/aes_accel.h"
#include "crypto/aes_wrap.h"
#include "crypto/modes.h"

namespace omadrm::crypto {
namespace {

Bytes block_encrypt(ByteView key, ByteView pt) {
  Aes aes(key);
  Bytes out(16);
  aes.encrypt_block(pt.data(), out.data());
  return out;
}

Bytes block_decrypt(ByteView key, ByteView ct) {
  Aes aes(key);
  Bytes out(16);
  aes.decrypt_block(ct.data(), out.data());
  return out;
}

// FIPS-197 Appendix C known-answer vectors.
TEST(Aes, Fips197Aes128) {
  Bytes key = from_hex("000102030405060708090a0b0c0d0e0f");
  Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  Bytes ct = block_encrypt(key, pt);
  EXPECT_EQ(to_hex(ct), "69c4e0d86a7b0430d8cdb78070b4c55a");
  EXPECT_EQ(block_decrypt(key, ct), pt);
}

TEST(Aes, Fips197Aes192) {
  Bytes key = from_hex("000102030405060708090a0b0c0d0e0f1011121314151617");
  Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  Bytes ct = block_encrypt(key, pt);
  EXPECT_EQ(to_hex(ct), "dda97ca4864cdfe06eaf70a0ec0d7191");
  EXPECT_EQ(block_decrypt(key, ct), pt);
}

TEST(Aes, Fips197Aes256) {
  Bytes key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  Bytes ct = block_encrypt(key, pt);
  EXPECT_EQ(to_hex(ct), "8ea2b7ca516745bfeafc49904b496089");
  EXPECT_EQ(block_decrypt(key, ct), pt);
}

TEST(Aes, NistSp800_38aEcbVector) {
  Bytes key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  Bytes pt = from_hex("6bc1bee22e409f96e93d7e117393172a");
  EXPECT_EQ(to_hex(block_encrypt(key, pt)),
            "3ad77bb40d7a3660a89ecaf32466ef97");
}

TEST(Aes, RejectsBadKeySizes) {
  EXPECT_THROW(Aes(Bytes(15, 0)), Error);
  EXPECT_THROW(Aes(Bytes(17, 0)), Error);
  EXPECT_THROW(Aes(Bytes(0, 0)), Error);
  EXPECT_THROW(Aes(Bytes(33, 0)), Error);
}

TEST(Aes, InPlaceOperation) {
  Bytes key = from_hex("000102030405060708090a0b0c0d0e0f");
  Bytes buf = from_hex("00112233445566778899aabbccddeeff");
  Aes aes(key);
  aes.encrypt_block(buf.data(), buf.data());
  EXPECT_EQ(to_hex(buf), "69c4e0d86a7b0430d8cdb78070b4c55a");
  aes.decrypt_block(buf.data(), buf.data());
  EXPECT_EQ(to_hex(buf), "00112233445566778899aabbccddeeff");
}

class AesRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AesRoundTrip, DecryptInvertsEncrypt) {
  DeterministicRng rng(GetParam());
  Bytes key = rng.bytes(GetParam());
  Aes aes(key);
  for (int i = 0; i < 50; ++i) {
    Bytes pt = rng.bytes(16);
    Bytes ct(16), back(16);
    aes.encrypt_block(pt.data(), ct.data());
    aes.decrypt_block(ct.data(), back.data());
    EXPECT_EQ(back, pt);
    EXPECT_NE(ct, pt);
  }
}

INSTANTIATE_TEST_SUITE_P(KeySizes, AesRoundTrip,
                         ::testing::Values(16, 24, 32));

TEST(Pkcs7, PadUnpadRoundTrip) {
  for (std::size_t len = 0; len < 40; ++len) {
    Bytes data(len, 0x7e);
    Bytes padded = pkcs7_pad(data, 16);
    EXPECT_EQ(padded.size() % 16, 0u);
    EXPECT_GT(padded.size(), data.size());
    EXPECT_EQ(pkcs7_unpad(padded, 16), data);
  }
}

TEST(Pkcs7, FullBlockOfPaddingWhenAligned) {
  Bytes data(16, 1);
  Bytes padded = pkcs7_pad(data, 16);
  EXPECT_EQ(padded.size(), 32u);
  EXPECT_EQ(padded.back(), 16);
}

TEST(Pkcs7, RejectsCorruptPadding) {
  Bytes padded = pkcs7_pad(Bytes(10, 0xaa), 16);
  padded.back() = 0;
  EXPECT_THROW(pkcs7_unpad(padded, 16), Error);
  padded.back() = 17;
  EXPECT_THROW(pkcs7_unpad(padded, 16), Error);
  padded.back() = 6;
  padded[padded.size() - 2] = 5;  // inconsistent interior byte
  EXPECT_THROW(pkcs7_unpad(padded, 16), Error);
  EXPECT_THROW(pkcs7_unpad(Bytes{}, 16), Error);
  EXPECT_THROW(pkcs7_unpad(Bytes(15, 1), 16), Error);
}

TEST(Cbc, NistSp800_38aFirstBlock) {
  Bytes key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  Bytes iv = from_hex("000102030405060708090a0b0c0d0e0f");
  Bytes pt = from_hex("6bc1bee22e409f96e93d7e117393172a");
  Bytes ct = aes_cbc_encrypt(key, iv, pt);
  // First block matches the NIST vector; the second is our PKCS#7 padding.
  EXPECT_EQ(to_hex(Bytes(ct.begin(), ct.begin() + 16)),
            "7649abac8119b246cee98e9b12e9197d");
  EXPECT_EQ(aes_cbc_decrypt(key, iv, ct), pt);
}

TEST(Cbc, RoundTripVariousLengths) {
  DeterministicRng rng(33);
  Bytes key = rng.bytes(16);
  Bytes iv = rng.bytes(16);
  for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 100u, 4096u}) {
    Bytes pt = rng.bytes(len);
    Bytes ct = aes_cbc_encrypt(key, iv, pt);
    EXPECT_EQ(ct.size(), (len / 16 + 1) * 16);
    EXPECT_EQ(aes_cbc_decrypt(key, iv, ct), pt) << "len=" << len;
  }
}

// The AES-NI bulk cores against CBC built from the portable T-table block
// cipher on the same key and input. Every n_blocks 0-9 covers the 4-way
// decrypt loop and each tail length; the chain runs on across calls the
// way ContentSession::read() carries it between chunks.
TEST(Cbc, AesNiCoresMatchPortableBlockCipher) {
  if (!accel::cpu_supported()) GTEST_SKIP() << "no AES-NI on this host";
  DeterministicRng rng(34);
  for (std::size_t key_len : {16u, 24u, 32u}) {
    const Aes aes(rng.bytes(key_len));
    ASSERT_TRUE(aes.has_accel());
    const Bytes iv = rng.bytes(16);
    std::uint8_t ref_enc_chain[16], ni_enc_chain[16];
    std::uint8_t ref_dec_chain[16], ni_dec_chain[16];
    std::copy(iv.begin(), iv.end(), ref_enc_chain);
    std::copy(iv.begin(), iv.end(), ni_enc_chain);
    std::copy(iv.begin(), iv.end(), ref_dec_chain);
    std::copy(iv.begin(), iv.end(), ni_dec_chain);
    for (std::size_t n_blocks = 0; n_blocks <= 9; ++n_blocks) {
      const Bytes pt = rng.bytes(16 * n_blocks);

      Bytes ref_ct(pt.size());
      for (std::size_t i = 0; i < n_blocks; ++i) {
        std::uint8_t x[16];
        for (int j = 0; j < 16; ++j) x[j] = pt[16 * i + j] ^ ref_enc_chain[j];
        aes.encrypt_block(x, ref_ct.data() + 16 * i);
        std::copy_n(ref_ct.data() + 16 * i, 16, ref_enc_chain);
      }
      Bytes ni_ct(pt.size());
      accel::cbc_encrypt_blocks(aes.accel_enc_keys(), aes.rounds(),
                                ni_enc_chain, pt.data(), ni_ct.data(),
                                n_blocks);
      EXPECT_EQ(ni_ct, ref_ct) << "key=" << key_len << " n=" << n_blocks;
      EXPECT_TRUE(std::equal(ni_enc_chain, ni_enc_chain + 16, ref_enc_chain))
          << "encrypt chain, key=" << key_len << " n=" << n_blocks;

      Bytes ref_pt(pt.size());
      for (std::size_t i = 0; i < n_blocks; ++i) {
        aes.decrypt_block(ref_ct.data() + 16 * i, ref_pt.data() + 16 * i);
        for (int j = 0; j < 16; ++j) ref_pt[16 * i + j] ^= ref_dec_chain[j];
        std::copy_n(ref_ct.data() + 16 * i, 16, ref_dec_chain);
      }
      Bytes ni_pt(pt.size());
      accel::cbc_decrypt_blocks(aes.accel_dec_keys(), aes.rounds(),
                                ni_dec_chain, ref_ct.data(), ni_pt.data(),
                                n_blocks);
      EXPECT_EQ(ref_pt, pt) << "key=" << key_len << " n=" << n_blocks;
      EXPECT_EQ(ni_pt, pt) << "key=" << key_len << " n=" << n_blocks;
      EXPECT_TRUE(std::equal(ni_dec_chain, ni_dec_chain + 16, ref_dec_chain))
          << "decrypt chain, key=" << key_len << " n=" << n_blocks;
    }
  }
}

TEST(Cbc, IvChangesCiphertext) {
  DeterministicRng rng(34);
  Bytes key = rng.bytes(16);
  Bytes pt = rng.bytes(64);
  Bytes c1 = aes_cbc_encrypt(key, rng.bytes(16), pt);
  Bytes c2 = aes_cbc_encrypt(key, rng.bytes(16), pt);
  EXPECT_NE(c1, c2);
}

TEST(Cbc, RejectsBadInputs) {
  Bytes key(16, 0), iv(16, 0);
  EXPECT_THROW(aes_cbc_encrypt(key, Bytes(8, 0), Bytes{}), Error);
  EXPECT_THROW(aes_cbc_decrypt(key, iv, Bytes(15, 0)), Error);
  EXPECT_THROW(aes_cbc_decrypt(key, iv, Bytes{}), Error);
}

TEST(Cbc, TamperedCiphertextFailsPadding) {
  // Not guaranteed for arbitrary tampering, but flipping bits in the last
  // block's padding region is overwhelmingly likely to break PKCS#7.
  Bytes key(16, 1), iv(16, 2);
  Bytes pt(20, 3);
  Bytes ct = aes_cbc_encrypt(key, iv, pt);
  Bytes wrong_key(16, 9);
  EXPECT_THROW(
      {
        Bytes out = aes_cbc_decrypt(wrong_key, iv, ct);
        // If padding happened to validate, the content must still differ.
        if (out == pt) throw Error(ErrorKind::kFormat, "impossible");
      },
      Error);
}

TEST(AesWrap, Rfc3394Vector128) {
  // RFC 3394 §4.1: wrap 128 bits of key data with a 128-bit KEK.
  Bytes kek = from_hex("000102030405060708090a0b0c0d0e0f");
  Bytes data = from_hex("00112233445566778899aabbccddeeff");
  Bytes wrapped = aes_wrap(kek, data);
  EXPECT_EQ(to_hex(wrapped),
            "1fa68b0a8112b447aef34bd8fb5a7b829d3e862371d2cfe5");
  auto unwrapped = aes_unwrap(kek, wrapped);
  ASSERT_TRUE(unwrapped.has_value());
  EXPECT_EQ(*unwrapped, data);
}

TEST(AesWrap, RoundTripLengths) {
  DeterministicRng rng(44);
  Bytes kek = rng.bytes(16);
  for (std::size_t len : {16u, 24u, 32u, 40u, 64u}) {
    Bytes data = rng.bytes(len);
    Bytes wrapped = aes_wrap(kek, data);
    EXPECT_EQ(wrapped.size(), len + 8);
    auto back = aes_unwrap(kek, wrapped);
    ASSERT_TRUE(back.has_value()) << "len=" << len;
    EXPECT_EQ(*back, data);
  }
}

TEST(AesWrap, WrongKekDetected) {
  DeterministicRng rng(45);
  Bytes kek = rng.bytes(16);
  Bytes other = rng.bytes(16);
  Bytes wrapped = aes_wrap(kek, rng.bytes(32));
  EXPECT_FALSE(aes_unwrap(other, wrapped).has_value());
}

TEST(AesWrap, TamperDetected) {
  DeterministicRng rng(46);
  Bytes kek = rng.bytes(16);
  Bytes wrapped = aes_wrap(kek, rng.bytes(32));
  for (std::size_t i = 0; i < wrapped.size(); i += 7) {
    Bytes bad = wrapped;
    bad[i] ^= 0x40;
    EXPECT_FALSE(aes_unwrap(kek, bad).has_value()) << "byte " << i;
  }
}

TEST(AesWrap, RejectsBadLengths) {
  Bytes kek(16, 0);
  EXPECT_THROW(aes_wrap(kek, Bytes(8, 0)), Error);    // too short
  EXPECT_THROW(aes_wrap(kek, Bytes(20, 0)), Error);   // not multiple of 8
  EXPECT_THROW(aes_unwrap(kek, Bytes(16, 0)), Error); // too short
  EXPECT_THROW(aes_unwrap(kek, Bytes(25, 0)), Error); // not multiple of 8
}

}  // namespace
}  // namespace omadrm::crypto
