// Known-answer and property tests for SHA-1 and HMAC-SHA1.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/error.h"
#include "common/hex.h"
#include "common/random.h"
#include "crypto/hmac.h"
#include "crypto/sha1.h"
#include "crypto/sha1_accel.h"

namespace omadrm::crypto {
namespace {

constexpr std::uint32_t kSha1Iv[5] = {0x67452301u, 0xefcdab89u, 0x98badcfeu,
                                      0x10325476u, 0xc3d2e1f0u};

// SHA-1 with the padding done by hand and the portable core driven
// directly: an oracle independent of Sha1's buffering and of whichever
// core Sha1 picked for this host.
Bytes portable_digest(ByteView data) {
  Bytes msg(data.begin(), data.end());
  msg.push_back(0x80);
  while (msg.size() % Sha1::kBlockSize != 56) msg.push_back(0);
  std::uint8_t bit_len[8];
  store_be64(std::uint64_t{data.size()} * 8, bit_len);
  msg.insert(msg.end(), bit_len, bit_len + 8);
  std::uint32_t state[5];
  std::memcpy(state, kSha1Iv, sizeof state);
  sha1_blocks_portable(state, msg.data(), msg.size() / Sha1::kBlockSize);
  Bytes out(Sha1::kDigestSize);
  for (int i = 0; i < 5; ++i) store_be32(state[i], out.data() + 4 * i);
  return out;
}

TEST(Sha1, Fips180Vectors) {
  EXPECT_EQ(to_hex(Sha1::hash(to_bytes(""))),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(to_hex(Sha1::hash(to_bytes("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(to_hex(Sha1::hash(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  EXPECT_EQ(to_hex(Sha1::hash(to_bytes(
                "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"))),
            "a49b2446a02c645bf419f995b67091253a04a259");
}

TEST(Sha1, PortableCoreMatchesFips180Vectors) {
  EXPECT_EQ(to_hex(portable_digest(to_bytes(""))),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(to_hex(portable_digest(to_bytes("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(to_hex(portable_digest(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  EXPECT_EQ(to_hex(portable_digest(Bytes(1000000, 'a'))),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, MillionAs) {
  Sha1 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(to_bytes(chunk));
  EXPECT_EQ(to_hex(h.finish()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, StreamingEqualsOneShot) {
  DeterministicRng rng(1);
  Bytes data = rng.bytes(1000);
  for (std::size_t chunk : {1u, 7u, 63u, 64u, 65u, 128u, 999u}) {
    Sha1 h;
    for (std::size_t off = 0; off < data.size(); off += chunk) {
      std::size_t take = std::min(chunk, data.size() - off);
      h.update(ByteView(data).subspan(off, take));
    }
    EXPECT_EQ(h.finish(), Sha1::hash(data)) << "chunk=" << chunk;
  }
}

TEST(Sha1, BoundaryLengthsAroundBlockSize) {
  // Padding switches between one and two extra blocks at 56 bytes.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 127u}) {
    Bytes data(len, 0x5a);
    Sha1 a;
    a.update(data);
    EXPECT_EQ(a.finish(), Sha1::hash(data)) << "len=" << len;
  }
}

TEST(Sha1, ResetAllowsReuse) {
  Sha1 h;
  h.update(to_bytes("garbage"));
  h.reset();
  h.update(to_bytes("abc"));
  EXPECT_EQ(to_hex(h.finish()),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, UseAfterFinishThrows) {
  Sha1 h;
  h.update(to_bytes("x"));
  h.finish();
  EXPECT_THROW(h.update(to_bytes("y")), Error);
  EXPECT_THROW(h.finish(), Error);
}

TEST(Sha1, DifferentInputsDifferentDigests) {
  EXPECT_NE(Sha1::hash(to_bytes("a")), Sha1::hash(to_bytes("b")));
  EXPECT_NE(Sha1::hash(Bytes{0x00}), Sha1::hash(Bytes{}));
}

TEST(Sha1, EveryLengthTo300MatchesPortableCore) {
  DeterministicRng rng(180);
  const Bytes data = rng.bytes(300);
  for (std::size_t len = 0; len <= 300; ++len) {
    const ByteView msg = ByteView(data).first(len);
    EXPECT_EQ(Sha1::hash(msg), portable_digest(msg)) << "len=" << len;
  }
}

TEST(Sha1, RandomUpdateSplitsMatchPortableCore) {
  DeterministicRng rng(181);
  for (int trial = 0; trial < 200; ++trial) {
    const Bytes data = rng.bytes(rng.uniform(1200));
    Sha1 h;
    std::size_t off = 0;
    while (off < data.size()) {
      const std::size_t take =
          std::min<std::size_t>(rng.uniform(200), data.size() - off);
      h.update(ByteView(data).subspan(off, take));
      off += take;
    }
    EXPECT_EQ(h.finish(), portable_digest(data))
        << "trial=" << trial << " len=" << data.size();
  }
}

// Both compression cores on the same chaining state and blocks, compared
// after every call and carried across calls. Sha1 itself reaches only one
// core per host, so this is what keeps the other one tested.
TEST(Sha1Cores, ShaNiMatchesPortableBlockForBlock) {
  if (!accel::sha1_cpu_supported()) {
    GTEST_SKIP() << "no SHA-NI on this host";
  }
  DeterministicRng rng(182);
  std::uint32_t portable[5];
  std::uint32_t shani[5];
  std::memcpy(portable, kSha1Iv, sizeof portable);
  std::memcpy(shani, kSha1Iv, sizeof shani);
  for (int call = 0; call < 64; ++call) {
    const std::size_t n_blocks = static_cast<std::size_t>(call % 10);
    const Bytes blocks = rng.bytes(n_blocks * Sha1::kBlockSize);
    sha1_blocks_portable(portable, blocks.data(), n_blocks);
    accel::sha1_blocks(shani, blocks.data(), n_blocks);
    for (int i = 0; i < 5; ++i) {
      ASSERT_EQ(shani[i], portable[i])
          << "call=" << call << " n_blocks=" << n_blocks << " word=" << i;
    }
  }
  // An arbitrary starting state, not only the IV.
  for (std::uint32_t& w : portable) w = static_cast<std::uint32_t>(rng.next_u64());
  std::memcpy(shani, portable, sizeof shani);
  const Bytes blocks = rng.bytes(3 * Sha1::kBlockSize);
  sha1_blocks_portable(portable, blocks.data(), 3);
  accel::sha1_blocks(shani, blocks.data(), 3);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(shani[i], portable[i]) << "word=" << i;
}

// RFC 2202 HMAC-SHA1 test cases.
TEST(HmacSha1, Rfc2202Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(HmacSha1::mac(key, to_bytes("Hi There"))),
            "b617318655057264e28bc0b6fb378c8ef146be00");
}

TEST(HmacSha1, Rfc2202Case2) {
  EXPECT_EQ(to_hex(HmacSha1::mac(to_bytes("Jefe"),
                                 to_bytes("what do ya want for nothing?"))),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
}

TEST(HmacSha1, Rfc2202Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  EXPECT_EQ(to_hex(HmacSha1::mac(key, data)),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
}

TEST(HmacSha1, LongKeyIsHashedFirst) {
  // RFC 2202 case 6: 80-byte key exceeds the SHA-1 block size.
  Bytes key(80, 0xaa);
  EXPECT_EQ(to_hex(HmacSha1::mac(
                key, to_bytes("Test Using Larger Than Block-Size Key - "
                              "Hash Key First"))),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112");
}

TEST(HmacSha1, StreamingEqualsOneShot) {
  DeterministicRng rng(2);
  Bytes key = rng.bytes(16);
  Bytes data = rng.bytes(500);
  HmacSha1 h(key);
  h.update(ByteView(data).subspan(0, 100));
  h.update(ByteView(data).subspan(100));
  EXPECT_EQ(h.finish(), HmacSha1::mac(key, data));
}

TEST(HmacSha1, ResetRestartsWithSameKey) {
  Bytes key(20, 0x0b);
  HmacSha1 h(key);
  h.update(to_bytes("junk"));
  h.finish();
  h.reset();
  h.update(to_bytes("Hi There"));
  EXPECT_EQ(to_hex(h.finish()),
            "b617318655057264e28bc0b6fb378c8ef146be00");
}

TEST(HmacSha1, VerifyAcceptsAndRejects) {
  Bytes key = to_bytes("secret");
  Bytes msg = to_bytes("payload");
  Bytes tag = HmacSha1::mac(key, msg);
  EXPECT_TRUE(HmacSha1::verify(key, msg, tag));
  Bytes bad_tag = tag;
  bad_tag[0] ^= 1;
  EXPECT_FALSE(HmacSha1::verify(key, msg, bad_tag));
  EXPECT_FALSE(HmacSha1::verify(to_bytes("wrong"), msg, tag));
  EXPECT_FALSE(HmacSha1::verify(key, to_bytes("other"), tag));
  EXPECT_FALSE(HmacSha1::verify(key, msg, ByteView(tag).subspan(1)));
}

TEST(HmacSha1, KeySensitivity) {
  Bytes msg = to_bytes("same message");
  EXPECT_NE(HmacSha1::mac(to_bytes("k1"), msg),
            HmacSha1::mac(to_bytes("k2"), msg));
}

}  // namespace
}  // namespace omadrm::crypto
