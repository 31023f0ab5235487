// Tests for the DCF container format and the zero-copy DcfReader.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.h"
#include "common/random.h"
#include "crypto/sha1.h"
#include "dcf/dcf.h"
#include "dcf/dcf_reader.h"

namespace omadrm::dcf {
namespace {

using omadrm::DeterministicRng;
using omadrm::Error;

Headers sample_headers() {
  Headers h;
  h.content_type = "audio/mpeg";
  h.content_id = "cid:track-1@example.com";
  h.rights_issuer_url = "http://ri.example.com/roap";
  h.textual = {{"Title", "Song"}, {"Author", "Artist & Friends"}};
  return h;
}

bool same_bytes(ByteView a, ByteView b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

/// Every field the reader decoded equals the one `d` was built from.
void expect_fields_match(const DcfReader& r, const Dcf& d) {
  EXPECT_EQ(r.content_type(), d.headers().content_type);
  EXPECT_EQ(r.content_id(), d.headers().content_id);
  EXPECT_EQ(r.rights_issuer_url(), d.headers().rights_issuer_url);
  ASSERT_EQ(r.textual().size(), d.headers().textual.size());
  for (std::size_t i = 0; i < r.textual().size(); ++i) {
    EXPECT_EQ(r.textual()[i].first, d.headers().textual[i].first);
    EXPECT_EQ(r.textual()[i].second, d.headers().textual[i].second);
  }
  EXPECT_TRUE(same_bytes(r.iv(), d.iv()));
  EXPECT_TRUE(same_bytes(r.encrypted_payload(), d.encrypted_payload()));
  EXPECT_EQ(r.plaintext_size(), d.plaintext_size());
}

/// An owned container rebuilt from the reader's views via the Dcf
/// constructor, for callers that outlive the wire buffer.
Dcf owned_copy(const DcfReader& r) {
  Headers h;
  h.content_type = std::string(r.content_type());
  h.content_id = std::string(r.content_id());
  h.rights_issuer_url = std::string(r.rights_issuer_url());
  for (const auto& [k, v] : r.textual()) {
    h.textual.emplace_back(std::string(k), std::string(v));
  }
  return Dcf(std::move(h), Bytes(r.iv().begin(), r.iv().end()),
             Bytes(r.encrypted_payload().begin(), r.encrypted_payload().end()),
             r.plaintext_size());
}

TEST(Dcf, MakeAndDecrypt) {
  DeterministicRng rng(1);
  Bytes content = rng.bytes(1000);
  Bytes kcek = rng.bytes(16);
  Bytes iv = rng.bytes(16);
  Dcf d = make_dcf(sample_headers(), content, kcek, iv);
  EXPECT_EQ(d.plaintext_size(), 1000u);
  EXPECT_NE(d.encrypted_payload(), content);
  EXPECT_EQ(decrypt_dcf(d, kcek), content);
}

TEST(Dcf, SerializeParseRoundTrip) {
  DeterministicRng rng(2);
  Bytes content = rng.bytes(333);
  Dcf d = make_dcf(sample_headers(), content, rng.bytes(16), rng.bytes(16));
  Bytes wire = d.serialize();
  DcfReader back = DcfReader::parse(wire);
  expect_fields_match(back, d);
  EXPECT_EQ(back.content_type(), "audio/mpeg");
  EXPECT_EQ(back.textual().size(), 2u);
  EXPECT_EQ(owned_copy(back).serialize(), wire);
}

TEST(Dcf, EmptyContentSupported) {
  DeterministicRng rng(3);
  Dcf d = make_dcf(sample_headers(), Bytes{}, rng.bytes(16), rng.bytes(16));
  EXPECT_EQ(d.plaintext_size(), 0u);
  EXPECT_EQ(d.encrypted_payload().size(), 16u);  // one padding block
  const Bytes wire = d.serialize();
  expect_fields_match(DcfReader::parse(wire), d);
}

TEST(Dcf, HashIsStableAndTamperSensitive) {
  DeterministicRng rng(4);
  Bytes content = rng.bytes(5000);
  Dcf d = make_dcf(sample_headers(), content, rng.bytes(16), rng.bytes(16));
  Bytes h1 = d.hash();
  EXPECT_EQ(h1.size(), crypto::Sha1::kDigestSize);
  EXPECT_EQ(d.hash(), h1);

  // Any change to the serialized container changes the hash.
  Bytes wire = d.serialize();
  wire[wire.size() / 2] ^= 1;
  DcfReader tampered = DcfReader::parse(wire);
  EXPECT_FALSE(same_bytes(tampered.hash(), h1));
}

TEST(Dcf, WrongKeyFailsDecrypt) {
  DeterministicRng rng(5);
  Bytes content = rng.bytes(100);
  Bytes kcek = rng.bytes(16);
  Dcf d = make_dcf(sample_headers(), content, kcek, rng.bytes(16));
  Bytes wrong = rng.bytes(16);
  EXPECT_THROW(
      {
        Bytes out = decrypt_dcf(d, wrong);
        if (out == content) throw Error(ErrorKind::kFormat, "impossible");
      },
      Error);
}

TEST(Dcf, ParseRejectsCorruption) {
  DeterministicRng rng(6);
  Dcf d = make_dcf(sample_headers(), rng.bytes(50), rng.bytes(16),
                   rng.bytes(16));
  Bytes wire = d.serialize();

  Bytes bad_magic = wire;
  bad_magic[0] = 'X';
  EXPECT_THROW(DcfReader::parse(bad_magic), Error);

  Bytes bad_version = wire;
  bad_version[4] = 9;
  EXPECT_THROW(DcfReader::parse(bad_version), Error);

  Bytes truncated(wire.begin(), wire.end() - 3);
  EXPECT_THROW(DcfReader::parse(truncated), Error);

  Bytes trailing = wire;
  trailing.push_back(0);
  EXPECT_THROW(DcfReader::parse(trailing), Error);

  EXPECT_THROW(DcfReader::parse(Bytes{}), Error);
}

TEST(Dcf, RejectsBadIvLength) {
  EXPECT_THROW(Dcf(sample_headers(), Bytes(8, 0), Bytes(16, 0), 0), Error);
}

TEST(Dcf, SerializedSizeMatchesSerialize) {
  DeterministicRng rng(7);
  Dcf d = make_dcf(sample_headers(), rng.bytes(777), rng.bytes(16),
                   rng.bytes(16));
  EXPECT_EQ(d.serialized_size(), d.serialize().size());
  Dcf empty = make_dcf(Headers{}, Bytes{}, rng.bytes(16), rng.bytes(16));
  EXPECT_EQ(empty.serialized_size(), empty.serialize().size());
}

TEST(DcfReader, ViewsMatchTheBuiltContainer) {
  DeterministicRng rng(8);
  Dcf d = make_dcf(sample_headers(), rng.bytes(4096), rng.bytes(16),
                   rng.bytes(16));
  const Bytes wire = d.serialize();
  DcfReader r = DcfReader::parse(wire);
  expect_fields_match(r, d);

  // The views alias the wire buffer — zero copies of the payload.
  EXPECT_GE(reinterpret_cast<const std::uint8_t*>(r.content_type().data()),
            wire.data());
  EXPECT_EQ(r.encrypted_payload().data(),
            wire.data() + wire.size() - r.encrypted_payload().size());

  // The one-pass hash equals the serialize-then-hash value.
  EXPECT_TRUE(same_bytes(r.hash(), d.hash()));

  // An owned copy outlives the buffer and hashes the same.
  EXPECT_EQ(owned_copy(r).hash(), d.hash());
}

class DcfSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DcfSizeSweep, RoundTripAcrossSizes) {
  DeterministicRng rng(GetParam());
  Bytes content = rng.bytes(GetParam());
  Bytes kcek = rng.bytes(16);
  Dcf d = make_dcf(sample_headers(), content, kcek, rng.bytes(16));
  const Bytes wire = d.serialize();
  Dcf back = owned_copy(DcfReader::parse(wire));
  EXPECT_EQ(decrypt_dcf(back, kcek), content);
  // Ciphertext is plaintext rounded up to the next whole block.
  EXPECT_EQ(back.encrypted_payload().size(), (GetParam() / 16 + 1) * 16);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DcfSizeSweep,
                         ::testing::Values(1, 15, 16, 17, 1024, 30 * 1024,
                                           100000));

}  // namespace
}  // namespace omadrm::dcf
