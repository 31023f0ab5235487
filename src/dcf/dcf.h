// DCF — the DRM Content Format.
//
// The Content Issuer packages digital content into a DCF: descriptive
// headers in clear (content type, ContentID, the RightsIssuerURL the user
// visits to buy a license, plus free-form textual headers like title and
// author) and the content itself encrypted under the Content Encryption
// Key K_CEK with AES-128-CBC. The serialized container is the unit the
// Rights Object binds to: the RO carries SHA-1(DCF), and the DRM Agent
// recomputes that hash on every access (paper §2.4.4 step 3).
//
// Binary layout (all integers big-endian):
//   magic "ODCF" | version u8 (=2) | content_type | content_id |
//   rights_issuer_url | u16 header count | (key, value)* |
//   iv (16 bytes) | u64 plaintext size | u32 payload size | payload
// where every string is u16-length-prefixed UTF-8.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"

namespace omadrm::dcf {

struct Headers {
  std::string content_type;       // e.g. "audio/mpeg"
  std::string content_id;         // e.g. "cid:track-42@content.example"
  std::string rights_issuer_url;  // where to acquire an RO
  std::vector<std::pair<std::string, std::string>> textual;
};

/// The Content Issuer's side of the format: builds, serializes and
/// hashes a container. Reading one back is DcfReader's job (dcf_reader.h).
class Dcf {
 public:
  Dcf() = default;
  Dcf(Headers headers, Bytes iv, Bytes encrypted_payload,
      std::uint64_t plaintext_size);

  const Headers& headers() const { return headers_; }
  const Bytes& iv() const { return iv_; }
  const Bytes& encrypted_payload() const { return payload_; }
  std::uint64_t plaintext_size() const { return plaintext_size_; }

  /// Canonical serialized container.
  Bytes serialize() const;
  /// serialize()'s output size, computed without serializing.
  std::size_t serialized_size() const;

  /// SHA-1 over the serialized container — the value embedded in Rights
  /// Objects to bind license and content. Computed lazily on first call
  /// and cached (the container is immutable once constructed), so
  /// per-access integrity checks stop re-serializing multi-megabyte
  /// payloads. Not thread-safe, like the rest of the class.
  const Bytes& hash() const;

 private:
  Headers headers_;
  Bytes iv_;
  Bytes payload_;
  std::uint64_t plaintext_size_ = 0;
  mutable Bytes hash_cache_;  // empty until the first hash() call
};

/// Encrypts `plaintext` under `kcek` (16 bytes) and wraps it in a DCF.
Dcf make_dcf(Headers headers, ByteView plaintext, ByteView kcek, ByteView iv);

/// Decrypts the payload with `kcek`; validates the recorded plaintext size.
Bytes decrypt_dcf(const Dcf& dcf, ByteView kcek);

}  // namespace omadrm::dcf
