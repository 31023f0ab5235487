// DcfReader — zero-copy access to a serialized DCF container, and the
// format's only decoder.
//
// A player opens the same, potentially multi-megabyte, container on
// every access, so copying it into owned buffers, or re-serializing it
// to hash it, is the wrong shape. DcfReader walks the serialized bytes
// once: headers come out as string_views aliasing the wire, the IV and the
// encrypted payload as ByteViews, and SHA-1 over the container — the
// value a Rights Object binds to — falls out of the same pass through the
// incremental Sha1 API. No re-serialization, no payload copy, ever.
//
// The reader *borrows* `wire`: the buffer must stay alive and unmodified
// for the reader's lifetime, and for the lifetime of any ContentSession
// the DRM agent opens over it.
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "crypto/sha1.h"
#include "dcf/dcf.h"

namespace omadrm::dcf {

class DcfReader {
 public:
  /// Parses a serialized container in place. Throws omadrm::Error(kFormat)
  /// on malformed input: bad magic or version, a length running past the
  /// end, or bytes left over after the payload.
  static DcfReader parse(ByteView wire);

  std::string_view content_type() const { return content_type_; }
  std::string_view content_id() const { return content_id_; }
  std::string_view rights_issuer_url() const { return rights_issuer_url_; }
  const std::vector<std::pair<std::string_view, std::string_view>>& textual()
      const {
    return textual_;
  }

  ByteView iv() const { return iv_; }
  ByteView encrypted_payload() const { return payload_; }
  std::uint64_t plaintext_size() const { return plaintext_size_; }

  /// The borrowed serialized container.
  ByteView wire() const { return wire_; }

  /// SHA-1 over the container bytes — identical to Dcf::hash(), computed
  /// once during parse.
  ByteView hash() const { return ByteView(hash_, crypto::Sha1::kDigestSize); }

 private:
  DcfReader() = default;

  ByteView wire_;
  std::string_view content_type_;
  std::string_view content_id_;
  std::string_view rights_issuer_url_;
  std::vector<std::pair<std::string_view, std::string_view>> textual_;
  ByteView iv_;
  ByteView payload_;
  std::uint64_t plaintext_size_ = 0;
  std::uint8_t hash_[crypto::Sha1::kDigestSize] = {};
};

}  // namespace omadrm::dcf
