// SHA-1 (FIPS 180-1) — the hash function mandated by OMA DRM 2 for DCF
// integrity, signatures (via EMSA-PSS), HMAC, and KDF2.
//
// Streaming interface so multi-megabyte DCFs can be hashed without
// buffering; a one-shot helper covers the common case.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/bytes.h"

namespace omadrm::crypto {

class Sha1 {
 public:
  static constexpr std::size_t kDigestSize = 20;
  static constexpr std::size_t kBlockSize = 64;

  Sha1();

  /// Absorbs more input.
  void update(ByteView data);

  /// Finalizes and returns the 20-byte digest. The object must be reset()
  /// before reuse.
  Bytes finish();

  /// Finalizes into a caller-owned 20-byte buffer — the allocation-free
  /// variant the streaming content path (DcfReader, AES context
  /// fingerprints) uses.
  void finish_into(std::uint8_t out[kDigestSize]);

  /// Returns the object to its initial state.
  void reset();

  /// One-shot convenience.
  static Bytes hash(ByteView data);

 private:
  std::array<std::uint32_t, 5> state_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finished_ = false;
};

/// The portable compression core: folds `n_blocks` whole 64-byte blocks
/// into `state` (H0..H4). Sha1 runs it on hosts without SHA-NI; it shares
/// its signature with accel::sha1_blocks so tests can compare the two
/// cores block for block.
void sha1_blocks_portable(std::uint32_t state[5], const std::uint8_t* data,
                          std::size_t n_blocks);

}  // namespace omadrm::crypto
