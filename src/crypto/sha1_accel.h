// Hardware-accelerated SHA-1 compression (x86 SHA-NI), runtime-detected.
//
// Table 1 of the paper prices SHA-1 alongside AES and RSA as a function a
// terminal hands to dedicated hardware, and on the content path it is the
// DCF integrity hash over the whole container that dominates once AES runs
// on its engine. On hosts with the SHA extensions, Sha1::update sends every
// run of whole blocks here; hosts without them — or non-x86 builds, where
// this translation unit compiles to stubs — keep the portable core
// (sha1_blocks_portable in crypto/sha1.h) with identical digests.
//
// This file's implementation is compiled with -msha -mssse3 -msse4.1 (see
// CMakeLists); nothing here may be called unless sha1_cpu_supported()
// returned true.
#pragma once

#include <cstddef>
#include <cstdint>

namespace omadrm::crypto::accel {

/// True when the host CPU exposes SHA-NI (CPUID leaf 7 EBX bit 29) plus
/// the SSSE3/SSE4.1 the core also uses, and the instructions were
/// compiled in. Cached after the first query.
bool sha1_cpu_supported();

/// Compresses `n_blocks` whole 64-byte blocks into `state` (H0..H4 in
/// FIPS 180 order). The chaining value stays in registers across blocks.
void sha1_blocks(std::uint32_t state[5], const std::uint8_t* data,
                 std::size_t n_blocks);

}  // namespace omadrm::crypto::accel
