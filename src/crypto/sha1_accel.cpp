#include "crypto/sha1_accel.h"

// Compiled with -msha -mssse3 -msse4.1 on x86 targets whose compiler
// accepts the flags (see CMakeLists). Everywhere else the guard below turns
// the whole unit into stubs, and sha1_cpu_supported() reporting false keeps
// them unreachable.
#if defined(__SHA__) && defined(__SSSE3__) && defined(__SSE4_1__) && \
    (defined(__x86_64__) || defined(__i386__))
#define OMADRM_SHANI 1
#include <cpuid.h>
#include <immintrin.h>

#include <utility>
#endif

namespace omadrm::crypto::accel {

#ifdef OMADRM_SHANI

bool sha1_cpu_supported() {
  // <cpuid.h> rather than __builtin_cpu_supports("sha"): not every GCC
  // and Clang release knows that feature name.
  static const bool ok = [] {
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
    const bool sse = (c & bit_SSSE3) && (c & bit_SSE4_1);
    if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
    return sse && (b & (1u << 29)) != 0;  // CPUID.(EAX=7,ECX=0):EBX.SHA
  }();
  return ok;
}

namespace {

// Rounds 4i .. 4i+3. ABCD sits in one register (A in the top lane); E
// alternates between e[0] and e[1] because SHA1NEXTE derives the next
// group's E from the A of four rounds earlier. The message schedule runs
// ahead of the rounds: group i completes W for group i+1 (SHA1MSG2),
// folds its words into group i+2's (XOR) and starts group i+3's
// (SHA1MSG1), so each of the four message registers is refilled in turn.
template <int I>
inline void four_rounds(__m128i& abcd, __m128i (&e)[2], __m128i (&m)[4],
                        const std::uint8_t* block, __m128i bswap) {
  if constexpr (I < 4) {
    m[I] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * I)),
        bswap);
  }
  __m128i& cur = e[I & 1];
  if constexpr (I == 0) {
    cur = _mm_add_epi32(cur, m[0]);
  } else {
    cur = _mm_sha1nexte_epu32(cur, m[I & 3]);
  }
  e[(I + 1) & 1] = abcd;
  if constexpr (I >= 3 && I <= 18) {
    m[(I + 1) & 3] = _mm_sha1msg2_epu32(m[(I + 1) & 3], m[I & 3]);
  }
  abcd = _mm_sha1rnds4_epu32(abcd, cur, I / 5);
  if constexpr (I >= 1 && I <= 16) {
    m[(I + 3) & 3] = _mm_sha1msg1_epu32(m[(I + 3) & 3], m[I & 3]);
  }
  if constexpr (I >= 2 && I <= 17) {
    m[(I + 2) & 3] = _mm_xor_si128(m[(I + 2) & 3], m[I & 3]);
  }
}

}  // namespace

void sha1_blocks(std::uint32_t state[5], const std::uint8_t* data,
                 std::size_t n_blocks) {
  // Big-endian message words, and ABCD reversed so A is the top lane.
  const __m128i bswap =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1b);
  __m128i e[2] = {_mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0),
                  _mm_setzero_si128()};
  __m128i m[4] = {};
  for (; n_blocks > 0; --n_blocks, data += 64) {
    const __m128i abcd_save = abcd;
    const __m128i e_save = e[0];
    [&]<int... I>(std::integer_sequence<int, I...>) {
      (four_rounds<I>(abcd, e, m, data, bswap), ...);
    }(std::make_integer_sequence<int, 20>{});
    // Round 79 left the A of round 76 in e[0]: rotating it gives E.
    e[0] = _mm_sha1nexte_epu32(e[0], e_save);
    abcd = _mm_add_epi32(abcd, abcd_save);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_shuffle_epi32(abcd, 0x1b));
  state[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e[0], 3));
}

#else  // !OMADRM_SHANI — portable stubs, never reached at runtime.

bool sha1_cpu_supported() { return false; }

void sha1_blocks(std::uint32_t*, const std::uint8_t*, std::size_t) {}

#endif

}  // namespace omadrm::crypto::accel
