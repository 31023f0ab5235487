#include "bigint/mont_accel.h"

#include "bigint/montgomery.h"

// The kernels are GNU inline assembly for x86-64; everywhere else the
// guard below turns the unit into stubs, and mont_cpu_supported()
// reporting false keeps them unreachable.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define OMADRM_MULX 1
#include <cpuid.h>
#endif

namespace omadrm::bigint::accel {

#ifdef OMADRM_MULX

bool mont_cpu_supported() {
  static const bool ok = [] {
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
    return (b & (1u << 8)) != 0     // CPUID.(EAX=7,ECX=0):EBX.BMI2
           && (b & (1u << 19)) != 0;  // CPUID.(EAX=7,ECX=0):EBX.ADX
  }();
  return ok;
}

namespace {

// One column of a row w[0..N+1] += x * y[0..N-1], x in RDX: the low half
// of x*y[j] joins w[j] on the CF chain (ADCX) while the high half joins
// w[j+1] on the OF chain (ADOX). `A` holds w[j] on entry and is stored;
// `H` leaves holding w[j+1], so the two registers swap roles each column.
#define OMADRM_COL(Y, j, A, H)                     \
  "mulx 8*" #j "(%[" #Y "]), %%r8, %%" #H "\n\t"   \
  "adcx %%r8, %%" #A "\n\t"                        \
  "mov %%" #A ", 8*" #j "(%[w])\n\t"               \
  "adox 8*" #j "+8(%[w]), %%" #H "\n\t"
#define OMADRM_COL2(Y, j, k) \
  OMADRM_COL(Y, j, r9, r10) OMADRM_COL(Y, k, r10, r9)
#define OMADRM_COLS8(Y)                                                \
  OMADRM_COL2(Y, 0, 1) OMADRM_COL2(Y, 2, 3) OMADRM_COL2(Y, 4, 5) \
  OMADRM_COL2(Y, 6, 7)
#define OMADRM_COLS16(Y)                                                  \
  OMADRM_COLS8(Y) OMADRM_COL2(Y, 8, 9) OMADRM_COL2(Y, 10, 11)             \
  OMADRM_COL2(Y, 12, 13) OMADRM_COL2(Y, 14, 15)

// XOR clears both carry flags; the accumulator starts as w[0].
#define OMADRM_ROW_BEGIN "xor %%r8d, %%r8d\n\tmov (%[w]), %%r9\n\t"

// After the last column r9 holds w[N] + high half + OF. Fold the pending
// CF into it, then both pending carries into w[N+1], which `TOP` loads
// (the multiply row starts it at zero, the reduction row adds to it).
// MOV leaves the flags alone, so the chains survive the stores.
#define OMADRM_ROW_END(N, TOP)                                   \
  "mov $0, %%r8d\n\t"                                            \
  "adcx %%r8, %%r9\n\t"                                          \
  "mov %%r9, 8*" #N "(%[w])\n\t" TOP                             \
  "adcx %%r8, %%r9\n\t"                                          \
  "adox %%r8, %%r9\n\t"                                          \
  "mov %%r9, 8*" #N "+8(%[w])\n\t"

// One CIOS iteration on the window w = t + i: w += a[i] * b, then
// u = w[0] * m' and w += u * m, which zeroes w[0]. The next iteration's
// window starts one word higher, so nothing is shifted.
#define OMADRM_CIOS_STEP(N, COLS)                                      \
  OMADRM_ROW_BEGIN COLS(b) OMADRM_ROW_END(N, "mov %%r8, %%r9\n\t")     \
  "mov (%[w]), %%rdx\n\t"                                              \
  "imul %[mp], %%rdx\n\t"                                              \
  OMADRM_ROW_BEGIN COLS(m)                                             \
  OMADRM_ROW_END(N, "mov 8*" #N "+8(%[w]), %%r9\n\t")

template <int N>
void mont_mul_adx(std::uint64_t* r, const std::uint64_t* a,
                  const std::uint64_t* b, const std::uint64_t* m,
                  std::uint64_t m_prime) {
  // Word i + N + 1 is first written (not accumulated) by iteration i, so
  // only the first window needs clearing.
  std::uint64_t t[2 * N + 1];
  for (int j = 0; j <= N; ++j) t[j] = 0;
  for (int i = 0; i < N; ++i) {
    std::uint64_t* w = t + i;
    std::uint64_t x = a[i];
    if constexpr (N == 8) {
      asm volatile(OMADRM_CIOS_STEP(8, OMADRM_COLS8)
                   : "+d"(x)
                   : [w] "r"(w), [b] "r"(b), [m] "r"(m), [mp] "r"(m_prime)
                   : "r8", "r9", "r10", "cc", "memory");
    } else {
      static_assert(N == 16);
      asm volatile(OMADRM_CIOS_STEP(16, OMADRM_COLS16)
                   : "+d"(x)
                   : [w] "r"(w), [b] "r"(b), [m] "r"(m), [mp] "r"(m_prime)
                   : "r8", "r9", "r10", "cc", "memory");
    }
  }
  // t[N..2N] < 2m: one branch-free conditional subtraction.
  mont_reduce_once(r, t + N, t[2 * N], m, N);
}

}  // namespace

void mont_mul8(std::uint64_t* r, const std::uint64_t* a,
               const std::uint64_t* b, const std::uint64_t* m,
               std::uint64_t m_prime) {
  mont_mul_adx<8>(r, a, b, m, m_prime);
}

void mont_mul16(std::uint64_t* r, const std::uint64_t* a,
                const std::uint64_t* b, const std::uint64_t* m,
                std::uint64_t m_prime) {
  mont_mul_adx<16>(r, a, b, m, m_prime);
}

#else  // !OMADRM_MULX — stubs, never reached at runtime.

bool mont_cpu_supported() { return false; }

void mont_mul8(std::uint64_t*, const std::uint64_t*, const std::uint64_t*,
               const std::uint64_t*, std::uint64_t) {}

void mont_mul16(std::uint64_t*, const std::uint64_t*, const std::uint64_t*,
                const std::uint64_t*, std::uint64_t) {}

#endif

}  // namespace omadrm::bigint::accel
