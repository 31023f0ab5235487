// Montgomery multiplication on the x86-64 multiply-with-carry extensions
// (BMI2 MULX, ADX ADCX/ADOX), runtime-detected.
//
// Table 1 of the paper prices the RSA-1024 private-key operation as the
// terminal's dominant crypto cost and argues for a dedicated multiplier
// macro. On a general-purpose x86-64 core the nearest thing is MULX (a
// flag-free 64x64->128 multiply) plus ADCX/ADOX (two independent carry
// chains): one row of a Montgomery product then runs its low-half and
// high-half accumulations in parallel instead of serialising every word
// through one carry flag. MontgomeryCtx sends 8-word (512-bit CRT
// halves) and 16-word (1024-bit moduli) products here when
// mont_cpu_supported() is true; every other width, every other CPU and
// every non-x86-64 build, where this unit compiles to stubs, keeps the
// portable core (mont_mul_portable in bigint/montgomery.h) with identical
// results.
//
// The kernels are inline assembly, so this unit needs no special compiler
// flags; nothing here may be called unless mont_cpu_supported() returned
// true.
#pragma once

#include <cstdint>

namespace omadrm::bigint::accel {

/// True when the host CPU exposes BMI2 and ADX (CPUID leaf 7 EBX bits 8
/// and 19) and the kernels were compiled in. Cached after the first query.
bool mont_cpu_supported();

/// r = a * b * 2^-512 mod m for 8-word operands a, b < m, odd m, and
/// m_prime = -m^-1 mod 2^64. The result is fully reduced; r may alias a
/// or b. Data-independent timing.
void mont_mul8(std::uint64_t* r, const std::uint64_t* a,
               const std::uint64_t* b, const std::uint64_t* m,
               std::uint64_t m_prime);

/// The same for 16-word operands (R = 2^1024).
void mont_mul16(std::uint64_t* r, const std::uint64_t* a,
                const std::uint64_t* b, const std::uint64_t* m,
                std::uint64_t m_prime);

}  // namespace omadrm::bigint::accel
