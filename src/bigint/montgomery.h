// Montgomery modular arithmetic for odd moduli.
//
// The paper's hardware RSA numbers come from a Montgomery-multiplier design
// (McIvor et al., Asilomar 2003); the software path here uses the same
// mathematics: CIOS (coarsely integrated operand scanning) multiplication
// and a fixed 4-bit-window exponentiation. This is what makes real
// RSA-1024 operations cheap enough to run thousands of times in the test
// suite and benchmarks.
//
// Internally the context computes on 64-bit words, and every multiply and
// exponentiation runs on fixed-capacity stack scratch: after the BigInt
// conversion at the call boundary nothing touches the heap. The multiply
// kernel is chosen once per context from the modulus width and a one-time
// cpuid test: 8- and 16-word moduli (512-bit CRT halves, 1024-bit keys)
// run on the MULX/ADX row kernel of bigint/mont_accel.h when the CPU has
// it, everything else on mont_mul_portable below. Both give identical
// results.
//
// Exponentiation by a long exponent is constant-time with respect to the
// exponent: the window count comes from the modulus length, every window
// multiplies (by R mod m for a zero window), the table lookup reads all
// 2^w entries under a mask, and the final subtraction of every product is
// branch-free. Exponents of at most kPlainExpBits bits (RSA public
// exponents) take a short square-and-multiply path instead.
//
// Contexts are expensive to build (R^2 mod m needs a full division) and
// cheap to reuse; see mont_cache.h for the process-wide keyed cache that
// amortizes construction across repeated operations on the same modulus.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bigint/bigint.h"

namespace omadrm::bigint {

/// Widest modulus a MontgomeryCtx accepts, in 64-bit words (8192 bits).
/// It sizes the stack scratch of every multiply and exponentiation.
inline constexpr std::size_t kMontMaxWords = 128;

/// Runtime-width CIOS Montgomery product on 64-bit words:
/// r = a * b * 2^(-64 n) mod m, for a, b < m, odd m of n words
/// (1 <= n <= kMontMaxWords) and m_prime = -m^-1 mod 2^64. Fully reduced;
/// r may alias a or b. Data-independent timing.
void mont_mul_portable(std::uint64_t* r, const std::uint64_t* a,
                       const std::uint64_t* b, const std::uint64_t* m,
                       std::uint64_t m_prime, std::size_t n);

/// r = t - m if top * 2^(64 n) + t >= m, else t, for a value below 2m;
/// branch-free; r must not alias t. The final step of every Montgomery
/// product.
void mont_reduce_once(std::uint64_t* r, const std::uint64_t* t,
                      std::uint64_t top, const std::uint64_t* m,
                      std::size_t n);

/// Little-endian 64-bit word import of a non-negative BigInt into
/// `n` words (zero-padded; higher words are dropped).
void to_words(const BigInt& v, std::uint64_t* out, std::size_t n);

/// The inverse of to_words.
BigInt from_words(const std::uint64_t* w, std::size_t n);

class MontgomeryCtx {
 public:
  /// Window width of the fixed-window exponentiation.
  static constexpr std::size_t kWindowBits = 4;

  /// Exponents at or below this bit length skip the window table and use
  /// plain left-to-right square-and-multiply: for the ubiquitous RSA
  /// public exponent 65537 (17 bits) that is 16 squarings + 1 multiply
  /// instead of 14 table multiplies + 20 squarings.
  static constexpr std::size_t kPlainExpBits = 24;

  /// Prepares a context for the odd modulus `m` of at most kMontMaxWords
  /// words (throws kCrypto otherwise).
  explicit MontgomeryCtx(const BigInt& m);

  /// base^exp mod m. `base` must already be reduced mod m.
  BigInt mod_exp(const BigInt& base, const BigInt& exp) const;

  /// Montgomery product: a * b * R^-1 mod m, on reduced operands.
  BigInt mont_mul(const BigInt& a, const BigInt& b) const;

  /// Conversion into / out of Montgomery form.
  BigInt to_mont(const BigInt& a) const;
  BigInt from_mont(const BigInt& a) const;

  const BigInt& modulus() const { return m_; }

  /// 1 in Montgomery form (R mod m) — the exponentiation identity.
  const BigInt& mont_one() const { return one_mont_; }

  // -- word interface ------------------------------------------------------
  // Operands are words() little-endian 64-bit words unless stated; none of
  // these allocate. Outputs may alias inputs.

  /// Word count of the modulus; R = 2^(64 words()).
  std::size_t words() const { return nw_; }

  /// r = a * b * R^-1 mod m, for a, b < m.
  void mul(std::uint64_t* r, const std::uint64_t* a,
           const std::uint64_t* b) const;

  /// r = a - b mod m, for a, b < m.
  void sub(std::uint64_t* r, const std::uint64_t* a,
           const std::uint64_t* b) const;

  /// r = x mod m for an `xw`-word x < m * R (xw <= 2 words()): one REDC
  /// and one multiply, no division.
  void reduce(std::uint64_t* r, const std::uint64_t* x, std::size_t xw) const;

  /// r = x^exp mod m for an `xw`-word x < m * R, as reduce().
  void mod_exp(std::uint64_t* r, const std::uint64_t* x, std::size_t xw,
               const BigInt& exp) const;

 private:
  enum class Kernel : std::uint8_t { kPortable, kAdx8, kAdx16 };

  // r = REDC(x) * k * R^-1: x * R^-1 mod m by one multiply by 1 plus the
  // high half, then one multiply by the constant k.
  void redc_mul(std::uint64_t* r, const std::uint64_t* x, std::size_t xw,
                const std::uint64_t* k) const;

  BigInt m_;
  std::size_t nw_;                 // 64-bit word count of the modulus
  std::size_t bits_;               // bit length of the modulus
  Kernel kernel_;
  std::uint64_t m_prime_;          // -m^-1 mod 2^64
  std::vector<std::uint64_t> mw_;  // modulus
  std::vector<std::uint64_t> r2_;  // R^2 mod m
  std::vector<std::uint64_t> r3_;  // R^3 mod m
  std::vector<std::uint64_t> one_mont_w_;  // R mod m
  std::vector<std::uint64_t> one_;         // plain 1
  BigInt one_mont_;                // R mod m as a BigInt, for mont_one()
};

}  // namespace omadrm::bigint
