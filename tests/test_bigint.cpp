// Unit + property tests for the multiprecision integer substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/mont_accel.h"
#include "bigint/montgomery.h"
#include "bigint/prime.h"
#include "common/error.h"
#include "common/hex.h"
#include "common/random.h"

namespace omadrm::bigint {
namespace {

using omadrm::DeterministicRng;
using omadrm::Error;

TEST(BigIntBasics, ZeroProperties) {
  BigInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_FALSE(z.is_negative());
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z.to_hex(), "0");
  EXPECT_EQ(z.to_dec(), "0");
  EXPECT_EQ(z + z, z);
  EXPECT_EQ(z * BigInt(123), z);
}

TEST(BigIntBasics, FromU64) {
  BigInt v(std::uint64_t{0x1122334455667788ull});
  EXPECT_EQ(v.to_hex(), "1122334455667788");
  EXPECT_EQ(v.to_u64(), 0x1122334455667788ull);
  EXPECT_EQ(v.bit_length(), 61u);
}

TEST(BigIntBasics, DecimalParseAndPrint) {
  BigInt v(std::string_view("123456789012345678901234567890"));
  EXPECT_EQ(v.to_dec(), "123456789012345678901234567890");
  BigInt neg(std::string_view("-42"));
  EXPECT_TRUE(neg.is_negative());
  EXPECT_EQ(neg.to_dec(), "-42");
}

TEST(BigIntBasics, HexParse) {
  BigInt v(std::string_view("0xDeadBeefCafeBabe"));
  EXPECT_EQ(v.to_hex(), "deadbeefcafebabe");
  EXPECT_THROW(BigInt(std::string_view("0x")), Error);
  EXPECT_THROW(BigInt(std::string_view("12a")), Error);
  EXPECT_THROW(BigInt(std::string_view("")), Error);
}

TEST(BigIntBasics, ByteRoundTrip) {
  Bytes raw = from_hex("00ff10203040506070");
  BigInt v = BigInt::from_bytes_be(raw);
  EXPECT_EQ(v.to_hex(), "ff10203040506070");
  EXPECT_EQ(v.to_bytes_be(9), raw);
  EXPECT_EQ(BigInt::from_bytes_be({}).to_hex(), "0");
}

TEST(BigIntBasics, ToBytesPadsToMinLen) {
  BigInt v(std::uint64_t{0xabcd});
  Bytes b = v.to_bytes_be(4);
  EXPECT_EQ(to_hex(b), "0000abcd");
  EXPECT_EQ(to_hex(BigInt{}.to_bytes_be(2)), "0000");
}

TEST(BigIntCompare, Ordering) {
  BigInt a(5), b(7), c(-3);
  EXPECT_LT(a, b);
  EXPECT_GT(a, c);
  EXPECT_LT(c, BigInt{});
  EXPECT_EQ(BigInt(7), b);
  EXPECT_LT(BigInt(-9), c);
}

TEST(BigIntArith, SignedAddSub) {
  BigInt a(100), b(-30);
  EXPECT_EQ((a + b).to_dec(), "70");
  EXPECT_EQ((b + a).to_dec(), "70");
  EXPECT_EQ((b - a).to_dec(), "-130");
  EXPECT_EQ((a - a).to_dec(), "0");
  EXPECT_EQ((-a).to_dec(), "-100");
}

TEST(BigIntArith, CarriesPropagate) {
  BigInt a(std::string_view("0xffffffffffffffffffffffffffffffff"));
  BigInt one(1);
  EXPECT_EQ((a + one).to_hex(), "100000000000000000000000000000000");
  EXPECT_EQ((a + one - one).to_hex(), a.to_hex());
}

TEST(BigIntArith, MultiplySmall) {
  EXPECT_EQ((BigInt(12) * BigInt(10)).to_dec(), "120");
  EXPECT_EQ((BigInt(-12) * BigInt(10)).to_dec(), "-120");
  EXPECT_EQ((BigInt(-12) * BigInt(-10)).to_dec(), "120");
}

TEST(BigIntArith, KnownBigProduct) {
  // 2^128 - 1 squared = 2^256 - 2^129 + 1.
  BigInt a(std::string_view("0xffffffffffffffffffffffffffffffff"));
  BigInt expected =
      (BigInt(1) << 256) - (BigInt(1) << 129) + BigInt(1);
  EXPECT_EQ(a * a, expected);
}

TEST(BigIntArith, DivModInvariantRandom) {
  DeterministicRng rng(1234);
  for (int i = 0; i < 200; ++i) {
    std::size_t abits = 1 + rng.uniform(512);
    std::size_t bbits = 1 + rng.uniform(256);
    BigInt a = BigInt::random_bits(abits, rng);
    BigInt b = BigInt::random_bits(bbits, rng);
    auto dm = a.divmod(b);
    EXPECT_EQ(dm.quotient * b + dm.remainder, a)
        << "a=" << a.to_hex() << " b=" << b.to_hex();
    EXPECT_LT(dm.remainder, b);
    EXPECT_FALSE(dm.remainder.is_negative());
  }
}

TEST(BigIntArith, DivisionByZeroThrows) {
  EXPECT_THROW(BigInt(5).divmod(BigInt{}), Error);
}

TEST(BigIntArith, SignOfQuotientAndRemainder) {
  EXPECT_EQ((BigInt(-7) / BigInt(2)).to_dec(), "-3");
  EXPECT_EQ((BigInt(-7) % BigInt(2)).to_dec(), "-1");
  EXPECT_EQ((BigInt(7) / BigInt(-2)).to_dec(), "-3");
  EXPECT_EQ(BigInt(-7).mod(BigInt(3)).to_dec(), "2");
}

TEST(BigIntArith, AlgorithmDAddBackCase) {
  // Divisor chosen so qhat overestimates and the rare add-back path runs:
  // classic Knuth exercise values.
  BigInt a(std::string_view("0x7fffffff800000010000000000000000"));
  BigInt b(std::string_view("0x800000008000000200000005"));
  auto dm = a.divmod(b);
  EXPECT_EQ(dm.quotient * b + dm.remainder, a);
  EXPECT_LT(dm.remainder, b);
}

TEST(BigIntArith, RingAxiomsAcrossKaratsubaThreshold) {
  // Operand sizes straddle the Karatsuba cutoff (24 limbs = 768 bits), so
  // these identities exercise both multiplication paths and their seam.
  DeterministicRng rng(808);
  for (std::size_t bits : {64u, 512u, 768u, 800u, 1600u, 4096u}) {
    BigInt a = BigInt::random_bits(bits, rng);
    BigInt b = BigInt::random_bits(bits / 2 + 1, rng);
    BigInt c = BigInt::random_bits(bits / 3 + 1, rng);
    EXPECT_EQ(a * b, b * a) << bits;
    EXPECT_EQ((a + b) * c, a * c + b * c) << bits;
    EXPECT_EQ((a * b) * c, a * (b * c)) << bits;
    EXPECT_EQ((a * b) / b, a) << bits;
    EXPECT_EQ((a * b) % b, BigInt{}) << bits;
  }
}

TEST(BigIntArith, SquareViaBinomial) {
  // (a+1)^2 == a^2 + 2a + 1 across widths.
  DeterministicRng rng(809);
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::random_bits(1 + rng.uniform(2000), rng);
    EXPECT_EQ((a + BigInt(1)) * (a + BigInt(1)),
              a * a + (a << 1) + BigInt(1));
  }
}

TEST(BigIntConvert, DecimalRoundTripRandom) {
  DeterministicRng rng(810);
  for (int i = 0; i < 30; ++i) {
    BigInt a = BigInt::random_bits(1 + rng.uniform(700), rng);
    EXPECT_EQ(BigInt(std::string_view(a.to_dec())), a);
    EXPECT_EQ(BigInt(std::string_view("0x" + a.to_hex())), a);
  }
}

TEST(BigIntConvert, BytesRoundTripRandom) {
  DeterministicRng rng(811);
  for (int i = 0; i < 30; ++i) {
    std::size_t len = 1 + rng.uniform(200);
    Bytes raw = rng.bytes(len);
    BigInt v = BigInt::from_bytes_be(raw);
    EXPECT_EQ(BigInt::from_bytes_be(v.to_bytes_be(len)), v);
  }
}

TEST(BigIntShift, LeftRightInverse) {
  DeterministicRng rng(5);
  BigInt v = BigInt::random_bits(300, rng);
  for (std::size_t s : {1u, 31u, 32u, 33u, 64u, 100u}) {
    EXPECT_EQ((v << s) >> s, v) << "shift=" << s;
  }
  EXPECT_EQ((v >> 301).to_hex(), "0");
}

TEST(BigIntShift, ShiftMatchesMultiplication) {
  BigInt v(std::string_view("0x123456789abcdef"));
  EXPECT_EQ(v << 5, v * BigInt(32));
  EXPECT_EQ(v >> 4, v / BigInt(16));
}

TEST(BigIntBits, BitAccess) {
  BigInt v(std::uint64_t{0b1010});
  EXPECT_FALSE(v.bit(0));
  EXPECT_TRUE(v.bit(1));
  EXPECT_FALSE(v.bit(2));
  EXPECT_TRUE(v.bit(3));
  EXPECT_FALSE(v.bit(64));
}

TEST(BigIntNumberTheory, Gcd) {
  EXPECT_EQ(BigInt::gcd(BigInt(48), BigInt(36)).to_dec(), "12");
  EXPECT_EQ(BigInt::gcd(BigInt(17), BigInt(5)).to_dec(), "1");
  EXPECT_EQ(BigInt::gcd(BigInt{}, BigInt(9)).to_dec(), "9");
}

TEST(BigIntNumberTheory, ExtGcdBezout) {
  DeterministicRng rng(77);
  for (int i = 0; i < 50; ++i) {
    BigInt a = BigInt::random_bits(1 + rng.uniform(128), rng);
    BigInt b = BigInt::random_bits(1 + rng.uniform(128), rng);
    auto e = BigInt::ext_gcd(a, b);
    EXPECT_EQ(a * e.x + b * e.y, e.g);
    EXPECT_EQ(e.g, BigInt::gcd(a, b));
  }
}

TEST(BigIntNumberTheory, ModInverse) {
  BigInt m(std::string_view("1000000007"));
  DeterministicRng rng(99);
  for (int i = 0; i < 50; ++i) {
    BigInt a = BigInt::random_below(m, rng);
    if (a.is_zero()) continue;
    BigInt inv = BigInt::mod_inverse(a, m);
    EXPECT_EQ((a * inv).mod(m).to_dec(), "1");
  }
  EXPECT_THROW(BigInt::mod_inverse(BigInt(6), BigInt(9)), Error);
}

TEST(BigIntNumberTheory, ModExpSmallKnown) {
  EXPECT_EQ(BigInt::mod_exp(BigInt(4), BigInt(13), BigInt(497)).to_dec(),
            "445");
  EXPECT_EQ(BigInt::mod_exp(BigInt(2), BigInt(10), BigInt(1000)).to_dec(),
            "24");
  EXPECT_EQ(BigInt::mod_exp(BigInt(7), BigInt{}, BigInt(13)).to_dec(), "1");
}

TEST(BigIntNumberTheory, ModExpMatchesNaive) {
  DeterministicRng rng(4242);
  for (int i = 0; i < 20; ++i) {
    BigInt m = BigInt::random_bits(64, rng);
    if (m.is_even()) m = m + BigInt(1);
    BigInt base = BigInt::random_below(m, rng);
    std::uint64_t e = rng.uniform(50);
    BigInt naive(1);
    for (std::uint64_t j = 0; j < e; ++j) naive = (naive * base).mod(m);
    EXPECT_EQ(BigInt::mod_exp(base, BigInt(e), m), naive);
  }
}

TEST(BigIntNumberTheory, ModExpEvenModulus) {
  // Even moduli exercise the non-Montgomery fallback.
  EXPECT_EQ(BigInt::mod_exp(BigInt(3), BigInt(4), BigInt(100)).to_dec(),
            "81");
  EXPECT_EQ(BigInt::mod_exp(BigInt(5), BigInt(3), BigInt(16)).to_dec(),
            "13");
}

TEST(BigIntNumberTheory, FermatLittleTheorem) {
  // a^(p-1) = 1 mod p for prime p and a not divisible by p.
  BigInt p(std::string_view("0xfffffffb"));  // 4294967291, prime
  DeterministicRng rng(31);
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::random_below(p - BigInt(1), rng) + BigInt(1);
    EXPECT_EQ(BigInt::mod_exp(a, p - BigInt(1), p).to_dec(), "1");
  }
}

TEST(Montgomery, MatchesPlainModMul) {
  DeterministicRng rng(2024);
  for (int i = 0; i < 30; ++i) {
    BigInt m = BigInt::random_bits(256, rng);
    if (m.is_even()) m = m + BigInt(1);
    MontgomeryCtx ctx(m);
    BigInt a = BigInt::random_below(m, rng);
    BigInt b = BigInt::random_below(m, rng);
    EXPECT_EQ(ctx.from_mont(ctx.mont_mul(ctx.to_mont(a), ctx.to_mont(b))),
              (a * b).mod(m));
  }
}

TEST(Montgomery, ToFromMontRoundTrip) {
  DeterministicRng rng(11);
  BigInt m = BigInt::random_bits(512, rng);
  if (m.is_even()) m = m + BigInt(1);
  MontgomeryCtx ctx(m);
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::random_below(m, rng);
    EXPECT_EQ(ctx.from_mont(ctx.to_mont(a)), a);
  }
}

TEST(Montgomery, RejectsEvenModulus) {
  EXPECT_THROW(MontgomeryCtx(BigInt(100)), Error);
  EXPECT_THROW(MontgomeryCtx(BigInt{}), Error);
}

TEST(Montgomery, ModExpMatchesGeneric) {
  DeterministicRng rng(314);
  BigInt m = BigInt::random_bits(192, rng);
  if (m.is_even()) m = m + BigInt(1);
  MontgomeryCtx ctx(m);
  for (int i = 0; i < 10; ++i) {
    BigInt base = BigInt::random_below(m, rng);
    BigInt exp = BigInt::random_bits(1 + rng.uniform(192), rng);
    // Generic square-and-multiply reference.
    BigInt ref(1);
    for (std::size_t b = exp.bit_length(); b-- > 0;) {
      ref = (ref * ref).mod(m);
      if (exp.bit(b)) ref = (ref * base).mod(m);
    }
    EXPECT_EQ(ctx.mod_exp(base, exp), ref);
  }
}

// The MULX/ADX row kernels against the portable CIOS core at the two
// widths they serve, and both against BigInt arithmetic.
using Kernel = void (*)(std::uint64_t*, const std::uint64_t*,
                        const std::uint64_t*, const std::uint64_t*,
                        std::uint64_t);

std::uint64_t neg_inverse(std::uint64_t m0) {
  std::uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - m0 * inv;
  return 0 - inv;
}

void cross_check_kernel(Kernel adx, std::size_t n, std::uint64_t seed) {
  using Words = std::vector<std::uint64_t>;
  DeterministicRng rng(seed);
  const BigInt r = BigInt(1) << (64 * n);
  for (int trial = 0; trial < 6; ++trial) {
    // All-ones (every carry propagates), a short top word, then random.
    BigInt mb = trial == 0   ? r - BigInt(1)
                : trial == 1 ? BigInt::random_bits(64 * n - 61, rng) +
                                   (BigInt(1) << (64 * n - 64))
                             : BigInt::random_bits(64 * n, rng);
    if (mb.is_even()) mb = mb + BigInt(1);
    Words m(n), a(n), b(n), want(n), got(n);
    to_words(mb, m.data(), n);
    const std::uint64_t mp = neg_inverse(m[0]);
    auto check = [&](const BigInt& x, const BigInt& y) {
      to_words(x, a.data(), n);
      to_words(y, b.data(), n);
      mont_mul_portable(want.data(), a.data(), b.data(), m.data(), mp, n);
      adx(got.data(), a.data(), b.data(), m.data(), mp);
      EXPECT_EQ(got, want) << "m=" << mb.to_hex() << " a=" << x.to_hex()
                           << " b=" << y.to_hex();
      EXPECT_EQ((from_words(got.data(), n) * r).mod(mb), (x * y).mod(mb));
    };
    const BigInt edges[] = {BigInt(0), BigInt(1), mb - BigInt(1)};
    for (const BigInt& x : edges) {
      for (const BigInt& y : edges) check(x, y);
    }
    for (int i = 0; i < 20; ++i) {
      check(BigInt::random_below(mb, rng), BigInt::random_below(mb, rng));
    }
  }

  // 10,000 chained products: each result feeds the next multiply, so one
  // wrong word anywhere derails every later step.
  BigInt mb = BigInt::random_bits(64 * n, rng);
  if (mb.is_even()) mb = mb + BigInt(1);
  Words m(n), x(n), y(n), px(n), py(n), t(n);
  to_words(mb, m.data(), n);
  const std::uint64_t mp = neg_inverse(m[0]);
  to_words(BigInt::random_below(mb, rng), x.data(), n);
  to_words(BigInt::random_below(mb, rng), y.data(), n);
  px = x;
  py = y;
  for (int i = 0; i < 10000; ++i) {
    adx(t.data(), x.data(), y.data(), m.data(), mp);
    y = x;
    x = t;
    mont_mul_portable(t.data(), px.data(), py.data(), m.data(), mp, n);
    py = px;
    px = t;
    ASSERT_EQ(x, px) << "chained product " << i;
  }
}

TEST(MontgomeryKernel, Adx8MatchesPortable) {
  if (!accel::mont_cpu_supported()) GTEST_SKIP() << "CPU lacks BMI2+ADX";
  cross_check_kernel(accel::mont_mul8, 8, 0xAD8);
}

TEST(MontgomeryKernel, Adx16MatchesPortable) {
  if (!accel::mont_cpu_supported()) GTEST_SKIP() << "CPU lacks BMI2+ADX";
  cross_check_kernel(accel::mont_mul16, 16, 0xAD16);
}

TEST(Montgomery, WordInterfaceReducesWithoutDivision) {
  // reduce() and mod_exp() accept any x < m * R: the CRT path feeds them
  // a full-width ciphertext against a half-width prime.
  DeterministicRng rng(77);
  for (std::size_t bits : {61u, 256u, 512u, 1024u}) {
    BigInt m = BigInt::random_bits(bits, rng);
    if (m.is_even()) m = m + BigInt(1);
    MontgomeryCtx ctx(m);
    const std::size_t n = ctx.words();
    const BigInt bound = m << (64 * n);
    std::vector<std::uint64_t> xw(2 * n), out(n);
    for (int i = 0; i < 5; ++i) {
      const BigInt x = i == 0 ? bound - BigInt(1) : BigInt::random_below(bound, rng);
      const BigInt e = BigInt::random_bits(1 + rng.uniform(bits + 8), rng);
      to_words(x, xw.data(), 2 * n);
      ctx.reduce(out.data(), xw.data(), 2 * n);
      EXPECT_EQ(from_words(out.data(), n), x.mod(m));
      ctx.mod_exp(out.data(), xw.data(), 2 * n, e);
      EXPECT_EQ(from_words(out.data(), n), ctx.mod_exp(x.mod(m), e));
    }
  }
}

TEST(Prime, KnownPrimesAndComposites) {
  DeterministicRng rng(55);
  for (std::uint64_t p : {2ull, 3ull, 5ull, 7ull, 65537ull, 4294967291ull}) {
    EXPECT_TRUE(is_probable_prime(BigInt(p), rng)) << p;
  }
  for (std::uint64_t c : {1ull, 4ull, 100ull, 65535ull, 4294967295ull}) {
    EXPECT_FALSE(is_probable_prime(BigInt(c), rng)) << c;
  }
}

TEST(Prime, CarmichaelNumbersRejected) {
  DeterministicRng rng(56);
  // Fermat pseudoprimes that Miller-Rabin must still reject.
  for (std::uint64_t c : {561ull, 1105ull, 1729ull, 2465ull, 6601ull}) {
    EXPECT_FALSE(is_probable_prime(BigInt(c), rng)) << c;
  }
}

TEST(Prime, MersennePrime) {
  DeterministicRng rng(57);
  BigInt m127 = (BigInt(1) << 127) - BigInt(1);
  EXPECT_TRUE(is_probable_prime(m127, rng));
  EXPECT_FALSE(is_probable_prime(m127 + BigInt(2), rng));
}

class PrimeGeneration : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PrimeGeneration, GeneratesExactWidthOddPrimes) {
  std::size_t bits = GetParam();
  DeterministicRng rng(bits);
  BigInt p = generate_prime(bits, rng);
  EXPECT_EQ(p.bit_length(), bits);
  EXPECT_TRUE(p.is_odd());
  EXPECT_TRUE(p.bit(bits - 2)) << "second-highest bit must be set for RSA";
  DeterministicRng check(999);
  EXPECT_TRUE(is_probable_prime(p, check));
}

INSTANTIATE_TEST_SUITE_P(Widths, PrimeGeneration,
                         ::testing::Values(16, 32, 64, 128, 256));

/// Returns the same (zero) bytes on every draw: a stuck hardware source.
class StuckRng final : public Rng {
 public:
  void fill(std::uint8_t* out, std::size_t len) override {
    std::fill(out, out + len, std::uint8_t{0});
  }
  std::uint64_t next_u64() override { return 0; }
};

TEST(Prime, StuckRngThrowsInsteadOfSpinning) {
  // Every 12-bit draw becomes 3073 = 7 * 439, so no candidate is prime.
  StuckRng rng;
  try {
    (void)generate_prime(12, rng);
    FAIL() << "generate_prime returned from a stuck Rng";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kCrypto);
  }
}

TEST(RandomBelow, StaysInRangeAndVaries) {
  DeterministicRng rng(123);
  BigInt bound(std::string_view("0x10000000000000000000001"));
  BigInt prev;
  bool varied = false;
  for (int i = 0; i < 100; ++i) {
    BigInt v = BigInt::random_below(bound, rng);
    EXPECT_LT(v, bound);
    EXPECT_FALSE(v.is_negative());
    if (i > 0 && !(v == prev)) varied = true;
    prev = v;
  }
  EXPECT_TRUE(varied);
}

}  // namespace
}  // namespace omadrm::bigint
