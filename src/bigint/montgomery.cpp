#include "bigint/montgomery.h"

#include <algorithm>
#include <utility>

#include "bigint/mont_accel.h"
#include "common/error.h"

namespace omadrm::bigint {

using omadrm::Error;
using omadrm::ErrorKind;

namespace {

using u128 = unsigned __int128;
using u64 = std::uint64_t;

// -m^-1 mod 2^64 via Newton iteration (doubles correct bits each step).
u64 neg_inverse_u64(u64 m0) {
  u64 inv = 1;
  for (int i = 0; i < 6; ++i) {
    inv *= 2 - m0 * inv;
  }
  return 0u - inv;
}

// All-ones when a == b, zero otherwise, without a branch.
u64 eq_mask(u64 a, u64 b) {
  const u64 d = a ^ b;
  return ((d | (0 - d)) >> 63) - 1;
}

}  // namespace

void mont_reduce_once(u64* r, const u64* t, u64 top, const u64* m,
                      std::size_t n) {
  u64 borrow = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const u128 d = static_cast<u128>(t[i]) - m[i] - borrow;
    r[i] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 64) & 1;
  }
  // The subtraction stands unless it borrowed past a zero top word.
  const u64 keep_t = 0 - (borrow & ~top & 1);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = (t[i] & keep_t) | (r[i] & ~keep_t);
  }
}

// Coarsely Integrated Operand Scanning (CIOS) on 64-bit words with
// 128-bit products, at any width up to kMontMaxWords.
void mont_mul_portable(u64* r, const u64* a, const u64* b, const u64* m,
                       u64 m_prime, std::size_t n) {
  u64 t[kMontMaxWords + 2];
  std::fill_n(t, n + 2, 0);

  for (std::size_t i = 0; i < n; ++i) {
    const u64 ai = a[i];

    // t += ai * b
    u128 carry = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const u128 cur = static_cast<u128>(t[j]) + static_cast<u128>(ai) * b[j] +
                       carry;
      t[j] = static_cast<u64>(cur);
      carry = cur >> 64;
    }
    {
      const u128 cur = static_cast<u128>(t[n]) + carry;
      t[n] = static_cast<u64>(cur);
      t[n + 1] = static_cast<u64>(cur >> 64);
    }

    // u = t[0] * m' mod 2^64 ; t = (t + u * m) >> 64
    const u64 u = t[0] * m_prime;
    u128 cur = static_cast<u128>(t[0]) + static_cast<u128>(u) * m[0];
    carry = cur >> 64;
    for (std::size_t j = 1; j < n; ++j) {
      cur = static_cast<u128>(t[j]) + static_cast<u128>(u) * m[j] + carry;
      t[j - 1] = static_cast<u64>(cur);
      carry = cur >> 64;
    }
    cur = static_cast<u128>(t[n]) + carry;
    t[n - 1] = static_cast<u64>(cur);
    t[n] = t[n + 1] + static_cast<u64>(cur >> 64);
    t[n + 1] = 0;
  }

  // t < 2m: at most one subtraction.
  mont_reduce_once(r, t, t[n], m, n);
}

void to_words(const BigInt& v, u64* out, std::size_t n) {
  const auto& limbs = v.limbs();
  std::fill_n(out, n, 0);
  for (std::size_t i = 0; i < limbs.size() && i / 2 < n; ++i) {
    out[i / 2] |= static_cast<u64>(limbs[i]) << (32 * (i % 2));
  }
}

BigInt from_words(const u64* w, std::size_t n) {
  std::vector<std::uint32_t> limbs(n * 2, 0);
  for (std::size_t i = 0; i < n; ++i) {
    limbs[2 * i] = static_cast<std::uint32_t>(w[i]);
    limbs[2 * i + 1] = static_cast<std::uint32_t>(w[i] >> 32);
  }
  return BigInt::from_limbs(std::move(limbs));
}

MontgomeryCtx::MontgomeryCtx(const BigInt& m) : m_(m) {
  if (m.is_zero() || m.is_negative() || m.is_even()) {
    throw Error(ErrorKind::kCrypto, "Montgomery modulus must be odd positive");
  }
  bits_ = m.bit_length();
  nw_ = (bits_ + 63) / 64;
  if (nw_ > kMontMaxWords) {
    throw Error(ErrorKind::kCrypto, "Montgomery modulus too wide");
  }
  kernel_ = Kernel::kPortable;
  if (accel::mont_cpu_supported()) {
    if (nw_ == 8) kernel_ = Kernel::kAdx8;
    if (nw_ == 16) kernel_ = Kernel::kAdx16;
  }
  mw_.resize(nw_);
  to_words(m_, mw_.data(), nw_);
  m_prime_ = neg_inverse_u64(mw_[0]);
  // R^2 mod m where R = 2^(64 nw).
  r2_.resize(nw_);
  to_words((BigInt(std::uint64_t{1}) << (128 * nw_)).mod(m_), r2_.data(),
           nw_);
  one_.assign(nw_, 0);
  one_[0] = 1;
  // 1 * R^2 * R^-1 = R and R^2 * R^2 * R^-1 = R^3.
  one_mont_w_.resize(nw_);
  mul(one_mont_w_.data(), one_.data(), r2_.data());
  r3_.resize(nw_);
  mul(r3_.data(), r2_.data(), r2_.data());
  one_mont_ = from_words(one_mont_w_.data(), nw_);
}

void MontgomeryCtx::mul(u64* r, const u64* a, const u64* b) const {
  switch (kernel_) {
    case Kernel::kAdx8:
      accel::mont_mul8(r, a, b, mw_.data(), m_prime_);
      return;
    case Kernel::kAdx16:
      accel::mont_mul16(r, a, b, mw_.data(), m_prime_);
      return;
    case Kernel::kPortable:
      break;
  }
  mont_mul_portable(r, a, b, mw_.data(), m_prime_, nw_);
}

void MontgomeryCtx::sub(u64* r, const u64* a, const u64* b) const {
  u64 borrow = 0;
  for (std::size_t i = 0; i < nw_; ++i) {
    const u128 d = static_cast<u128>(a[i]) - b[i] - borrow;
    r[i] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 64) & 1;
  }
  // Add m back under a mask when the difference went negative.
  const u64 mask = 0 - borrow;
  u64 carry = 0;
  for (std::size_t i = 0; i < nw_; ++i) {
    const u128 s = static_cast<u128>(r[i]) + (mw_[i] & mask) + carry;
    r[i] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
}

void MontgomeryCtx::redc_mul(u64* r, const u64* x, std::size_t xw,
                             const u64* k) const {
  // x = hi * R + lo with hi < m (x < m * R), so
  // x * R^-1 = lo * R^-1 + hi (mod m), a sum below 2m.
  u64 lo[kMontMaxWords];
  u64 hi[kMontMaxWords];
  for (std::size_t i = 0; i < nw_; ++i) {
    lo[i] = i < xw ? x[i] : 0;
    hi[i] = nw_ + i < xw ? x[nw_ + i] : 0;
  }
  mul(lo, lo, one_.data());
  u64 carry = 0;
  for (std::size_t i = 0; i < nw_; ++i) {
    const u128 s = static_cast<u128>(lo[i]) + hi[i] + carry;
    hi[i] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
  mont_reduce_once(lo, hi, carry, mw_.data(), nw_);
  mul(r, lo, k);
}

void MontgomeryCtx::reduce(u64* r, const u64* x, std::size_t xw) const {
  redc_mul(r, x, xw, r2_.data());
}

void MontgomeryCtx::mod_exp(u64* r, const u64* x, std::size_t xw,
                            const BigInt& exp) const {
  const std::size_t n = nw_;
  u64 base[kMontMaxWords];
  redc_mul(base, x, xw, r3_.data());  // x * R mod m: Montgomery form
  u64 acc[kMontMaxWords];
  const std::size_t ebits = exp.bit_length();

  if (ebits <= kPlainExpBits) {
    // Short (public) exponent: left-to-right square-and-multiply.
    std::copy_n(ebits == 0 ? one_mont_w_.data() : base, n, acc);
    for (std::size_t i = ebits == 0 ? 0 : ebits - 1; i-- > 0;) {
      mul(acc, acc, acc);
      if (exp.bit(i)) mul(acc, acc, base);
    }
  } else {
    constexpr std::size_t kEntries = std::size_t{1} << kWindowBits;
    u64 table[kEntries * kMontMaxWords];
    std::copy_n(one_mont_w_.data(), n, table);
    std::copy_n(base, n, table + n);
    for (std::size_t k = 2; k < kEntries; ++k) {
      mul(table + k * n, table + (k - 1) * n, base);
    }
    // acc = table[window w of exp], reading every entry under a mask.
    auto select = [&](u64* out, std::size_t w) {
      u64 idx = 0;
      for (std::size_t b = kWindowBits; b-- > 0;) {
        idx = (idx << 1) | (exp.bit(w * kWindowBits + b) ? 1u : 0u);
      }
      std::fill_n(out, n, 0);
      for (std::size_t k = 0; k < kEntries; ++k) {
        const u64 mask = eq_mask(k, idx);
        for (std::size_t j = 0; j < n; ++j) out[j] |= table[k * n + j] & mask;
      }
    };
    // The window count depends on the modulus, not on the secret
    // exponent's length, and a zero window still multiplies (by R).
    const std::size_t windows =
        (std::max(bits_, ebits) + kWindowBits - 1) / kWindowBits;
    select(acc, windows - 1);
    u64 sel[kMontMaxWords];
    for (std::size_t w = windows - 1; w-- > 0;) {
      for (std::size_t s = 0; s < kWindowBits; ++s) mul(acc, acc, acc);
      select(sel, w);
      mul(acc, acc, sel);
    }
  }
  mul(r, acc, one_.data());  // out of Montgomery form
}

BigInt MontgomeryCtx::mod_exp(const BigInt& base, const BigInt& exp) const {
  u64 x[kMontMaxWords];
  to_words(base, x, nw_);
  mod_exp(x, x, nw_, exp);
  return from_words(x, nw_);
}

BigInt MontgomeryCtx::mont_mul(const BigInt& a, const BigInt& b) const {
  u64 x[kMontMaxWords];
  u64 y[kMontMaxWords];
  to_words(a, x, nw_);
  to_words(b, y, nw_);
  mul(x, x, y);
  return from_words(x, nw_);
}

BigInt MontgomeryCtx::to_mont(const BigInt& a) const {
  u64 x[kMontMaxWords];
  to_words(a, x, nw_);
  mul(x, x, r2_.data());
  return from_words(x, nw_);
}

BigInt MontgomeryCtx::from_mont(const BigInt& a) const {
  u64 x[kMontMaxWords];
  to_words(a, x, nw_);
  mul(x, x, one_.data());
  return from_words(x, nw_);
}

}  // namespace omadrm::bigint
