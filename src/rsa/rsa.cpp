#include "rsa/rsa.h"

#include "bigint/montgomery.h"
#include "bigint/prime.h"
#include "common/error.h"
#include "common/ordered_mutex.h"

namespace omadrm::rsa {

using omadrm::Error;
using omadrm::ErrorKind;

PrivateKey generate_key(std::size_t bits, Rng& rng) {
  if (bits < 64 || bits % 2 != 0) {
    throw Error(ErrorKind::kRange, "generate_key: bits must be even, >=64");
  }
  const BigInt e(std::uint64_t{65537});
  const BigInt one(std::uint64_t{1});
  for (;;) {
    BigInt p = bigint::generate_prime(bits / 2, rng);
    BigInt q = bigint::generate_prime(bits / 2, rng);
    if (p == q) continue;
    if (q > p) std::swap(p, q);  // canonical order: p > q

    BigInt n = p * q;
    if (n.bit_length() != bits) continue;
    BigInt phi = (p - one) * (q - one);
    if (!(BigInt::gcd(e, phi) == one)) continue;

    PrivateKey key;
    key.n = n;
    key.e = e;
    key.d = BigInt::mod_inverse(e, phi);
    key.p = p;
    key.q = q;
    key.dp = key.d.mod(p - one);
    key.dq = key.d.mod(q - one);
    key.qinv = BigInt::mod_inverse(q, p);
    key.has_crt = true;
    return key;
  }
}

Bytes i2osp(const BigInt& x, std::size_t len) {
  if (x.is_negative()) {
    throw Error(ErrorKind::kRange, "i2osp: negative integer");
  }
  if (x.bit_length() > len * 8) {
    throw Error(ErrorKind::kRange, "i2osp: integer too large for length");
  }
  return x.to_bytes_be(len);
}

BigInt os2ip(ByteView data) { return BigInt::from_bytes_be(data); }

BigInt rsaep(const PublicKey& key, const BigInt& m) {
  if (m.is_negative() || !(m < key.n)) {
    throw Error(ErrorKind::kCrypto, "rsaep: message out of range");
  }
  // mod_exp owns the dispatch: shared (cached) Montgomery context for odd
  // moduli, generic square-and-multiply for hostile even ones.
  return BigInt::mod_exp(m, key.e, key.n);
}

namespace {

// Guards every PrivateKey's lazy CRT-context slots. One process-wide
// mutex is enough: the critical sections are pointer reads/writes, dwarfed
// by the exponentiations around them. Rank kRsaCrtSlot sits above every
// lock a signing caller may hold; nothing is acquired while it is held.
OrderedMutex& crt_slot_mutex() {
  static OrderedMutex m{LockRank::kRsaCrtSlot, "rsa.crt_slot"};
  return m;
}

// Per-key cached context for a secret CRT prime. Deliberately NOT the
// process-wide modulus cache: p and q must not outlive the key in global
// memory. The modulus check makes field-wise key mutation (state import)
// self-healing. Context construction happens outside the lock; a losing
// racer adopts the winner's context.
std::shared_ptr<const bigint::MontgomeryCtx> crt_prime_ctx(
    std::shared_ptr<const bigint::MontgomeryCtx>& slot, const BigInt& prime) {
  {
    MutexLock lock(crt_slot_mutex());
    if (slot && slot->modulus() == prime) return slot;
  }
  auto ctx = std::make_shared<const bigint::MontgomeryCtx>(prime);
  MutexLock lock(crt_slot_mutex());
  if (slot && slot->modulus() == prime) return slot;
  slot = ctx;
  return ctx;
}

}  // namespace

BigInt rsadp(const PrivateKey& key, const BigInt& c) {
  if (c.is_negative() || !(c < key.n)) {
    throw Error(ErrorKind::kCrypto, "rsadp: ciphertext out of range");
  }
  if (!key.has_crt) {
    return BigInt::mod_exp(c, key.d, key.n);
  }
  // CRT with per-prime per-key contexts: both half-size exponentiations
  // reuse their cached R^2 mod p / mod q across private-key operations.
  BigInt m1 = crt_prime_ctx(key.crt_ctx_p.ctx, key.p)->mod_exp(c.mod(key.p),
                                                               key.dp);
  BigInt m2 = crt_prime_ctx(key.crt_ctx_q.ctx, key.q)->mod_exp(c.mod(key.q),
                                                               key.dq);
  // Garner's recombination: m = m2 + q * (qinv * (m1 - m2) mod p).
  BigInt h = (key.qinv * (m1 - m2)).mod(key.p);
  return m2 + key.q * h;
}

BigInt rsasp1(const PrivateKey& key, const BigInt& m) {
  if (m.is_negative() || !(m < key.n)) {
    throw Error(ErrorKind::kCrypto, "rsasp1: message out of range");
  }
  return rsadp(key, m);
}

BigInt rsavp1(const PublicKey& key, const BigInt& s) {
  if (s.is_negative() || !(s < key.n)) {
    throw Error(ErrorKind::kCrypto, "rsavp1: signature out of range");
  }
  return rsaep(key, s);
}

}  // namespace omadrm::rsa
