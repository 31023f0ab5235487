#include "rsa/rsa.h"

#include <algorithm>
#include <vector>

#include "bigint/montgomery.h"
#include "bigint/prime.h"
#include "common/error.h"
#include "common/failpoint.h"
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

// Everything the CRT path needs beyond the key's own fields, built once
// per key (this is where the heap and the divisions go) so that each
// private-key operation needs neither.
struct CrtContext {
  explicit CrtContext(const PrivateKey& key)
      : ctx_p(key.p), ctx_q(key.q), ctx_n(key.n), qinv(key.qinv) {
    q_words.resize(ctx_q.words());
    bigint::to_words(key.q, q_words.data(), q_words.size());
    qinv_r.resize(ctx_p.words());
    bigint::to_words(ctx_p.to_mont(key.qinv.mod(key.p)), qinv_r.data(),
                     qinv_r.size());
  }

  bool matches(const PrivateKey& key) const {
    return ctx_p.modulus() == key.p && ctx_q.modulus() == key.q &&
           ctx_n.modulus() == key.n && qinv == key.qinv;
  }

  bigint::MontgomeryCtx ctx_p;
  bigint::MontgomeryCtx ctx_q;
  bigint::MontgomeryCtx ctx_n;  // for the verify-after-sign
  BigInt qinv;                  // the key field qinv_r was built from
  std::vector<std::uint64_t> q_words;
  std::vector<std::uint64_t> qinv_r;  // qinv * R mod p
};

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

// Guards every PrivateKey's lazy CRT-context slot. One process-wide mutex
// is enough: the critical sections are pointer reads/writes and a few
// field comparisons, dwarfed by the exponentiations around them. Rank
// kRsaCrtSlot sits above every lock a signing caller may hold; nothing is
// acquired while it is held.
OrderedMutex& crt_slot_mutex() {
  static OrderedMutex m{LockRank::kRsaCrtSlot, "rsa.crt_slot"};
  return m;
}

// The key's cached CRT context. Deliberately NOT the process-wide modulus
// cache: p and q must not outlive the key in global memory. The field
// check makes field-wise key mutation (state import) self-healing.
// Construction happens outside the lock; a losing racer adopts the
// winner's context.
std::shared_ptr<const CrtContext> crt_context(const PrivateKey& key) {
  std::shared_ptr<const CrtContext>& slot = key.crt_ctx.ctx;
  {
    MutexLock lock(crt_slot_mutex());
    if (slot && slot->matches(key)) return slot;
  }
  auto ctx = std::make_shared<const CrtContext>(key);
  MutexLock lock(crt_slot_mutex());
  if (slot && slot->matches(key)) return slot;
  slot = ctx;
  return ctx;
}

std::size_t word_count(const BigInt& v) { return (v.bit_length() + 63) / 64; }

// s[0..2n) = a * b + c for n-word a, b and c (schoolbook).
void mul_add(u64* s, const u64* a, const u64* b, const u64* c,
             std::size_t n) {
  std::copy_n(c, n, s);
  std::fill_n(s + n, n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    u128 carry = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const u128 cur =
          static_cast<u128>(a[i]) * b[j] + s[i + j] + carry;
      s[i + j] = static_cast<u64>(cur);
      carry = cur >> 64;
    }
    s[i + n] = static_cast<u64>(carry);
  }
}

}  // namespace

BigInt rsadp(const PrivateKey& key, const BigInt& c) {
  if (c.is_negative() || !(c < key.n)) {
    throw Error(ErrorKind::kCrypto, "rsadp: ciphertext out of range");
  }
  // The division-free reduction of c mod p needs c < p * R, which holds
  // when p and q have the same word count (always, for generated keys).
  if (!key.has_crt || word_count(key.p) != word_count(key.q)) {
    return BigInt::mod_exp(c, key.d, key.n);
  }
  const std::shared_ptr<const CrtContext> crt = crt_context(key);
  const bigint::MontgomeryCtx& cp = crt->ctx_p;
  const std::size_t nh = cp.words();
  const std::size_t nn = crt->ctx_n.words();

  u64 cw[bigint::kMontMaxWords];
  bigint::to_words(c, cw, nn);
  u64 m1[bigint::kMontMaxWords];
  u64 m2[bigint::kMontMaxWords];
  cp.mod_exp(m1, cw, nn, key.dp);
  crt->ctx_q.mod_exp(m2, cw, nn, key.dq);
  if (failpoint::check("rsa.crt.fault") != 0) m1[0] ^= 1;

  // Garner's recombination: s = m2 + q * (qinv * (m1 - m2) mod p).
  u64 h[bigint::kMontMaxWords];
  cp.reduce(h, m2, nh);
  cp.sub(h, m1, h);
  cp.mul(h, h, crt->qinv_r.data());  // (m1 - m2) * qinv*R * R^-1
  u64 s[2 * bigint::kMontMaxWords];
  mul_add(s, crt->q_words.data(), h, m2, nh);

  // Verify-after-sign: a fault in either half yields an s that is right
  // mod one prime only, and s alone would then factor n (Boneh, DeMillo,
  // Lipton). Nothing leaves unless s^e mod n gives back c.
  u64 back[bigint::kMontMaxWords];
  crt->ctx_n.mod_exp(back, s, nn, key.e);
  u64 diff = 0;
  for (std::size_t i = 0; i < nn; ++i) diff |= back[i] ^ cw[i];
  if (diff != 0) {
    throw Error(ErrorKind::kCrypto, "rsadp: CRT result failed its check");
  }
  return bigint::from_words(s, nn);
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
