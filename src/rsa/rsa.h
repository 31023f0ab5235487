// RSA key model and the PKCS#1 v2.1 primitives (RSAEP / RSADP / RSASP1 /
// RSAVP1) plus the I2OSP / OS2IP octet-string conversions — exactly the
// primitive set the paper lists in §2.4.5.
//
// Private-key operations use the CRT representation (p, q, dP, dQ, qInv)
// when available, which is also what the cycle-cost model assumes for the
// "RSA 1024 Private Key Op" row of Table 1.
#pragma once

#include <cstddef>
#include <memory>

#include "bigint/bigint.h"
#include "common/bytes.h"
#include "common/random.h"

namespace omadrm::rsa {

using bigint::BigInt;

struct PublicKey {
  BigInt n;  // modulus
  BigInt e;  // public exponent

  /// Modulus size in bytes (k in PKCS#1 terms).
  std::size_t byte_length() const { return (n.bit_length() + 7) / 8; }
  std::size_t bit_length() const { return n.bit_length(); }
};

/// Per-key CRT precomputation (Montgomery contexts for p, q and n plus
/// the recombination constant), defined in rsa.cpp.
struct CrtContext;

/// Holder for a key's lazily built CrtContext. Copying deliberately
/// yields an empty slot: the context is rebuilt on first use, and never
/// reading the source keeps key copies race-free against a concurrent
/// private-key operation populating its slot. This confinement lets
/// PrivateKey keep defaulted copy/move operations.
struct CrtCtxSlot {
  mutable std::shared_ptr<const CrtContext> ctx;

  CrtCtxSlot() = default;
  CrtCtxSlot(const CrtCtxSlot&) noexcept {}
  CrtCtxSlot& operator=(const CrtCtxSlot&) noexcept {
    ctx.reset();
    return *this;
  }
  CrtCtxSlot(CrtCtxSlot&&) noexcept = default;
  CrtCtxSlot& operator=(CrtCtxSlot&&) noexcept = default;
};

struct PrivateKey {
  BigInt n;
  BigInt e;
  BigInt d;
  // CRT components; present for generated keys.
  BigInt p, q, dp, dq, qinv;
  bool has_crt = false;

  // Lazily built CRT precomputation, kept on the key instead of the
  // process-wide modulus cache so the secret primes never persist in
  // global memory beyond the key's lifetime. rsadp checks it against the
  // key's fields before use, so field-wise key replacement (e.g. state
  // import) self-heals.
  CrtCtxSlot crt_ctx;

  PublicKey public_key() const { return {n, e}; }
  std::size_t byte_length() const { return (n.bit_length() + 7) / 8; }
};

/// Generates an RSA key pair with an exactly `bits`-bit modulus and
/// public exponent 65537. Deterministic given the Rng.
PrivateKey generate_key(std::size_t bits, Rng& rng);

/// I2OSP: integer to big-endian octet string of exactly `len` bytes.
/// Throws kRange if the integer does not fit.
Bytes i2osp(const BigInt& x, std::size_t len);

/// OS2IP: octet string to integer.
BigInt os2ip(ByteView data);

// -- PKCS#1 v2.1 primitives (integer domain) -------------------------------

/// RSAEP: m^e mod n. Requires 0 <= m < n.
BigInt rsaep(const PublicKey& key, const BigInt& m);

/// RSADP: c^d mod n (CRT when available). Requires 0 <= c < n.
/// The CRT path runs in constant time with respect to the secret
/// exponents and allocates nothing between the conversions of c and the
/// result. Before returning it recomputes result^e mod n and throws
/// Error(kCrypto), returning nothing, if that differs from c: a fault in
/// one half of the CRT would otherwise leak the factorisation of n.
BigInt rsadp(const PrivateKey& key, const BigInt& c);

/// RSASP1: signature primitive (same math as RSADP).
BigInt rsasp1(const PrivateKey& key, const BigInt& m);

/// RSAVP1: verification primitive (same math as RSAEP).
BigInt rsavp1(const PublicKey& key, const BigInt& s);

}  // namespace omadrm::rsa
