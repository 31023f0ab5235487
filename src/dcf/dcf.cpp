#include "dcf/dcf.h"

#include "common/error.h"
#include "crypto/modes.h"
#include "crypto/sha1.h"

namespace omadrm::dcf {

using omadrm::Error;
using omadrm::ErrorKind;

namespace {

constexpr char kMagic[4] = {'O', 'D', 'C', 'F'};
constexpr std::uint8_t kVersion = 2;

void put_u16(Bytes& out, std::size_t v) {
  if (v > 0xffff) throw Error(ErrorKind::kRange, "dcf: field too long");
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_string(Bytes& out, const std::string& s) {
  put_u16(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

}  // namespace

Dcf::Dcf(Headers headers, Bytes iv, Bytes encrypted_payload,
         std::uint64_t plaintext_size)
    : headers_(std::move(headers)),
      iv_(std::move(iv)),
      payload_(std::move(encrypted_payload)),
      plaintext_size_(plaintext_size) {
  if (iv_.size() != 16) {
    throw Error(ErrorKind::kCrypto, "dcf: IV must be 16 bytes");
  }
}

Bytes Dcf::serialize() const {
  Bytes out;
  out.reserve(64 + payload_.size());
  out.insert(out.end(), kMagic, kMagic + 4);
  out.push_back(kVersion);
  put_string(out, headers_.content_type);
  put_string(out, headers_.content_id);
  put_string(out, headers_.rights_issuer_url);
  put_u16(out, headers_.textual.size());
  for (const auto& [k, v] : headers_.textual) {
    put_string(out, k);
    put_string(out, v);
  }
  out.insert(out.end(), iv_.begin(), iv_.end());
  std::uint8_t sz[8];
  store_be64(plaintext_size_, sz);
  out.insert(out.end(), sz, sz + 8);
  if (payload_.size() > 0xffffffffull) {
    throw Error(ErrorKind::kRange, "dcf: payload too large");
  }
  std::uint8_t psz[4];
  store_be32(static_cast<std::uint32_t>(payload_.size()), psz);
  out.insert(out.end(), psz, psz + 4);
  out.insert(out.end(), payload_.begin(), payload_.end());
  return out;
}

std::size_t Dcf::serialized_size() const {
  std::size_t n = 4 + 1;  // magic + version
  n += 2 + headers_.content_type.size();
  n += 2 + headers_.content_id.size();
  n += 2 + headers_.rights_issuer_url.size();
  n += 2;  // textual header count
  for (const auto& [k, v] : headers_.textual) {
    n += 2 + k.size() + 2 + v.size();
  }
  return n + 16 + 8 + 4 + payload_.size();  // iv + sizes + payload
}

const Bytes& Dcf::hash() const {
  if (hash_cache_.empty()) {
    hash_cache_ = crypto::Sha1::hash(serialize());
  }
  return hash_cache_;
}

Dcf make_dcf(Headers headers, ByteView plaintext, ByteView kcek,
             ByteView iv) {
  Bytes payload = crypto::aes_cbc_encrypt(kcek, iv, plaintext);
  return Dcf(std::move(headers), Bytes(iv.begin(), iv.end()),
             std::move(payload), plaintext.size());
}

Bytes decrypt_dcf(const Dcf& dcf, ByteView kcek) {
  Bytes plain = crypto::aes_cbc_decrypt(kcek, dcf.iv(),
                                        dcf.encrypted_payload());
  if (plain.size() != dcf.plaintext_size()) {
    throw Error(ErrorKind::kFormat, "dcf: plaintext size mismatch");
  }
  return plain;
}

}  // namespace omadrm::dcf
