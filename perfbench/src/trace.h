// In-memory span tracing and the decorators that record it.
//
// Spans are recorded only from the benchmark's own code, around the calls
// into each layer, by decorators over the library's public interfaces
// (roap::Transport, provider::CryptoProvider, store::StateStore) and by
// scopes around DrmAgent / DcfReader / ContentSession calls. Every span
// carries the operation id its thread was working on, and its parent
// span, so a layer's self time (its duration minus the time its child
// spans cover) can be derived after the run. Spans and counters live in
// per-thread buffers until the run ends.
//
// Recording is off by default. With it off, every decorator forwards to
// its plain target: the untraced reference window of a traced run then
// differs from an untraced run only by one virtual call per layer call.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "provider/provider.h"
#include "roap/transport.h"
#include "store/state_store.h"

namespace perfbench {

enum class Layer : std::uint8_t {
  kOp,             // one benchmark operation (the root span)
  kAgent,          // DrmAgent register / acquire / install
  kAgentOpen,      // DrmAgent::open_content
  kNet,            // Transport::request over framed TCP, client side
  kRiHandle,       // Transport::request into an in-process RightsIssuer
  kRsaDevPrivate,  // device pss_sign / kem_decapsulate
  kRsaDevVerify,   // device pss_verify
  kRsaDevPublic,   // device kem_encapsulate
  kRsaRiSign,      // RI pss_sign
  kRsaRiPrivate,   // RI kem_decapsulate
  kRsaRiPublic,    // RI pss_verify / kem_encapsulate
  kCryptoDev,      // device symmetric provider calls
  kCryptoRi,       // RI symmetric provider calls
  kStoreDev,       // device StateStore::commit
  kStoreRi,        // RI StateStore::commit
  kDcfParse,       // DcfReader::parse
  kContentRead,    // ContentSession::read
  kCheck,          // the benchmark's own output check inside an operation
  kCount
};
inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);
const char* layer_name(Layer layer);

/// Which side of the protocol a decorated provider or store serves.
enum class Side : std::uint8_t { kDevice = 0, kRi = 1 };

/// Per-side work counters, in the order of Table 1's algorithms plus
/// byte volumes and store commits.
enum class Count : std::uint8_t {
  kRsaPrivate,
  kRsaPublic,
  kSha1Ops,
  kHmacOps,
  kAesEncOps,
  kAesDecOps,
  kSha1Bytes,
  kAesBytes,
  kCommits,
  kCount
};
inline constexpr std::size_t kCountKinds = static_cast<std::size_t>(Count::kCount);

/// Side-independent counters.
enum class Global : std::uint8_t {
  kRoundtrips,    // Transport::request calls over TCP
  kWireBytes,     // request + response envelope bytes over TCP
  kContentBytes,  // plaintext bytes returned by ContentSession::read
  kCount
};
inline constexpr std::size_t kGlobalKinds = static_cast<std::size_t>(Global::kCount);

struct Counters {
  std::array<std::array<std::uint64_t, kCountKinds>, 2> side{};
  std::array<std::uint64_t, kGlobalKinds> global{};

  std::uint64_t get(Side s, Count c) const {
    return side[static_cast<std::size_t>(s)][static_cast<std::size_t>(c)];
  }
  std::uint64_t get(Global g) const {
    return global[static_cast<std::size_t>(g)];
  }
};

/// One recorded span. `parent` indexes the same thread's buffer (-1 for
/// a root).
struct SpanRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t op = 0;
  std::int32_t parent = -1;
  Layer layer = Layer::kOp;
};

/// Aggregates over every recorded span of one layer.
struct LayerStats {
  std::vector<double> durations_us;
  double self_us = 0;  // summed self time
};

namespace trace {

void set_enabled(bool on);
bool enabled();
/// Tags the calling thread's following spans with operation id `op`.
void set_op(std::uint64_t op);
void count(Side side, Count c, std::uint64_t n = 1);
void count(Global g, std::uint64_t n = 1);
/// Discards every recorded span and counter (call while no thread records).
void reset();
/// Sums every thread's counters.
Counters counters();
/// Per-layer durations and self times over every thread's spans.
std::array<LayerStats, kLayerCount> analyze();
/// Writes every span as CSV (thread, op, layer, parent, start_ns, end_ns).
bool write_csv(const std::string& path);

/// RAII span; records nothing while tracing is off.
class Scope {
 public:
  explicit Scope(Layer layer);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int32_t index_ = -1;
};

}  // namespace trace

/// Provider decorator: with tracing on, forwards to `traced` (the device
/// side uses a model::MeteredCryptoProvider there, so the paper's cycle
/// model sees the same operations) inside spans and counters; with
/// tracing off, forwards to `plain` untouched.
class TracedProvider final : public omadrm::provider::CryptoProvider {
 public:
  TracedProvider(omadrm::provider::CryptoProvider& traced,
                 omadrm::provider::CryptoProvider& plain, Side side)
      : traced_(traced), plain_(plain), side_(side) {}

  omadrm::Bytes sha1(omadrm::ByteView data) override;
  omadrm::Bytes hmac_sha1(omadrm::ByteView key, omadrm::ByteView data) override;
  bool hmac_verify(omadrm::ByteView key, omadrm::ByteView data,
                   omadrm::ByteView tag) override;
  omadrm::Bytes aes_cbc_encrypt(omadrm::ByteView key, omadrm::ByteView iv,
                                omadrm::ByteView plaintext) override;
  omadrm::Bytes aes_cbc_decrypt(omadrm::ByteView key, omadrm::ByteView iv,
                                omadrm::ByteView ciphertext) override;
  omadrm::Bytes aes_wrap(omadrm::ByteView kek, omadrm::ByteView key_data) override;
  std::optional<omadrm::Bytes> aes_unwrap(omadrm::ByteView kek,
                                          omadrm::ByteView wrapped) override;
  omadrm::Bytes kdf2(omadrm::ByteView z, std::size_t out_len) override;
  void charge_sha1(std::size_t data_len) override;
  void charge_aes_cbc_decrypt(std::size_t ciphertext_len) override;
  omadrm::Bytes pss_sign(const omadrm::rsa::PrivateKey& key,
                         omadrm::ByteView message, omadrm::Rng& rng) override;
  bool pss_verify(const omadrm::rsa::PublicKey& key, omadrm::ByteView message,
                  omadrm::ByteView signature) override;
  omadrm::rsa::KemEncapsulation kem_encapsulate(
      const omadrm::rsa::PublicKey& key, omadrm::Rng& rng) override;
  omadrm::Bytes kem_decapsulate(const omadrm::rsa::PrivateKey& key,
                                omadrm::ByteView c1) override;

 private:
  Layer crypto_layer() const {
    return side_ == Side::kDevice ? Layer::kCryptoDev : Layer::kCryptoRi;
  }

  omadrm::provider::CryptoProvider& traced_;
  omadrm::provider::CryptoProvider& plain_;
  Side side_;
};

/// Transport decorator: one span per exchange under `layer`; exchanges
/// and envelope bytes are counted for the TCP layer.
class TracedTransport final : public omadrm::roap::Transport {
 public:
  TracedTransport(omadrm::roap::Transport& inner, Layer layer)
      : inner_(inner), layer_(layer) {}
  omadrm::roap::Envelope request(const omadrm::roap::Envelope& request) override;

 private:
  omadrm::roap::Transport& inner_;
  Layer layer_;
};

/// StateStore decorator: one span and one count per commit.
class TracedStore final : public omadrm::store::StateStore {
 public:
  TracedStore(omadrm::store::StateStore& inner, Side side)
      : inner_(inner), side_(side) {}
  omadrm::Result<> commit(const omadrm::store::Transaction& tx) override;
  omadrm::Result<std::vector<omadrm::store::Record>> load() override {
    return inner_.load();
  }
  std::uint64_t generation() const override { return inner_.generation(); }

 private:
  omadrm::store::StateStore& inner_;
  Side side_;
};

}  // namespace perfbench
