#include "trace.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>

namespace perfbench {

using omadrm::Bytes;
using omadrm::ByteView;

const char* layer_name(Layer layer) {
  static constexpr const char* kNames[kLayerCount] = {
      "op",           "agent",          "agent_open",     "net",
      "ri_handle",    "rsa_dev_private", "rsa_dev_verify", "rsa_dev_public",
      "rsa_ri_sign",  "rsa_ri_private", "rsa_ri_public",  "crypto_dev",
      "crypto_ri",    "store_dev",      "store_ri",       "dcf_parse",
      "content_read", "output_check"};
  return kNames[static_cast<std::size_t>(layer)];
}

namespace trace {

namespace {

struct ThreadBuffer {
  std::vector<SpanRecord> spans;
  std::int32_t current = -1;
  std::uint64_t op = 0;
  Counters counters;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_mu
thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer& buffer() {
  if (t_buffer == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->spans.reserve(1 << 16);
    t_buffer = owned.get();
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::move(owned));
  }
  return *t_buffer;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_op(std::uint64_t op) { buffer().op = op; }

void count(Side side, Count c, std::uint64_t n) {
  if (!enabled()) return;
  buffer().counters.side[static_cast<std::size_t>(side)]
                        [static_cast<std::size_t>(c)] += n;
}

void count(Global g, std::uint64_t n) {
  if (!enabled()) return;
  buffer().counters.global[static_cast<std::size_t>(g)] += n;
}

void reset() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (auto& b : g_buffers) {
    b->spans.clear();
    b->current = -1;
    b->counters = Counters{};
  }
}

Counters counters() {
  std::lock_guard<std::mutex> lock(g_mu);
  Counters total;
  for (const auto& b : g_buffers) {
    for (std::size_t s = 0; s < 2; ++s) {
      for (std::size_t c = 0; c < kCountKinds; ++c) {
        total.side[s][c] += b->counters.side[s][c];
      }
    }
    for (std::size_t g = 0; g < kGlobalKinds; ++g) {
      total.global[g] += b->counters.global[g];
    }
  }
  return total;
}

std::array<LayerStats, kLayerCount> analyze() {
  std::array<LayerStats, kLayerCount> out;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& b : g_buffers) {
    const std::vector<SpanRecord>& spans = b->spans;
    // Children of one parent are nested on its thread, so the time they
    // cover is the sum of their durations.
    std::vector<double> child_us(spans.size(), 0);
    for (const SpanRecord& s : spans) {
      if (s.parent >= 0 && s.end_ns > 0) {
        child_us[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      if (s.end_ns == 0) continue;  // never closed
      const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      LayerStats& ls = out[static_cast<std::size_t>(s.layer)];
      ls.durations_us.push_back(dur);
      ls.self_us += dur - child_us[i];
    }
  }
  return out;
}

bool write_csv(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "thread,op,layer,parent,start_ns,end_ns\n";
  std::lock_guard<std::mutex> lock(g_mu);
  for (std::size_t t = 0; t < g_buffers.size(); ++t) {
    for (const SpanRecord& s : g_buffers[t]->spans) {
      out << t << ',' << s.op << ',' << layer_name(s.layer) << ',' << s.parent
          << ',' << s.start_ns << ',' << s.end_ns << '\n';
    }
  }
  return static_cast<bool>(out);
}

Scope::Scope(Layer layer) {
  if (!enabled()) return;
  ThreadBuffer& b = buffer();
  index_ = static_cast<std::int32_t>(b.spans.size());
  b.spans.push_back(SpanRecord{now_ns(), 0, b.op, b.current, layer});
  b.current = index_;
}

Scope::~Scope() {
  if (index_ < 0) return;
  ThreadBuffer& b = buffer();
  SpanRecord& s = b.spans[static_cast<std::size_t>(index_)];
  s.end_ns = now_ns();
  b.current = s.parent;
}

}  // namespace trace

// ---------------------------------------------------------------------------
// TracedProvider: counts follow model::MeteredCryptoProvider's charging
// rules (model/metered.h), so the per-algorithm operation counts compare
// one-to-one with model::analytic_use_case's ledger.
// ---------------------------------------------------------------------------

Bytes TracedProvider::sha1(ByteView data) {
  if (!trace::enabled()) return plain_.sha1(data);
  trace::Scope span(crypto_layer());
  trace::count(side_, Count::kSha1Ops);
  trace::count(side_, Count::kSha1Bytes, data.size());
  return traced_.sha1(data);
}

Bytes TracedProvider::hmac_sha1(ByteView key, ByteView data) {
  if (!trace::enabled()) return plain_.hmac_sha1(key, data);
  trace::Scope span(crypto_layer());
  trace::count(side_, Count::kHmacOps);
  return traced_.hmac_sha1(key, data);
}

bool TracedProvider::hmac_verify(ByteView key, ByteView data, ByteView tag) {
  if (!trace::enabled()) return plain_.hmac_verify(key, data, tag);
  trace::Scope span(crypto_layer());
  trace::count(side_, Count::kHmacOps);
  return traced_.hmac_verify(key, data, tag);
}

Bytes TracedProvider::aes_cbc_encrypt(ByteView key, ByteView iv,
                                      ByteView plaintext) {
  if (!trace::enabled()) return plain_.aes_cbc_encrypt(key, iv, plaintext);
  trace::Scope span(crypto_layer());
  trace::count(side_, Count::kAesEncOps);
  trace::count(side_, Count::kAesBytes, plaintext.size());
  return traced_.aes_cbc_encrypt(key, iv, plaintext);
}

Bytes TracedProvider::aes_cbc_decrypt(ByteView key, ByteView iv,
                                      ByteView ciphertext) {
  if (!trace::enabled()) return plain_.aes_cbc_decrypt(key, iv, ciphertext);
  trace::Scope span(crypto_layer());
  trace::count(side_, Count::kAesDecOps);
  trace::count(side_, Count::kAesBytes, ciphertext.size());
  return traced_.aes_cbc_decrypt(key, iv, ciphertext);
}

Bytes TracedProvider::aes_wrap(ByteView kek, ByteView key_data) {
  if (!trace::enabled()) return plain_.aes_wrap(kek, key_data);
  trace::Scope span(crypto_layer());
  trace::count(side_, Count::kAesEncOps);
  trace::count(side_, Count::kAesBytes, key_data.size());
  return traced_.aes_wrap(kek, key_data);
}

std::optional<Bytes> TracedProvider::aes_unwrap(ByteView kek,
                                                ByteView wrapped) {
  if (!trace::enabled()) return plain_.aes_unwrap(kek, wrapped);
  trace::Scope span(crypto_layer());
  trace::count(side_, Count::kAesDecOps);
  trace::count(side_, Count::kAesBytes, wrapped.size());
  return traced_.aes_unwrap(kek, wrapped);
}

Bytes TracedProvider::kdf2(ByteView z, std::size_t out_len) {
  if (!trace::enabled()) return plain_.kdf2(z, out_len);
  trace::Scope span(crypto_layer());
  trace::count(side_, Count::kSha1Ops);
  return traced_.kdf2(z, out_len);
}

// The streaming content path executes its bulk SHA-1 / AES-CBC outside
// the provider and reports the volume here: counted, never timed.
void TracedProvider::charge_sha1(std::size_t data_len) {
  if (!trace::enabled()) return plain_.charge_sha1(data_len);
  trace::count(side_, Count::kSha1Ops);
  trace::count(side_, Count::kSha1Bytes, data_len);
  traced_.charge_sha1(data_len);
}

void TracedProvider::charge_aes_cbc_decrypt(std::size_t ciphertext_len) {
  if (!trace::enabled()) return plain_.charge_aes_cbc_decrypt(ciphertext_len);
  trace::count(side_, Count::kAesDecOps);
  trace::count(side_, Count::kAesBytes, ciphertext_len);
  traced_.charge_aes_cbc_decrypt(ciphertext_len);
}

Bytes TracedProvider::pss_sign(const omadrm::rsa::PrivateKey& key,
                               ByteView message, omadrm::Rng& rng) {
  if (!trace::enabled()) return plain_.pss_sign(key, message, rng);
  trace::Scope span(side_ == Side::kDevice ? Layer::kRsaDevPrivate
                                           : Layer::kRsaRiSign);
  trace::count(side_, Count::kRsaPrivate);
  trace::count(side_, Count::kSha1Ops);
  return traced_.pss_sign(key, message, rng);
}

bool TracedProvider::pss_verify(const omadrm::rsa::PublicKey& key,
                                ByteView message, ByteView signature) {
  if (!trace::enabled()) return plain_.pss_verify(key, message, signature);
  trace::Scope span(side_ == Side::kDevice ? Layer::kRsaDevVerify
                                           : Layer::kRsaRiPublic);
  trace::count(side_, Count::kRsaPublic);
  trace::count(side_, Count::kSha1Ops);
  return traced_.pss_verify(key, message, signature);
}

omadrm::rsa::KemEncapsulation TracedProvider::kem_encapsulate(
    const omadrm::rsa::PublicKey& key, omadrm::Rng& rng) {
  if (!trace::enabled()) return plain_.kem_encapsulate(key, rng);
  trace::Scope span(side_ == Side::kDevice ? Layer::kRsaDevPublic
                                           : Layer::kRsaRiPublic);
  trace::count(side_, Count::kRsaPublic);
  trace::count(side_, Count::kSha1Ops);
  return traced_.kem_encapsulate(key, rng);
}

Bytes TracedProvider::kem_decapsulate(const omadrm::rsa::PrivateKey& key,
                                      ByteView c1) {
  if (!trace::enabled()) return plain_.kem_decapsulate(key, c1);
  trace::Scope span(side_ == Side::kDevice ? Layer::kRsaDevPrivate
                                           : Layer::kRsaRiPrivate);
  trace::count(side_, Count::kRsaPrivate);
  trace::count(side_, Count::kSha1Ops);
  return traced_.kem_decapsulate(key, c1);
}

omadrm::roap::Envelope TracedTransport::request(
    const omadrm::roap::Envelope& request) {
  if (!trace::enabled()) return inner_.request(request);
  trace::Scope span(layer_);
  omadrm::roap::Envelope response = inner_.request(request);
  if (layer_ == Layer::kNet) {
    trace::count(Global::kRoundtrips);
    trace::count(Global::kWireBytes, request.size() + response.size());
  }
  return response;
}

omadrm::Result<> TracedStore::commit(const omadrm::store::Transaction& tx) {
  if (!trace::enabled()) return inner_.commit(tx);
  trace::Scope span(side_ == Side::kDevice ? Layer::kStoreDev
                                           : Layer::kStoreRi);
  trace::count(side_, Count::kCommits);
  return inner_.commit(tx);
}

}  // namespace perfbench
