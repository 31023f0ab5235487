// The `play` workload: one device thread in a closed loop over a library
// of 32 titles (16 ringtones of 30 KB, 16 tracks of 3.5 MB, the paper's
// use-case sizes), accessed 25:5. Every access parses the DCF (hashing
// the container), opens it through the agent (which burns one use of
// the title's count-constrained RO and commits it to the device's
// durable FileStore), then drains it in 64 KiB reads.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>

#include "agent/drm_agent.h"
#include "bench.h"
#include "ci/content_issuer.h"
#include "crypto/sha1.h"
#include "dcf/dcf_reader.h"
#include "model/metered.h"
#include "pki/authority.h"
#include "ri/rights_issuer.h"
#include "roap/transport.h"
#include "store/file_store.h"

namespace perfbench {

using namespace omadrm;  // NOLINT

namespace {

constexpr std::uint64_t kNow = 1100000000;
constexpr std::size_t kTitlesPerKind = 16;
constexpr std::size_t kRingtoneBytes = 30 * 1024;
constexpr std::size_t kTrackBytes = 3584 * 1024;  // 3.5 MB
constexpr std::size_t kChunk = 64 * 1024;
// Count constraint of every title's RO: more plays than any run makes.
constexpr std::uint32_t kPlayCount = 1000000;
// Each block of 30 accesses holds 25 ringtone plays and 5 track plays.
constexpr std::size_t kBlock = 30;
constexpr std::size_t kRingtonesPerBlock = 25;
// Complete set-ups per untraced run; setup_s is their median.
constexpr std::size_t kSetups = 5;

struct Title {
  std::string ro_id;
  Bytes wire;        // serialized DCF
  Bytes plain_sha1;  // SHA-1 of the packaged plaintext
  std::size_t plain_size = 0;
};

/// Everything one set-up builds: the network side, the library, and the
/// device bound to its durable store with every title's RO installed.
struct Library {
  Library(const Options& opt, provider::CryptoProvider& device_crypto,
          const std::string& store_dir)
      : rng(opt.seed ^ 0x51A7ull),
        validity{kNow - 86400, kNow + 365 * 86400},
        ca("Play Root CA", 1024, validity, rng),
        issuer("content.example", provider::plain_provider(), rng),
        ri("ri:play", "http://ri.play/roap", ca, validity,
           provider::plain_provider(), rng),
        device("dev:play", ca.root_certificate(), device_crypto, rng) {
    device.provision(ca.issue("dev:play", device.public_key(), validity, rng));
    for (std::size_t i = 0; i < 2 * kTitlesPerKind; ++i) {
      const bool track = i >= kTitlesPerKind;
      const Bytes content = rng.bytes(track ? kTrackBytes : kRingtoneBytes);
      dcf::Headers headers;
      headers.content_type = track ? "audio/mpeg" : "audio/midi";
      headers.content_id = fmt("cid:title-%02zu@content.example", i);
      headers.rights_issuer_url = ri.url();
      headers.textual = {{"Title", fmt("Title %02zu", i)}};
      const dcf::Dcf dcf = issuer.package(headers, content);
      Title t;
      t.ro_id = fmt("ro:title-%02zu", i);
      t.wire = dcf.serialize();
      t.plain_sha1 = crypto::Sha1::hash(content);
      t.plain_size = content.size();
      ri::LicenseOffer offer;
      offer.ro_id = t.ro_id;
      offer.content_id = headers.content_id;
      offer.dcf_hash = dcf.hash();
      rel::Permission play;
      play.type = rel::PermissionType::kPlay;
      play.constraint.count = kPlayCount;
      offer.permissions = {play};
      offer.kcek = *issuer.kcek_for(headers.content_id);
      ri.add_offer(offer);
      titles.push_back(std::move(t));
    }
    file = std::make_unique<store::FileStore>(
        store_dir, store::derive_storage_key(device.device_key()));
    store::StateStore* bound = file.get();
    if (opt.trace) {
      traced = std::make_unique<TracedStore>(*file, Side::kDevice);
      bound = traced.get();
    }
    ok = device.bind_store(*bound).ok();
    roap::InProcessTransport transport(ri, kNow);
    ok = ok && device.register_with(transport, kNow).ok();
    for (const Title& t : titles) {
      if (!ok) break;
      Result<roap::ProtectedRo> ro = device.acquire_ro(transport, ri.ri_id(), t.ro_id, kNow);
      ok = ro.ok() && device.install_ro(*ro, kNow) == agent::AgentStatus::kOk;
    }
  }

  DeterministicRng rng;
  pki::Validity validity;
  pki::CertificationAuthority ca;
  ci::ContentIssuer issuer;
  ri::RightsIssuer ri;
  agent::DrmAgent device;
  std::vector<Title> titles;
  std::unique_ptr<store::FileStore> file;
  std::unique_ptr<TracedStore> traced;
  bool ok = false;
};

/// Title order: blocks of 30 accesses, each holding 25 ringtone and 5
/// track slots in seeded order, titles drawn uniformly within their kind.
std::vector<std::size_t> play_sequence(std::uint64_t seed, std::size_t blocks) {
  std::mt19937_64 gen(seed);
  std::uniform_int_distribution<std::size_t> pick(0, kTitlesPerKind - 1);
  std::vector<std::size_t> seq;
  for (std::size_t b = 0; b < blocks; ++b) {
    std::vector<bool> track(kBlock, false);
    std::fill(track.begin() + kRingtonesPerBlock, track.end(), true);
    std::shuffle(track.begin(), track.end(), gen);
    for (bool t : track) seq.push_back(pick(gen) + (t ? kTitlesPerKind : 0));
  }
  return seq;
}

struct PlayWindow {
  WindowStats w;
  double drain_s = 0;
  double service_s = 0;
  std::uint64_t plain_bytes = 0;
};

/// Closed loop: whole blocks of accesses until `seconds` have passed.
PlayWindow play_window(Outcome& out, Library& lib, double seconds,
                       std::uint64_t seed, std::size_t first_op) {
  PlayWindow pw;
  std::vector<std::uint8_t> chunk(kChunk);
  crypto::Sha1 check;
  const std::vector<std::size_t> seq = play_sequence(seed, 64);
  StealSampler steal;
  steal.start();
  const double start = wall_now();
  std::size_t k = 0;
  do {
    for (std::size_t j = 0; j < kBlock; ++j, ++k) {
      const Title& title = lib.titles[seq[k % seq.size()]];
      const auto before = lib.device.remaining_count(title.ro_id, rel::PermissionType::kPlay);
      trace::set_op(first_op + k);
      double cpu = 0, service = 0, ttfb = 0;
      std::size_t total = 0;
      bool ok = false;
      check.reset();
      {
        trace::Scope op(Layer::kOp);
        const double c0 = thread_cpu_now();
        const double t0 = wall_now();
        std::optional<dcf::DcfReader> reader;
        {
          trace::Scope span(Layer::kDcfParse);
          reader.emplace(dcf::DcfReader::parse(title.wire));
        }
        agent::ContentSession session;
        {
          trace::Scope span(Layer::kAgentOpen);
          session = lib.device.open_content(*reader, rel::PermissionType::kPlay, kNow);
        }
        ok = session.ok();
        double t = wall_now();
        cpu += thread_cpu_now() - c0;
        service += t - t0;
        while (ok && session.bytes_remaining() > 0) {
          const double rc0 = thread_cpu_now();
          const double r0 = wall_now();
          std::size_t n = 0;
          {
            trace::Scope span(Layer::kContentRead);
            n = session.read(chunk);
          }
          t = wall_now();
          cpu += thread_cpu_now() - rc0;
          service += t - r0;
          pw.drain_s += t - r0;
          if (total == 0) ttfb = t - t0;
          trace::count(Global::kContentBytes, n);
          total += n;
          if (n == 0) break;
          // Output check, outside every timed segment.
          trace::Scope span(Layer::kCheck);
          check.update(ByteView(chunk.data(), n));
        }
      }
      pw.w.ref_cpu_s += reference_kernel_cpu_s();
      ok = ok && total == title.plain_size && check.finish() == title.plain_sha1;
      const auto after = lib.device.remaining_count(title.ro_id, rel::PermissionType::kPlay);
      ok = ok && before && after && *after + 1 == *before;
      ++pw.w.ops;
      if (!ok) ++pw.w.failed;
      pw.w.latency_ms.push_back(ttfb * 1e3);
      pw.w.op_index.push_back(k);
      pw.w.device_cpu_s += cpu;
      pw.service_s += service;
      pw.plain_bytes += total;
    }
  } while (wall_now() - start < seconds);
  pw.w.seconds = wall_now() - start;
  pw.w.steal_pct = steal.stop_pct();
  if (pw.w.failed != 0) {
    out.fail_check(fmt("%zu plays failed (denied, short, or plaintext hash "
                       "mismatch)", pw.w.failed));
  }
  return pw;
}

}  // namespace

Outcome run_play(const Options& opt) {
  Outcome out;
  CpuSet gen, srv;
  split_cores(gen, srv);
  pin(CpuSet{{gen.cores.front()}});
  out.note(fmt("play: 1 device thread on core %d, %zu ringtones of %zu B + %zu "
               "tracks of %zu B, 25:5 access ratio, durable FileStore",
               gen.cores.front(), kTitlesPerKind, kRingtoneBytes, kTitlesPerKind,
               kTrackBytes));

  model::CycleLedger ledger(model::ArchitectureProfile::pure_software());
  model::MeteredCryptoProvider metered(ledger);
  TracedProvider traced_crypto(metered, provider::plain_provider(), Side::kDevice);
  provider::CryptoProvider& device_crypto =
      opt.trace ? static_cast<provider::CryptoProvider&>(traced_crypto)
                : provider::plain_provider();

  const std::string store_dir = opt.work_dir + "/device-store-" + std::to_string(::getpid());
  std::unique_ptr<Library> lib;
  std::vector<double> setup_times;
  const std::size_t setups = opt.trace ? 1 : kSetups;
  for (std::size_t rep = 0; rep < setups; ++rep) {
    lib.reset();
    std::filesystem::remove_all(store_dir);
    std::filesystem::create_directories(store_dir);
    const double t0 = wall_now();
    lib = std::make_unique<Library>(opt, device_crypto, store_dir);
    setup_times.push_back(wall_now() - t0);
    if (!lib->ok) out.fail_check("play set-up (register, acquire, install) failed");
  }
  const double setup_s = median_setup(out, setup_times);
  PlayWindow nominal = play_window(out, *lib, opt.seconds, opt.seed, 0);
  out.attempted += nominal.w.ops;
  out.failed += nominal.w.failed;
  const double content_mbps =
      nominal.drain_s > 0 ? static_cast<double>(nominal.plain_bytes) / nominal.drain_s / 1e6 : 0;
  out.note(fmt("content_mbps %.2f MB/s over %zu plays", content_mbps, nominal.w.ops));

  if (!opt.trace) {
    add_end_to_end(out, nominal.w, setup_s);
  } else {
    LayerInputs in;
    in.untraced = nominal.w;
    note_window(out, nominal.w);
    // One device thread: its closed-loop rate is the most it can play.
    in.max_rate_ops = static_cast<double>(nominal.w.ops) / nominal.service_s;
    in.content_mbps = content_mbps;
    ledger.reset();
    trace::reset();
    trace::set_enabled(true);
    PlayWindow traced = play_window(out, *lib, opt.seconds, opt.seed + 1, nominal.w.ops);
    trace::set_enabled(false);
    out.attempted += traced.w.ops;
    out.failed += traced.w.failed;
    in.traced = traced.w;
    in.device = trace::analyze();
    in.device_counters = trace::counters();
    const ModeledMs modeled = modeled_ms(ledger);
    in.model_sw_ms = modeled.sw / static_cast<double>(traced.w.ops);
    in.model_hw_ms = modeled.hw / static_cast<double>(traced.w.ops);
    trace::write_csv(opt.work_dir + "/trace-play.csv");
    trace::reset();
    add_per_layer(out, opt, in);
    check_use_cases(out);
  }
  lib.reset();
  std::filesystem::remove_all(store_dir);
  return out;
}

}  // namespace perfbench
