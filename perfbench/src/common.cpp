#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <sstream>

#include "agent/drm_agent.h"
#include "bench.h"
#include "ci/content_issuer.h"
#include "dcf/dcf_reader.h"
#include "model/analytic.h"
#include "model/metered.h"
#include "model/usecase.h"
#include "pki/authority.h"
#include "ri/rights_issuer.h"
#include "roap/transport.h"

namespace perfbench {

using namespace omadrm;  // NOLINT

std::string fmt(const char* format, ...) {
  char buf[1024];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

void Outcome::fail_check(const std::string& what) {
  correct = false;
  report.push_back("CHECK FAILED: " + what);
}

double median_setup(Outcome& out, const std::vector<double>& setup_times) {
  std::string line = "setup repetitions (s):";
  for (double s : setup_times) line += fmt(" %.3f", s);
  out.note(line);
  return percentile(setup_times, 50);
}

namespace {

double per_op(double total, std::size_t ops) {
  return ops == 0 ? 0 : total / static_cast<double>(ops);
}

const LayerStats& layer(const std::array<LayerStats, kLayerCount>& a, Layer l) {
  return a[static_cast<std::size_t>(l)];
}

double mean_us(const std::array<LayerStats, kLayerCount>& a, Layer l) {
  return mean(layer(a, l).durations_us);
}

}  // namespace

std::vector<double> subwindow_p99s(const WindowStats& w) {
  std::vector<std::pair<std::size_t, double>> by_op;
  for (std::size_t i = 0; i < w.latency_ms.size(); ++i) {
    by_op.emplace_back(w.op_index[i], w.latency_ms[i]);
  }
  std::sort(by_op.begin(), by_op.end());
  const std::size_t parts =
      std::clamp<std::size_t>(by_op.size() / 1000, 1, kTailParts);
  std::vector<double> p99s;
  for (std::size_t p = 0; p < parts; ++p) {
    std::vector<double> part;
    for (std::size_t i = p * by_op.size() / parts;
         i < (p + 1) * by_op.size() / parts; ++i) {
      part.push_back(by_op[i].second);
    }
    p99s.push_back(percentile(part, 99));
  }
  return p99s;
}

void note_window(Outcome& out, const WindowStats& w) {
  const std::size_t n = w.latency_ms.size();
  const double tail = highest_supported_percentile(n);
  out.note(fmt("window: %zu ops in %.3f s, %zu failed (error_rate %.6f), "
               "latency samples %zu, highest supported percentile p%g = "
               "%.4f ms over the whole window",
               w.ops, w.seconds, w.failed,
               per_op(static_cast<double>(w.failed), w.ops), n, tail,
               percentile(w.latency_ms, tail)));
  std::string parts = "sub-window p99s (ms):";
  for (double p : subwindow_p99s(w)) parts += fmt(" %.4f", p);
  out.note(parts);
  std::string line = fmt("wall clock: op_p50_ms %.4f, op_p99_ms %.4f",
                         percentile(w.latency_ms, 50), op_p99_ms(w));
  if (!w.lag_ms.empty()) {  // open loop against ri_server
    line += fmt("; ri_cpu_us_per_op %.3f, loadgen lag p99 %.4f ms",
                per_op(w.ri_cpu_s * 1e6, w.ops), percentile(w.lag_ms, 99));
  }
  out.note(line + fmt("; host steal %.3f %%", w.steal_pct));
}

double op_p99_ms(const WindowStats& w) {
  return percentile(subwindow_p99s(w), 50);
}

void add_end_to_end(Outcome& out, const WindowStats& w, double setup_s) {
  if (!percentile_supported(w.latency_ms.size(), 99)) {
    out.fail_check(fmt("%zu latency samples cannot support a p99",
                       w.latency_ms.size()));
  }
  note_window(out, w);
  out.note(fmt("CPU per operation: device %.3f us, ri_server %.3f us; reference "
               "kernel %.3f us per run (%g us unhindered)",
               per_op(w.device_cpu_s * 1e6, w.ops), per_op(w.ri_cpu_s * 1e6, w.ops),
               per_op(w.ref_cpu_s * 1e6, w.ops), kReferenceUs));
  out.add("setup_s", setup_s, "s");
  out.add("device_cpu_us_per_op",
          reference_us_per_op(w.device_cpu_s, w.ref_cpu_s), "us");
  out.add("total_cpu_us_per_op",
          reference_us_per_op(w.device_cpu_s + w.ri_cpu_s, w.ref_cpu_s), "us");
}

namespace {

// Exact counters of a traced run, compared with the previous traced run
// of the same workload, binaries and window length (kept in work_dir).
void check_exact_counters(Outcome& out, const Options& opt,
                          const std::vector<Metric>& exact) {
  std::uint64_t key = 1469598103934665603ull;  // FNV-1a
  auto fold = [&key](const char* data, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      key = (key ^ static_cast<unsigned char>(data[i])) * 1099511628211ull;
    }
  };
  for (const std::string& path :
       {std::string("/proc/self/exe"), opt.server_binary}) {
    std::ifstream in(path, std::ios::binary);
    char buf[1 << 16];
    while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
      fold(buf, static_cast<std::size_t>(in.gcount()));
    }
  }
  std::string current;
  for (const Metric& m : exact) current += m.name + ' ' + fmt("%.17g", m.value) + '\n';
  const std::string path =
      opt.work_dir + "/" +
      fmt("exact-%s-%016llx-%g.txt", opt.workload.c_str(),
          static_cast<unsigned long long>(key), opt.seconds);
  std::ifstream prev(path);
  if (!prev) {
    std::ofstream(path) << current;
    out.note("exact work counters: first traced run of these binaries, saved");
    return;
  }
  std::stringstream saved;
  saved << prev.rdbuf();
  if (saved.str() != current) {
    out.fail_check("exact work counters differ from the previous traced run "
                   "of these binaries:\nprevious:\n" + saved.str() + "now:\n" +
                   current);
  } else {
    out.note("exact work counters: identical to the previous traced run");
  }
}

// The layer ladder: the root layer's time per operation next to the
// self time per operation of each of its descendant layers; what is left
// is the root's own self time, which no child span covers.
std::string ladder_line(const char* what,
                        const std::array<LayerStats, kLayerCount>& layers,
                        Layer root, std::initializer_list<Layer> children,
                        std::size_t ops) {
  double root_total = 0;
  for (double us : layer(layers, root).durations_us) root_total += us;
  const double root_us = per_op(root_total, ops);
  std::string line = fmt("%s: %s %.1f us/op =", what, layer_name(root), root_us);
  double attributed = 0;
  for (Layer l : children) {
    if (layer(layers, l).durations_us.empty()) continue;
    const double self = per_op(layer(layers, l).self_us, ops);
    attributed += self;
    line += fmt(" %s %.1f +", layer_name(l), self);
  }
  line += fmt(" unattributed %.1f", root_us - attributed);
  return line;
}

}  // namespace

void add_per_layer(Outcome& out, const Options& opt, const LayerInputs& in) {
  const std::size_t ops = in.traced.ops;
  const auto& dev = in.device;
  const Counters& dc = in.device_counters;
  auto dev_count = [&](Count c) {
    return per_op(static_cast<double>(dc.get(Side::kDevice, c)), ops);
  };
  auto ri_count = [](const RiRung& r, Count c) {
    return per_op(static_cast<double>(r.counters.get(Side::kRi, c)), r.ops);
  };

  const double handle_us = mean_us(in.ri.layers, Layer::kRiHandle);
  const double roundtrip_us = mean_us(dev, Layer::kNet);
  const auto& ri_commits = layer(in.ri_write.layers, Layer::kStoreRi).durations_us;
  const auto& dev_commits = layer(dev, Layer::kStoreDev).durations_us;
  double read_s = 0;
  for (double us : layer(dev, Layer::kContentRead).durations_us) read_s += us * 1e-6;
  const double traced_p50 = percentile(in.traced.latency_ms, 50);
  const double untraced_p50 = percentile(in.untraced.latency_ms, 50);

  // Exact work counters: identical on every run of the same binaries.
  std::vector<Metric> exact = {
      {"rsa.ri_private_ops_per_op", ri_count(in.ri, Count::kRsaPrivate), "count"},
      {"rsa.ri_public_ops_per_op", ri_count(in.ri, Count::kRsaPublic), "count"},
      {"rsa.device_private_ops_per_op", dev_count(Count::kRsaPrivate), "count"},
      {"rsa.device_public_ops_per_op", dev_count(Count::kRsaPublic), "count"},
      {"net.roundtrips_per_op",
       per_op(static_cast<double>(dc.get(Global::kRoundtrips)), ops), "count"},
      {"net.wire_bytes_per_op",
       per_op(static_cast<double>(dc.get(Global::kWireBytes)), ops), "B"},
      {"store.ri_commits_per_op", ri_count(in.ri_write, Count::kCommits), "count"},
      {"store.device_commits_per_op", dev_count(Count::kCommits), "count"},
      {"crypto.sha1_bytes_per_op", dev_count(Count::kSha1Bytes), "B"},
      {"crypto.aes_bytes_per_op", dev_count(Count::kAesBytes), "B"},
  };
  check_exact_counters(out, opt, exact);

  for (Metric& m : exact) out.metrics.push_back(std::move(m));
  out.add("rsa.ri_sign_us", mean_us(in.ri.layers, Layer::kRsaRiSign), "us");
  out.add("rsa.device_private_us", mean_us(dev, Layer::kRsaDevPrivate), "us");
  out.add("rsa.device_verify_us", mean_us(dev, Layer::kRsaDevVerify), "us");
  out.add("ri.handle_us", handle_us, "us");
  out.add("ri.shard_contended_ratio", in.shard_contended_ratio, "ratio");
  out.add("net.roundtrip_us", roundtrip_us, "us");
  out.add("net.overhead_us", roundtrip_us > 0 ? roundtrip_us - handle_us : 0, "us");
  out.add("store.ri_commit_p50_us", percentile(ri_commits, 50), "us");
  out.add("store.ri_commit_p99_us", percentile(ri_commits, 99), "us");
  out.add("store.device_commit_p50_us", percentile(dev_commits, 50), "us");
  out.add("store.device_commit_p99_us", percentile(dev_commits, 99), "us");
  out.add("dcf.parse_us", mean_us(dev, Layer::kDcfParse), "us");
  out.add("content.read_mbps",
          read_s > 0 ? static_cast<double>(dc.get(Global::kContentBytes)) / read_s / 1e6 : 0,
          "MB/s");
  out.add("agent.open_content_us", mean_us(dev, Layer::kAgentOpen), "us");
  out.add("agent.self_us",
          per_op(layer(dev, Layer::kAgent).self_us + layer(dev, Layer::kAgentOpen).self_us, ops),
          "us");
  out.add("model.device_ms_sw", in.model_sw_ms, "model_ms");
  out.add("model.device_ms_hw", in.model_hw_ms, "model_ms");
  out.add("loadgen.lag_p99_ms", percentile(in.traced.lag_ms, 99), "ms");
  out.add("host.steal_pct", in.traced.steal_pct, "%");
  out.add("op_p50_ms", percentile(in.untraced.latency_ms, 50), "ms");
  out.add("op_p99_ms", op_p99_ms(in.untraced), "ms");
  out.add("max_rate_ops", in.max_rate_ops, "1/s");
  out.add("ri_cpu_us_per_op", per_op(in.untraced.ri_cpu_s * 1e6, in.untraced.ops), "us");
  out.add("content_mbps", in.content_mbps, "MB/s");

  for (const auto* samples : {&ri_commits, &dev_commits}) {
    if (!samples->empty() && !percentile_supported(samples->size(), 99)) {
      out.note(fmt("store commit p99 from %zu samples: p%g is the highest "
                   "supported",
                   samples->size(), highest_supported_percentile(samples->size())));
    }
  }
  out.note(fmt("op_p50_ms traced %.4f, untraced %.4f: tracing overhead %.4f ms",
               traced_p50, untraced_p50, traced_p50 - untraced_p50));
  if (in.ri.ops > 0) {
    out.note(fmt("net.busy_sheds_per_op %.6f, net.reconnects %.0f (0 on a "
                 "healthy run)",
                 per_op(in.busy_sheds, ops), in.reconnects));
  }
  out.note(ladder_line("layer ladder (device path, traced)", dev, Layer::kOp,
                       {Layer::kAgent, Layer::kAgentOpen, Layer::kNet,
                        Layer::kRsaDevPrivate, Layer::kRsaDevVerify,
                        Layer::kRsaDevPublic, Layer::kCryptoDev, Layer::kStoreDev,
                        Layer::kDcfParse, Layer::kContentRead, Layer::kCheck},
                       ops));
  if (in.ri.ops > 0) {
    out.note(ladder_line("layer ladder (in-process RI)", in.ri.layers,
                         Layer::kRiHandle,
                         {Layer::kRsaRiSign, Layer::kRsaRiPrivate,
                          Layer::kRsaRiPublic, Layer::kCryptoRi, Layer::kStoreRi},
                         in.ri.ops));
  }
}

ModeledMs modeled_ms(const model::CycleLedger& ledger) {
  const auto sw = model::ArchitectureProfile::pure_software();
  const auto hw = model::ArchitectureProfile::full_hardware();
  double sw_cycles = 0, hw_cycles = 0;
  for (std::size_t a = 0; a < model::kAlgorithmCount; ++a) {
    const auto algo = static_cast<model::Algorithm>(a);
    const auto ops = ledger.ops_by_algorithm(algo);
    const auto blocks = ledger.blocks_by_algorithm(algo);
    sw_cycles += sw.cycles(algo, ops, blocks);
    hw_cycles += hw.cycles(algo, ops, blocks);
  }
  return {sw.cycles_to_ms(sw_cycles), hw.cycles_to_ms(hw_cycles)};
}

// ---------------------------------------------------------------------------
// Executed versus predicted: the paper's use cases on a traced agent.
// ---------------------------------------------------------------------------

namespace {

bool run_traced_use_case(const model::UseCaseSpec& spec, Counters& counts,
                         std::string& error) {
  DeterministicRng rng(spec.seed);
  provider::CryptoProvider& network = provider::plain_provider();
  model::CycleLedger ledger(model::ArchitectureProfile::pure_software());
  model::MeteredCryptoProvider metered(ledger);
  TracedProvider device_crypto(metered, provider::plain_provider(), Side::kDevice);
  const std::uint64_t now = 1100000000;
  const pki::Validity validity{now - 86400, now + 365 * 86400};
  pki::CertificationAuthority ca("Use-case Root CA", 1024, validity, rng);
  ci::ContentIssuer issuer("content.example", network, rng);
  ri::RightsIssuer ri("ri.example", "http://ri.example/roap", ca, validity,
                      network, rng);
  const Bytes content = rng.bytes(spec.content_bytes);
  dcf::Headers headers;
  headers.content_type = "audio/mpeg";
  headers.content_id = "cid:usecase@content.example";
  headers.rights_issuer_url = ri.url();
  const Bytes wire = issuer.package(headers, content).serialize();
  const dcf::DcfReader reader = dcf::DcfReader::parse(wire);
  ri::LicenseOffer offer;
  offer.ro_id = "ro:usecase";
  offer.content_id = headers.content_id;
  offer.dcf_hash = Bytes(reader.hash().begin(), reader.hash().end());
  rel::Permission play;
  play.type = rel::PermissionType::kPlay;
  offer.permissions = {play};
  offer.kcek = *issuer.kcek_for(headers.content_id);
  ri.add_offer(offer);
  agent::DrmAgent device("device-usecase", ca.root_certificate(), device_crypto, rng);
  device.provision(ca.issue("device-usecase", device.public_key(), validity, rng));
  roap::InProcessTransport transport(ri, now);

  trace::reset();
  trace::set_enabled(true);
  bool ok = device.register_with(transport, now).ok();
  Result<roap::ProtectedRo> ro = device.acquire_ro(transport, ri.ri_id(), offer.ro_id, now);
  ok = ok && ro.ok() && device.install_ro(*ro, now) == agent::AgentStatus::kOk;
  std::vector<std::uint8_t> chunk(64 * 1024);
  for (std::size_t i = 0; ok && i < spec.playbacks; ++i) {
    agent::ContentSession s =
        device.open_content(reader, rel::PermissionType::kPlay, now + 60 * (i + 1));
    ok = s.ok();
    std::size_t total = 0;
    while (ok && s.bytes_remaining() > 0) total += s.read(chunk);
    ok = ok && total == content.size();
  }
  trace::set_enabled(false);
  counts = trace::counters();
  trace::reset();
  if (!ok) error = spec.name + ": the use case did not complete";
  return ok;
}

}  // namespace

void check_use_cases(Outcome& out) {
  const auto profile = model::ArchitectureProfile::pure_software();
  for (const model::UseCaseSpec& spec :
       {model::UseCaseSpec::ringtone(), model::UseCaseSpec::music_player()}) {
    Counters counts;
    std::string error;
    if (!run_traced_use_case(spec, counts, error)) {
      out.fail_check(error);
      continue;
    }
    const model::UseCaseReport predicted = model::analytic_use_case(spec, profile);
    const struct {
      model::Algorithm algo;
      Count count;
    } pairs[] = {{model::Algorithm::kRsaPublic, Count::kRsaPublic},
                 {model::Algorithm::kRsaPrivate, Count::kRsaPrivate},
                 {model::Algorithm::kSha1, Count::kSha1Ops},
                 {model::Algorithm::kHmacSha1, Count::kHmacOps},
                 {model::Algorithm::kAesEncrypt, Count::kAesEncOps},
                 {model::Algorithm::kAesDecrypt, Count::kAesDecOps}};
    std::string line = spec.name + ": executed/predicted device ops";
    bool match = true;
    for (const auto& p : pairs) {
      const std::uint64_t executed = counts.get(Side::kDevice, p.count);
      const std::uint64_t want = predicted.ledger.ops_by_algorithm(p.algo);
      line += fmt(" %s %llu/%llu", model::to_string(p.algo),
                  static_cast<unsigned long long>(executed),
                  static_cast<unsigned long long>(want));
      match = match && executed == want;
    }
    out.note(line);
    if (!match) out.fail_check(spec.name + ": executed operation counts differ from model::analytic_use_case");
  }
}

}  // namespace perfbench
