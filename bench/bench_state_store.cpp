// Secure-storage benchmark: the commit path every stateful constraint
// burn now rides (a grant is only delivered after its burn is durable),
// plus reload costs — the "reboot latency" of a terminal whose state
// actually persists.
//
// Measured:
//
//   memory      MemoryStore commits/s (burn-sized records) — the
//               interface floor with no medium behind it.
//   buffered    FileStore with fsync disabled: sealed journal append +
//               counter bump + in-RAM apply, durable against process
//               death. The CI regression gate rides on this number (the
//               fsync-on figure is disk hardware, not code).
//   durable     FileStore with fsync enabled: the full power-loss-proof
//               commit (journal fsync + in-place counter fdatasync), plus
//               flushes_per_commit — the flush failpoint sites one commit
//               fires, counted in an untimed pass. It is exact (2) and
//               gated exactly.
//   load        journal replay and post-compaction snapshot load of the
//               accumulated image (fresh FileStore on the same dir).
//   agent       DrmAgent::open_content per-grant latency with and
//               without a bound (buffered) FileStore — the end-to-end
//               price of crash-safe burns on the §2.4.4 hot path.
//
// Output: human-readable summary + JSON (default BENCH_store.json),
// gated in CI by scripts/check_bench_regression.py (kind "state_store").
//
// Usage: bench_state_store [--quick] [--json <path>]
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "agent/drm_agent.h"
#include "ci/content_issuer.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "pki/authority.h"
#include "provider/provider.h"
#include "ri/rights_issuer.h"
#include "roap/transport.h"
#include "store/file_store.h"
#include "store/memory_store.h"
#include "store/state_store.h"

namespace {

using namespace omadrm;
using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1));
  return v[idx];
}

/// Burn-record sized value: the binary "st/<ro-id>" record is 105 bytes.
constexpr std::size_t kValueBytes = 105;
constexpr std::size_t kHotKeys = 32;

store::Transaction burn_tx(std::size_t i, const Bytes& value) {
  store::Transaction tx;
  tx.put("st/ro:bench-" + std::to_string(i % kHotKeys), value);
  return tx;
}

struct CommitStats {
  double commits_per_s = 0;
  double p50_us = 0;
  double p95_us = 0;
};

CommitStats run_commits(store::StateStore& s, std::size_t iters,
                        const Bytes& value) {
  std::vector<double> lat_ns;
  lat_ns.reserve(iters);
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    const Clock::time_point c0 = Clock::now();
    Result<> r = s.commit(burn_tx(i, value));
    if (!r.ok()) {
      std::fprintf(stderr, "commit failed: %s\n", r.describe().c_str());
      std::exit(1);
    }
    lat_ns.push_back(ns_since(c0));
  }
  const double total_s = ns_since(t0) / 1e9;
  CommitStats out;
  out.commits_per_s = static_cast<double>(iters) / total_s;
  out.p50_us = percentile(lat_ns, 0.50) / 1e3;
  out.p95_us = percentile(lat_ns, 0.95) / 1e3;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_store.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--json <path>]\n", argv[0]);
      return 2;
    }
  }

  const std::size_t mem_iters = quick ? 50'000 : 200'000;
  const std::size_t buf_iters = quick ? 5'000 : 20'000;
  const std::size_t dur_iters = quick ? 50 : 200;
  const std::size_t agent_iters = quick ? 300 : 2'000;

  DeterministicRng rng(0x5709E);
  const Bytes value = rng.bytes(kValueBytes);
  const Bytes seal = store::derive_storage_key(to_bytes("bench-kdev"));

  const std::filesystem::path base =
      std::filesystem::temp_directory_path() /
      ("omadrm_bench_store_" + std::to_string(::getpid()));
  std::filesystem::remove_all(base);
  struct Cleanup {
    const std::filesystem::path& p;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::remove_all(p, ec);
    }
  } cleanup{base};

  // -- memory ---------------------------------------------------------------
  store::MemoryStore mem;
  const CommitStats mem_stats = run_commits(mem, mem_iters, value);

  // -- file, buffered (the gated number) ------------------------------------
  store::FileStore::Options buffered;
  buffered.durable_fsync = false;
  store::FileStore fs_buf((base / "buffered").string(), seal, buffered);
  if (!fs_buf.load().ok()) return 1;
  const CommitStats buf_stats = run_commits(fs_buf, buf_iters, value);

  // -- file, durable fsync --------------------------------------------------
  store::FileStore fs_dur((base / "durable").string(), seal,
                          store::FileStore::Options());
  if (!fs_dur.load().ok()) return 1;
  const CommitStats dur_stats = run_commits(fs_dur, dur_iters, value);

  // Flushes per durable commit, read off the failpoint hit counters in an
  // untimed pass: they count only while some site is armed, and this
  // armed site never fires.
  constexpr std::size_t kCountedCommits = 20;
  failpoint::arm("bench.count-only", "error-once");
  for (std::size_t i = 0; i < kCountedCommits; ++i) {
    if (!fs_dur.commit(burn_tx(i, value)).ok()) return 1;
  }
  std::uint64_t flushes = 0;
  for (const auto& site : failpoint::catalog()) {
    const std::string_view name = site.name;
    if (name.ends_with(".fsync") || name.ends_with(".fdatasync")) {
      flushes += failpoint::hits(name);
    }
  }
  failpoint::reset_all();
  const double flushes_per_commit =
      static_cast<double>(flushes) / static_cast<double>(kCountedCommits);

  // -- load: journal replay vs snapshot -------------------------------------
  const std::size_t replay_commits = quick ? 2'000 : 10'000;
  store::FileStore::Options no_compact = buffered;
  no_compact.compact_after_bytes = ~std::size_t{0};
  double replay_ms = 0, snapshot_ms = 0;
  {
    store::FileStore writer((base / "load").string(), seal, no_compact);
    if (!writer.load().ok()) return 1;
    for (std::size_t i = 0; i < replay_commits; ++i) {
      if (!writer.commit(burn_tx(i, value)).ok()) return 1;
    }
    {
      store::FileStore reader((base / "load").string(), seal, no_compact);
      const Clock::time_point t0 = Clock::now();
      if (!reader.load().ok()) return 1;
      replay_ms = ns_since(t0) / 1e6;
    }
    if (!writer.compact().ok()) return 1;
    {
      store::FileStore reader((base / "load").string(), seal, no_compact);
      const Clock::time_point t0 = Clock::now();
      if (!reader.load().ok()) return 1;
      snapshot_ms = ns_since(t0) / 1e6;
    }
  }

  // -- agent: per-grant cost with and without the durable-burn barrier ------
  const std::uint64_t now = 1100000000;
  const pki::Validity validity{now - 86400, now + 365 * 86400};
  pki::CertificationAuthority ca("CMLA Root", 1024, validity, rng);
  ci::ContentIssuer ci("content.example", provider::plain_provider(), rng);
  ri::RightsIssuer ri("ri.example", "http://ri.example/roap", ca, validity,
                      provider::plain_provider(), rng);
  agent::DrmAgent device("device-01", ca.root_certificate(),
                         provider::plain_provider(), rng);
  device.provision(
      ca.issue("device-01", device.public_key(), validity, rng));
  roap::InProcessTransport transport(ri, now);

  Bytes content = rng.bytes(4096);
  dcf::Headers h;
  h.content_type = "audio/mpeg";
  h.content_id = "cid:bench@content.example";
  h.rights_issuer_url = ri.url();
  dcf::Dcf dcf = ci.package(h, content);
  ri::LicenseOffer offer;
  offer.ro_id = "ro:bench";
  offer.content_id = h.content_id;
  offer.dcf_hash = dcf.hash();
  rel::Permission play;
  play.type = rel::PermissionType::kPlay;  // unconstrained: every grant
                                           // still burns `used`
  offer.permissions = {play};
  offer.kcek = *ci.kcek_for(h.content_id);
  ri.add_offer(offer);

  if (!device.register_with(transport, now).ok()) return 1;
  auto acq = device.acquire_ro(transport, "ri.example", "ro:bench", now);
  if (!acq.ok()) return 1;
  if (device.install_ro(*acq, now) != StatusCode::kOk) return 1;

  auto open_loop = [&](std::size_t iters) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      agent::ContentSession s =
          device.open_content(dcf, rel::PermissionType::kPlay, now);
      if (!s.ok()) {
        std::fprintf(stderr, "open_content failed: %s\n",
                     to_string(s.status()));
        std::exit(1);
      }
    }
    return ns_since(t0) / 1e3 / static_cast<double>(iters);  // us/open
  };

  const double open_unbound_us = open_loop(agent_iters);
  store::FileStore agent_fs((base / "agent").string(),
                            store::derive_storage_key(device.device_key()),
                            buffered);
  if (!device.bind_store(agent_fs).ok()) return 1;
  const double open_bound_us = open_loop(agent_iters);

  // -- report ---------------------------------------------------------------
  std::printf("state-store commit throughput (burn-sized records, %zu hot "
              "keys)\n", kHotKeys);
  std::printf("  memory          %10.0f commits/s  (p50 %6.2f us)\n",
              mem_stats.commits_per_s, mem_stats.p50_us);
  std::printf("  file buffered   %10.0f commits/s  (p50 %6.2f us, p95 "
              "%6.2f us)\n",
              buf_stats.commits_per_s, buf_stats.p50_us, buf_stats.p95_us);
  std::printf("  file durable    %10.0f commits/s  (p50 %6.2f us, p95 "
              "%6.2f us, %.2f flushes/commit)\n",
              dur_stats.commits_per_s, dur_stats.p50_us, dur_stats.p95_us,
              flushes_per_commit);
  std::printf("load after %zu commits: journal replay %.2f ms, snapshot "
              "%.2f ms\n",
              replay_commits, replay_ms, snapshot_ms);
  std::printf("agent open_content: %6.2f us unbound -> %6.2f us store-"
              "backed (+%.2f us/grant for crash-safe burns)\n",
              open_unbound_us, open_bound_us,
              open_bound_us - open_unbound_us);

  std::ofstream js(json_path);
  js << "{\n  \"bench\": \"state_store\",\n";
  js << "  \"config\": {\"quick\": " << (quick ? "true" : "false")
     << ", \"value_bytes\": " << kValueBytes
     << ", \"hot_keys\": " << kHotKeys << "},\n";
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "  \"memory\": {\"commits_per_s\": %.1f, \"commit_us_p50\": "
                "%.3f},\n",
                mem_stats.commits_per_s, mem_stats.p50_us);
  js << buf;
  std::snprintf(buf, sizeof buf,
                "  \"file_buffered\": {\"commits_per_s\": %.1f, "
                "\"commit_us_p50\": %.3f, \"commit_us_p95\": %.3f},\n",
                buf_stats.commits_per_s, buf_stats.p50_us, buf_stats.p95_us);
  js << buf;
  std::snprintf(buf, sizeof buf,
                "  \"file_durable\": {\"commits_per_s\": %.1f, "
                "\"commit_us_p50\": %.3f, \"commit_us_p95\": %.3f, "
                "\"flushes_per_commit\": %.2f},\n",
                dur_stats.commits_per_s, dur_stats.p50_us, dur_stats.p95_us,
                flushes_per_commit);
  js << buf;
  std::snprintf(buf, sizeof buf,
                "  \"load\": {\"journal_commits\": %zu, \"replay_ms\": %.2f, "
                "\"snapshot_ms\": %.2f},\n",
                replay_commits, replay_ms, snapshot_ms);
  js << buf;
  std::snprintf(buf, sizeof buf,
                "  \"agent\": {\"open_unbound_us\": %.2f, "
                "\"open_bound_us\": %.2f, \"overhead_us\": %.2f}\n",
                open_unbound_us, open_bound_us,
                open_bound_us - open_unbound_us);
  js << buf << "}\n";
  return 0;
}
