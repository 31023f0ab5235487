// The `acquire` workload: RO acquisitions by a registered device
// population, an open loop against a pinned ri_server.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <iterator>
#include <memory>
#include <thread>

#include "agent/drm_agent.h"
#include "bench.h"
#include "model/metered.h"
#include "net/realm.h"
#include "net/socket_transport.h"
#include "ri/rights_issuer.h"
#include "roap/retry.h"
#include "roap/transport.h"
#include "server.h"
#include "store/file_store.h"
#include "store/group_commit_store.h"

namespace perfbench {

using namespace omadrm;  // NOLINT

namespace {

constexpr std::uint64_t kNow = net::kRealmNow;
// Registered devices (rounded down to a multiple of the connections):
// 8x the RI's Montgomery-context cache (64) and 2x its chain-verdict
// cache (256), as a real RI population would be.
constexpr std::size_t kDevices = 512;
// Nominal arrival rate: half the median max_rate_ops (1,421/s) of 25
// traced runs of an earlier, searching rate ladder on a 4-CPU KVM guest
// (quartiles 1,104/s and 1,512/s), so the server runs near half load.
constexpr double kRate = 700;
// Latency limit of a ladder rung's p99: above every op_p99_ms (6 to
// 31 ms) of twelve runs at 300/s on that host, so a rung misses when
// queueing, not host noise at light load, sets the tail.
constexpr double kLimitMs = 50;
// The ladder's rates, as multiples of kRate; each rung has kRungOps
// operations, enough for a p99 with 10 samples beyond it.
constexpr double kLadder[] = {0.5, 1, 1.5, 2, 2.5, 3, 4};
constexpr std::size_t kRungOps = 1000;
// Complete set-ups per untraced run; setup_s is their median.
constexpr std::size_t kSetups = 3;
// Acquisitions of the traced in-process RI rung.
constexpr std::size_t kInProcOps = 2000;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ull;
  return x ^ (x >> 29);
}

struct Device {
  explicit Device(std::uint64_t seed) : rng(seed) {}
  DeterministicRng rng;
  std::unique_ptr<agent::DrmAgent> agent;
};
using Population = std::vector<std::unique_ptr<Device>>;

/// One generator thread's device-side crypto: a traced, metered provider
/// whose ledger gives the paper's modeled terminal time.
struct LaneCrypto {
  model::CycleLedger ledger{model::ArchitectureProfile::pure_software()};
  model::MeteredCryptoProvider metered{ledger};
  TracedProvider provider{metered, provider::plain_provider(), Side::kDevice};
};

/// One generator connection to ri_server.
struct Link {
  Link(std::uint16_t port, std::uint64_t seed)
      : sock(config(port)), rng(seed), reliable(sock, policy, rng),
        traced(reliable, Layer::kNet) {}
  static net::SocketTransport::Config config(std::uint16_t port) {
    net::SocketTransport::Config c;
    c.port = port;
    return c;
  }
  net::SocketTransport sock;
  roap::RetryPolicy policy;
  DeterministicRng rng;
  roap::ReliableTransport reliable;
  TracedTransport traced;
};

/// A link into an in-process RightsIssuer.
struct InProcLink {
  explicit InProcLink(ri::RightsIssuer& ri)
      : inproc(ri, kNow), traced(inproc, Layer::kRiHandle) {}
  roap::InProcessTransport inproc;
  TracedTransport traced;
};

/// The offer net::Realm gives its RI.
ri::LicenseOffer realm_offer(Rng& rng) {
  ri::LicenseOffer offer;
  offer.ro_id = net::kRealmRoId;
  offer.content_id = net::kRealmContentId;
  offer.dcf_hash = Bytes(20, 0xab);
  rel::Permission play;
  play.type = rel::PermissionType::kPlay;
  offer.permissions = {play};
  offer.kcek = rng.bytes(16);
  return offer;
}

std::string make_dir(const Options& opt, const std::string& name) {
  const std::string dir = opt.work_dir + "/" + name + "-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A RightsIssuer in this process, so RI-side spans can be recorded: the
/// realm CA and offer, a traced provider, and a traced durable store
/// stack like `ri_server --store-dir` (FileStore + GroupCommitStore,
/// fsync on). It has its own RSA identity under the realm root; devices
/// registering with it replace their context for the realm RI id.
struct InProcRi {
  InProcRi(const Options& opt, net::Realm& realm, std::size_t lanes)
      : dir(make_dir(opt, "inproc-store")),
        file(dir, store::derive_storage_key(to_bytes("perfbench-ri"))),
        group(file),
        store(group, Side::kRi),
        rng(opt.seed ^ 0x1F1Dull),
        crypto(provider::plain_provider(), provider::plain_provider(), Side::kRi),
        ri(net::kRealmRiId, "http://ri.net/roap", realm.ca(), realm.validity(),
           crypto, rng, nullptr, net::kRealmRsaBits) {
    ri.add_offer(realm_offer(rng));
    bound = ri.bind_store(store).ok();
    for (std::size_t l = 0; l < lanes; ++l) links.push_back(std::make_unique<InProcLink>(ri));
  }
  ~InProcRi() { std::filesystem::remove_all(dir); }
  InProcRi(const InProcRi&) = delete;
  InProcRi& operator=(const InProcRi&) = delete;

  std::string dir;
  store::FileStore file;
  store::GroupCommitStore group;
  TracedStore store;
  DeterministicRng rng;
  TracedProvider crypto;
  ri::RightsIssuer ri;
  std::vector<std::unique_ptr<InProcLink>> links;
  bool bound = false;
};

/// Collects the spans and counters recorded since the last reset into
/// `rung`, then clears them.
void collect(RiRung& rung, const WindowStats& w, Outcome& out) {
  out.attempted += w.ops;
  out.failed += w.failed;
  rung.ops = w.ops;
  rung.layers = trace::analyze();
  rung.counters = trace::counters();
  trace::reset();
}

/// Runs `fn(i)` for i in [0, n) on `threads` threads, each taking the
/// next i when it finishes one, so a thread whose core a neighbour slows
/// takes fewer and does not hold up the rest.
template <typename Fn>
void parallel_for(std::size_t n, std::size_t threads, Fn&& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& th : pool) th.join();
}

class NetBench {
 public:
  explicit NetBench(const Options& opt) : opt_(opt) {
    split_cores(gen_cores_, srv_cores_);
    // One generator thread and connection per allowed CPU.
    lanes_ = allowed_cores().cores.size();
    if (opt.trace) {
      for (std::size_t l = 0; l < lanes_; ++l) {
        lane_crypto_.push_back(std::make_unique<LaneCrypto>());
      }
    }
  }

  std::size_t lanes() const { return lanes_; }
  const CpuSet& gen_cores() const { return gen_cores_; }
  const CpuSet& srv_cores() const { return srv_cores_; }
  net::Realm& realm() { return realm_; }

  provider::CryptoProvider& device_crypto(std::size_t lane) {
    if (!opt_.trace) return provider::plain_provider();
    return lane_crypto_[lane]->provider;
  }

  /// Mints `n` devices: key generation in parallel on every allowed
  /// core, then certificates from the realm CA one at a time in index
  /// order (the CA's single-thread rule, and deterministic serial numbers
  /// so the wire bytes repeat). Device i is driven by lane i % lanes() and
  /// uses that lane's provider.
  Population mint(std::size_t n) {
    Population pop(n);
    parallel_for(n, allowed_cores().cores.size(), [&](std::size_t i) {
      auto dev = std::make_unique<Device>(mix(opt_.seed, i));
      // Fixed-width ids keep every device's messages the same size.
      dev->agent = std::make_unique<agent::DrmAgent>(
          fmt("dev:acq-%07zu", i), realm_.ca().root_certificate(),
          device_crypto(i % lanes_), dev->rng, net::kRealmRsaBits);
      pop[i] = std::move(dev);
    });
    for (auto& dev : pop) {
      dev->agent->provision(realm_.ca().issue(dev->agent->device_id(),
                                              dev->agent->public_key(),
                                              realm_.validity(), dev->rng));
    }
    return pop;
  }

  std::vector<std::unique_ptr<Link>> connect(std::uint16_t port) {
    std::vector<std::unique_ptr<Link>> links;
    for (std::size_t l = 0; l < lanes_; ++l) {
      links.push_back(std::make_unique<Link>(port, mix(opt_.seed, 77 + l)));
    }
    return links;
  }

  /// One open-loop window: `count` operations at Poisson rate `rate`,
  /// op k on lane k % lanes(), each lane a thread pinned to the
  /// generator's cores. `fn(op, lane)` runs one operation; the lane runs
  /// the reference kernel after each, outside its timing and its
  /// device CPU.
  template <typename Fn>
  WindowStats open_loop(double rate, std::size_t count, std::uint64_t seed,
                        ServerProcess* server, Fn&& fn) {
    const auto lanes = split_lanes(poisson_due_times(rate, count, seed), lanes_);
    std::vector<double> ref_s(lanes_, 0);
    WindowStats w = run_lanes(server, lanes_, [&](std::size_t lane, LoopClock& clock, double t0) {
      return run_lane(
          clock, t0, lanes[lane], [&](std::size_t op) { return fn(op, lane); },
          [&] { ref_s[lane] += reference_kernel_cpu_s(); });
    });
    for (double s : ref_s) w.ref_cpu_s += s;
    w.device_cpu_s -= w.ref_cpu_s;
    return w;
  }

  /// A closed loop on one thread per generator core (so no thread waits
  /// for a core): operation k belongs to lane k % lanes(), and thread t
  /// runs, back to back, the operations of the lanes l with
  /// l % threads == t. Each operation is timed from its start.
  template <typename Fn>
  WindowStats closed_loop(std::size_t count, Fn&& fn) {
    const std::size_t threads = std::min(lanes_, gen_cores_.cores.size());
    return run_lanes(nullptr, threads, [&](std::size_t t, LoopClock& clock, double) {
      std::vector<OpTiming> out;
      for (std::size_t op = 0; op < count; ++op) {
        const std::size_t lane = op % lanes_;
        if (lane % threads != t) continue;
        const double start = clock.now();
        const bool ok = fn(op, lane);
        const double end = clock.now();
        out.push_back(OpTiming{op, end - start, 0, end, ok});
      }
      return out;
    });
  }

  void reset_ledgers() {
    for (auto& lc : lane_crypto_) lc->ledger.reset();
  }

  /// Modeled terminal time summed over the lanes' ledgers.
  ModeledMs modeled_ms() const {
    ModeledMs total;
    for (const auto& lc : lane_crypto_) {
      const ModeledMs m = perfbench::modeled_ms(lc->ledger);
      total.sw += m.sw;
      total.hw += m.hw;
    }
    return total;
  }

 private:
  /// Runs `lane_fn(thread, clock, t0)` on `n` threads pinned to the
  /// generator's cores, all released at once, and merges their timings.
  template <typename LaneFn>
  WindowStats run_lanes(ServerProcess* server, std::size_t n, LaneFn&& lane_fn) {
    std::vector<std::vector<OpTiming>> timings(n);
    std::vector<double> cpu(n, 0);
    std::atomic<std::size_t> ready{0};
    std::atomic<bool> go{false};
    double t0 = 0;
    std::vector<std::thread> threads;
    for (std::size_t l = 0; l < n; ++l) {
      threads.emplace_back([&, l] {
        pin(gen_cores_);
        tighten_timer_slack();
        SteadyClock clock;
        ready.fetch_add(1);
        while (!go.load()) std::this_thread::yield();
        const double c0 = thread_cpu_now();
        timings[l] = lane_fn(l, clock, t0);
        cpu[l] = thread_cpu_now() - c0;
      });
    }
    while (ready.load() < n) std::this_thread::yield();
    StealSampler steal;
    steal.start();
    const double ri0 = server ? server->cpu_seconds() : 0;
    t0 = wall_now() + 0.01;
    go.store(true);
    for (std::thread& th : threads) th.join();
    WindowStats w;
    const double ri1 = server ? server->cpu_seconds() : 0;
    w.ri_cpu_s = ri0 < 0 || ri1 < 0 ? -1 : ri1 - ri0;
    w.steal_pct = steal.stop_pct();
    double last = t0;
    for (std::size_t l = 0; l < n; ++l) {
      w.device_cpu_s += cpu[l];
      for (const OpTiming& t : timings[l]) {
        ++w.ops;
        if (!t.ok) ++w.failed;
        w.latency_ms.push_back(t.latency * 1e3);
        w.lag_ms.push_back(t.lag * 1e3);
        w.op_index.push_back(t.op);
        last = std::max(last, t.end);
      }
    }
    w.seconds = last - t0;
    return w;
  }

  const Options& opt_;
  CpuSet gen_cores_, srv_cores_;
  std::size_t lanes_ = 1;
  std::vector<std::unique_ptr<LaneCrypto>> lane_crypto_;
  net::Realm realm_;
};

/// Acquire + install + grant check for one device over `transport`.
bool acquire_and_check(agent::DrmAgent& dev, roap::Transport& transport) {
  Result<roap::ProtectedRo> ro(StatusCode::kNoRiContext);
  {
    trace::Scope span(Layer::kAgent);
    ro = dev.acquire_ro(transport, net::kRealmRiId, net::kRealmRoId, kNow);
  }
  if (!ro.ok()) return false;
  agent::AgentStatus installed;
  {
    trace::Scope span(Layer::kAgent);
    installed = dev.install_ro(*ro, kNow);
  }
  if (installed != agent::AgentStatus::kOk) return false;
  // The installed RO must grant the play permission it was issued for.
  const agent::InstalledRo* inst = dev.installed_ro(net::kRealmRoId);
  if (inst == nullptr || inst->ro.rights.content_id != net::kRealmContentId) {
    return false;
  }
  rel::RightsEnforcer probe = inst->enforcer;
  return probe.check_and_consume(rel::PermissionType::kPlay, kNow) ==
         rel::Decision::kGranted;
}

bool register_and_check(agent::DrmAgent& dev, roap::Transport& transport) {
  Result<> reg(StatusCode::kNoRiContext);
  {
    trace::Scope span(Layer::kAgent);
    reg = dev.register_with(transport, kNow);
  }
  return reg.ok() && dev.has_ri_context(net::kRealmRiId);
}

/// The rate ladder behind max_rate_ops: one rung of about kRungOps
/// operations at each multiple of kRate in kLadder, in rising order, until
/// a rung misses. A rung passes when nothing failed, its p99 latency is
/// within kLimitMs, and it left no backlog: the median start lag of its
/// last tenth of operations, which grows when arrivals outpace service, is
/// within kLimitMs too. The result is the completion rate of the highest
/// passing rung, or 0 when none passes. `run(rate, seed)` runs one rung.
template <typename RunRung>
double rate_ladder(Outcome& out, std::uint64_t seed, RunRung&& run) {
  double best = 0;
  for (std::size_t i = 0; i < std::size(kLadder); ++i) {
    const double rate = kLadder[i] * kRate;
    const WindowStats w = run(rate, mix(seed, i));
    std::vector<std::pair<std::size_t, double>> by_op;
    for (std::size_t j = 0; j < w.lag_ms.size(); ++j) {
      by_op.emplace_back(w.op_index[j], w.lag_ms[j]);
    }
    std::sort(by_op.begin(), by_op.end());
    std::vector<double> late;
    for (std::size_t j = by_op.size() - by_op.size() / 10; j < by_op.size(); ++j) {
      late.push_back(by_op[j].second);
    }
    const double tail = percentile(w.latency_ms, 99);
    const double backlog = percentile(late, 50);
    const double achieved = static_cast<double>(w.ops) / w.seconds;
    const bool pass = w.failed == 0 && tail <= kLimitMs && backlog <= kLimitMs;
    out.note(fmt("ladder rung %.0f/s: p99 %.3f ms, backlog %.3f ms, %zu failed, "
                 "completed %.1f/s -> %s",
                 rate, tail, backlog, w.failed, achieved, pass ? "pass" : "miss"));
    if (!pass) break;
    best = achieved;
  }
  return best;
}

double shard_contention(const ri::RightsIssuer& ri,
                        const std::vector<ri::RightsIssuer::ShardStats>& before) {
  const auto after = ri.shard_stats();
  double exchanges = 0, contended = 0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    exchanges += static_cast<double>(after[i].exchanges - before[i].exchanges);
    contended += static_cast<double>(after[i].contended - before[i].contended);
  }
  return exchanges > 0 ? contended / exchanges : 0;
}

void sum_link_stats(const std::vector<std::unique_ptr<Link>>& links,
                    double& busy, double& reconnects) {
  busy = 0;
  reconnects = 0;
  for (const auto& l : links) {
    busy += static_cast<double>(l->sock.stats().server_busy);
    reconnects += static_cast<double>(l->sock.stats().reconnects);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// acquire
// ---------------------------------------------------------------------------

Outcome run_acquire(const Options& opt) {
  Outcome out;
  NetBench bench(opt);
  const std::size_t lanes = bench.lanes();
  const std::size_t devices = kDevices / lanes * lanes;
  const std::size_t count = static_cast<std::size_t>(kRate * opt.seconds) / lanes * lanes;
  const std::size_t setups = opt.trace ? 1 : kSetups;
  out.note(fmt("acquire: %zu devices, %zu connections on cores %s, ri_server "
               "--workers %zu on cores %s, nominal %.0f/s x %zu ops",
               devices, lanes, bench.gen_cores().str().c_str(),
               bench.srv_cores().cores.size(), bench.srv_cores().str().c_str(),
               kRate, count));

  // Set-up: spawn the server, mint the population, register every device.
  std::unique_ptr<ServerProcess> server;
  Population pop;
  std::vector<std::unique_ptr<Link>> links;
  std::vector<double> setup_times;
  for (std::size_t rep = 0; rep < setups; ++rep) {
    if (server && !server->stop()) out.fail_check("ri_server did not drain cleanly");
    links.clear();
    pop.clear();
    const double t0 = wall_now();
    server = std::make_unique<ServerProcess>(
        opt.server_binary, bench.srv_cores(), bench.srv_cores().cores.size(),
        std::vector<std::string>{});
    pop = bench.mint(devices);
    const double minted = wall_now();
    links = bench.connect(server->port());
    std::atomic<std::size_t> bad{0};
    parallel_for(lanes, lanes, [&](std::size_t lane) {
      for (std::size_t i = lane; i < devices; i += lanes) {
        if (!register_and_check(*pop[i]->agent, links[lane]->traced)) bad.fetch_add(1);
      }
    });
    if (bad.load() != 0) out.fail_check(fmt("%zu set-up registrations failed", bad.load()));
    setup_times.push_back(wall_now() - t0);
    out.note(fmt("setup %zu: spawn + mint %.3f s, register %.3f s", rep,
                 minted - t0, wall_now() - minted));
  }
  const double setup_s = median_setup(out, setup_times);

  auto op = [&](std::size_t k, std::size_t lane) {
    trace::set_op(k);
    trace::Scope span(Layer::kOp);
    return acquire_and_check(*pop[k % devices]->agent, links[lane]->traced);
  };

  const WindowStats nominal =
      bench.open_loop(kRate, count, mix(opt.seed, 1), server.get(), op);
  out.attempted += nominal.ops;
  out.failed += nominal.failed;
  // A window with operations always costs the server CPU; none means its
  // per-thread schedstat could not be read.
  if (!(nominal.ri_cpu_s > 0)) out.fail_check("ri_server CPU time could not be read");

  if (!opt.trace) {
    add_end_to_end(out, nominal, setup_s);
  } else {
    LayerInputs in;
    in.untraced = nominal;
    note_window(out, nominal);
    // Rungs keep whole rounds of the connections, so operation k stays
    // on lane k % lanes with its device.
    const std::size_t rung_ops = kRungOps / lanes * lanes;
    std::size_t next = count;
    in.max_rate_ops = rate_ladder(out, mix(opt.seed, 2), [&](double r, std::uint64_t s) {
      WindowStats w = bench.open_loop(r, rung_ops, s, server.get(),
                                      [&](std::size_t k, std::size_t lane) {
                                        return op(next + k, lane);
                                      });
      next += rung_ops;
      // Let the server drain whatever the rung queued.
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      return w;
    });
    double busy0 = 0, reconnect0 = 0;
    sum_link_stats(links, busy0, reconnect0);
    bench.reset_ledgers();
    trace::reset();
    trace::set_enabled(true);
    in.traced = bench.open_loop(kRate, count, mix(opt.seed, 3), server.get(), op);
    trace::set_enabled(false);
    out.attempted += in.traced.ops;
    out.failed += in.traced.failed;
    in.device = trace::analyze();
    in.device_counters = trace::counters();
    sum_link_stats(links, in.busy_sheds, in.reconnects);
    in.busy_sheds -= busy0;
    in.reconnects -= reconnect0;
    const ModeledMs modeled = bench.modeled_ms();
    in.model_sw_ms = modeled.sw / static_cast<double>(in.traced.ops);
    in.model_hw_ms = modeled.hw / static_cast<double>(in.traced.ops);
    trace::write_csv(opt.work_dir + "/trace-acquire.csv");

    // The in-process rung, two traced phases on one durable RI: every
    // device registers (the RI write path: cold PKI, store commits), then
    // the same acquisition mix as the TCP window (the read path).
    InProcRi inproc(opt, bench.realm(), lanes);
    if (!inproc.bound) out.fail_check("in-process RI bind_store failed");
    trace::reset();
    trace::set_enabled(true);
    WindowStats rw = bench.closed_loop(devices, [&](std::size_t k, std::size_t lane) {
      trace::set_op(k);
      trace::Scope span(Layer::kOp);
      agent::DrmAgent& dev = *pop[k]->agent;
      return register_and_check(dev, inproc.links[lane]->traced) &&
             inproc.ri.is_registered(dev.device_id());
    });
    trace::set_enabled(false);
    collect(in.ri_write, rw, out);
    const auto shards0 = inproc.ri.shard_stats();
    const std::size_t inproc_ops = kInProcOps / lanes * lanes;
    trace::set_enabled(true);
    const WindowStats iw = bench.closed_loop(inproc_ops, [&](std::size_t k, std::size_t lane) {
      trace::set_op(k);
      trace::Scope span(Layer::kOp);
      return acquire_and_check(*pop[k % devices]->agent, inproc.links[lane]->traced);
    });
    trace::set_enabled(false);
    collect(in.ri, iw, out);
    in.shard_contended_ratio = shard_contention(inproc.ri, shards0);
    add_per_layer(out, opt, in);
    check_use_cases(out);
  }
  if (!server->stop()) out.fail_check("ri_server did not drain cleanly");
  if (out.failed != 0) out.fail_check(fmt("%llu operations failed",
                                          static_cast<unsigned long long>(out.failed)));
  return out;
}

}  // namespace perfbench
