// Failpoint registry semantics + the crash-recovery matrix.
//
// The matrix is the tentpole robustness artifact: for EVERY store-layer
// failpoint site in the compiled-in catalog, fork a real FileStore/
// DrmAgent burn workload, arm a crash at that site, let the process die
// mid-operation (_exit, no flushing — the closest a test gets to pulling
// the plug), then reload the torn medium in the parent and prove the
// crash-safety contract held:
//
//   zero refunds   every grant the client OBSERVED is burned in storage
//                  (remaining <= budget - delivered);
//   at most one    at most one burn can be charged-but-undelivered (the
//   in flight      one whose commit the crash interrupted);
//   no rollback    the reload never reports kStoreRollback — a crash is
//                  not a replay attack.
//
// Sites are enumerated from failpoint::catalog(), so a new store I/O
// site added without a matrix entry fails the test instead of silently
// escaping coverage.
//
// The second half exercises the same contract end to end through the
// ri_server BINARY: spawn it with --store-dir and a crash armed via
// OMADRM_FAILPOINTS (inherited through exec — the env-arming path),
// drive real ROAP sessions at it until it dies with kCrashExitCode,
// restart it on the same directory, and require it to come back serving.
#include <gtest/gtest.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "agent/drm_agent.h"
#include "agent/sessions.h"
#include "ci/content_issuer.h"
#include "common/error.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "net/realm.h"
#include "net/socket_transport.h"
#include "pki/authority.h"
#include "provider/provider.h"
#include "ri/rights_issuer.h"
#include "roap/retry.h"
#include "store/file_store.h"
#include "store/group_commit_store.h"
#include "store/state_store.h"

namespace omadrm {
namespace {

using agent::AgentStatus;
using agent::DrmAgent;
using store::FileStore;

// ---------------------------------------------------------------------------
// Failpoint registry semantics
// ---------------------------------------------------------------------------

struct FailpointGuard {
  ~FailpointGuard() { failpoint::reset_all(); }
};

TEST(Failpoint, UnarmedSitesProceedForFree) {
  FailpointGuard guard;
  const auto a = failpoint::fire("nothing.armed.anywhere");
  EXPECT_EQ(a.op, failpoint::Op::kProceed);
  EXPECT_EQ(failpoint::check("nothing.armed.anywhere"), 0);
  // Dormant registry: hits are not even counted.
  EXPECT_EQ(failpoint::hits("nothing.armed.anywhere"), 0u);
}

TEST(Failpoint, ErrorOnceFiresExactlyOnceThenDisarms) {
  FailpointGuard guard;
  failpoint::arm("site.a", "error-once:ENOSPC");
  const auto first = failpoint::fire("site.a");
  EXPECT_EQ(first.op, failpoint::Op::kError);
  EXPECT_EQ(first.err, ENOSPC);
  EXPECT_EQ(failpoint::fire("site.a").op, failpoint::Op::kProceed);
  EXPECT_EQ(failpoint::fire("site.a").op, failpoint::Op::kProceed);
}

TEST(Failpoint, ErrorEveryNFiresPeriodically) {
  FailpointGuard guard;
  failpoint::arm("site.b", "error-every-3:EIO");
  int errors = 0;
  for (int i = 0; i < 9; ++i) {
    if (failpoint::fire("site.b").op == failpoint::Op::kError) ++errors;
  }
  EXPECT_EQ(errors, 3);
}

TEST(Failpoint, NthHitFiresExactlyTheNthHit) {
  FailpointGuard guard;
  failpoint::arm("site.c", "nth-hit-3");
  EXPECT_EQ(failpoint::fire("site.c").op, failpoint::Op::kProceed);
  EXPECT_EQ(failpoint::fire("site.c").op, failpoint::Op::kProceed);
  const auto third = failpoint::fire("site.c");
  EXPECT_EQ(third.op, failpoint::Op::kError);
  EXPECT_EQ(third.err, EIO);  // default errno
  EXPECT_EQ(failpoint::fire("site.c").op, failpoint::Op::kProceed);
}

TEST(Failpoint, HitCountersCountWhileAnySiteIsArmed) {
  FailpointGuard guard;
  failpoint::arm("site.armed", "error-once");
  (void)failpoint::fire("site.other");
  (void)failpoint::fire("site.other");
  EXPECT_EQ(failpoint::hits("site.other"), 2u);
}

TEST(Failpoint, OffDisarmsAndResetAllClears) {
  FailpointGuard guard;
  failpoint::arm("site.d", "error-every-1");
  EXPECT_EQ(failpoint::fire("site.d").op, failpoint::Op::kError);
  failpoint::arm("site.d", "off");
  EXPECT_EQ(failpoint::fire("site.d").op, failpoint::Op::kProceed);
  failpoint::reset_all();
  EXPECT_EQ(failpoint::hits("site.d"), 0u);
}

TEST(Failpoint, MultiSpecArmsEverySite) {
  FailpointGuard guard;
  failpoint::arm_from_spec(
      "site.x=error-once:EPIPE; site.y=error-every-2:ECONNRESET");
  const auto x = failpoint::fire("site.x");
  EXPECT_EQ(x.op, failpoint::Op::kError);
  EXPECT_EQ(x.err, EPIPE);
  EXPECT_EQ(failpoint::fire("site.y").op, failpoint::Op::kProceed);
  EXPECT_EQ(failpoint::fire("site.y").op, failpoint::Op::kError);
}

TEST(Failpoint, MalformedSpecsThrowFormat) {
  FailpointGuard guard;
  for (const char* bad :
       {"", "error-every-0", "error-every-x", "frobnicate", "crash-0",
        "error-once:EWHATEVER"}) {
    EXPECT_THROW(failpoint::arm("site.bad", bad), Error) << bad;
  }
  EXPECT_THROW(failpoint::arm_from_spec("no-equals-sign"), Error);
}

TEST(Failpoint, CatalogListsEveryStoreAndServerSite) {
  // The matrix below iterates this catalog; pin the sites the rest of
  // this PR wired in so a rename breaks loudly here, not silently there.
  std::vector<std::string> names;
  for (const auto& site : failpoint::catalog()) names.push_back(site.name);
  for (const char* expected :
       {"store.journal.write", "store.journal.fsync", "store.counter.pwrite",
        "store.counter.fdatasync", "store.snapshot.replace.rename",
        "store.compact.truncate", "store.load.open",
        "store.group_commit.commit", "net.server.send"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "catalog lost site " << expected;
  }
}

// ---------------------------------------------------------------------------
// Crash-recovery matrix over every store failpoint site
// ---------------------------------------------------------------------------

struct TempDir {
  std::filesystem::path path;

  explicit TempDir(const std::string& tag) {
    static int counter = 0;
    path = std::filesystem::temp_directory_path() /
           ("omadrm_crashmx_" + tag + "_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    std::filesystem::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

constexpr std::uint64_t kNow = 1100000000;
const pki::Validity kValidity{kNow - 86400, kNow + 365 * 86400};
constexpr std::uint32_t kBudget = 30;

/// How to shape the workload so a given site is actually reached.
struct SiteWorkload {
  bool durable_fsync = false;  // fsync-tier sites need the durable path
  bool compact = false;        // tiny compact_after_bytes forces compaction
  bool group_commit = false;   // route commits through GroupCommitStore
  bool crash_on_reload = false;  // site fires in load(), not commit()
};

const std::map<std::string, SiteWorkload>& site_workloads() {
  static const std::map<std::string, SiteWorkload> m = {
      {"store.journal.write", {}},
      {"store.journal.fsync", {.durable_fsync = true}},
      {"store.counter.pwrite", {}},
      {"store.counter.fdatasync", {.durable_fsync = true}},
      {"store.snapshot.replace.open", {.compact = true}},
      {"store.snapshot.replace.write", {.compact = true}},
      {"store.snapshot.replace.fsync",
       {.durable_fsync = true, .compact = true}},
      {"store.snapshot.replace.rename", {.compact = true}},
      {"store.compact.truncate", {.compact = true}},
      {"store.compact.fsync", {.durable_fsync = true, .compact = true}},
      {"store.load.open", {.crash_on_reload = true}},
      {"store.group_commit.commit", {.group_commit = true}},
  };
  return m;
}

/// The matrix workload, one site per fork. Parent-side it builds the full
/// PKI + agent + store fixture and delivers two grants; the child then
/// arms a crash at `site` and keeps burning until the site kills it.
/// Every grant the (parent or child) client observes is reported through
/// `delivered`; the parent reloads the torn directory and checks the
/// contract.
void run_crash_site(const std::string& site, const SiteWorkload& w) {
  SCOPED_TRACE("site=" + site);
  TempDir dir(site);

  DeterministicRng rng(0x57E);
  pki::CertificationAuthority ca("CMLA Root", 1024, kValidity, rng);
  ci::ContentIssuer ci("content.example", provider::plain_provider(), rng);
  ri::RightsIssuer ri("ri.example", "http://ri.example/roap", ca, kValidity,
                      provider::plain_provider(), rng);
  DrmAgent device("device-01", ca.root_certificate(),
                  provider::plain_provider(), rng);
  device.provision(ca.issue("device-01", device.public_key(), kValidity, rng));
  roap::InProcessTransport tx(ri, kNow);

  Bytes content = rng.bytes(1500);
  dcf::Headers h;
  h.content_type = "audio/mpeg";
  h.content_id = "cid:crashmx@content.example";
  h.rights_issuer_url = ri.url();
  dcf::Dcf dcf = ci.package(h, content);
  ri::LicenseOffer offer;
  offer.ro_id = "ro:crashmx";
  offer.content_id = h.content_id;
  offer.dcf_hash = dcf.hash();
  rel::Permission play;
  play.type = rel::PermissionType::kPlay;
  play.constraint.count = kBudget;
  offer.permissions = {play};
  offer.kcek = *ci.kcek_for(h.content_id);
  ri.add_offer(offer);

  FileStore::Options opts;
  opts.durable_fsync = w.durable_fsync;
  if (w.compact) opts.compact_after_bytes = 1;  // compact after every commit
  FileStore fs(dir.str(), store::derive_storage_key(device.device_key()),
               opts);
  std::unique_ptr<store::GroupCommitStore> group;
  if (w.group_commit) {
    group = std::make_unique<store::GroupCommitStore>(fs);
    ASSERT_TRUE(device.bind_store(*group).ok());
  } else {
    ASSERT_TRUE(device.bind_store(fs).ok());
  }
  ASSERT_EQ(device.register_with(tx, kNow), AgentStatus::kOk);
  auto acq = device.acquire_ro(tx, "ri.example", "ro:crashmx", kNow);
  ASSERT_EQ(acq, AgentStatus::kOk);
  ASSERT_EQ(device.install_ro(*acq, kNow), AgentStatus::kOk);

  // Two grants delivered pre-fork, durably committed.
  std::size_t delivered = 0;
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(device.consume(dcf, rel::PermissionType::kPlay, kNow).status,
              AgentStatus::kOk);
    ++delivered;
  }

  int pipefd[2];
  ASSERT_EQ(::pipe(pipefd), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // --- child: no gtest machinery, communicate via pipe + exit code ---
    ::close(pipefd[0]);
    failpoint::arm(site, "crash");
    if (w.crash_on_reload) {
      // The load-path site can only fire in a fresh load of the medium.
      FileStore::Options ropts = opts;
      ropts.recover_torn_tail = true;
      FileStore fs2(dir.str(),
                    store::derive_storage_key(device.device_key()), ropts);
      (void)fs2.load();  // crash fires in here
      ::_exit(0);        // site never fired: parent fails the matrix
    }
    for (std::uint32_t i = 0; i < kBudget; ++i) {
      if (device.consume(dcf, rel::PermissionType::kPlay, kNow).status !=
          AgentStatus::kOk) {
        ::_exit(91);  // refused before the crash fired: unexpected
      }
      // The grant was observed AFTER the commit — exactly the client's
      // view. A crash inside the next consume's commit means this byte
      // was never written, which is what "undelivered" means.
      const char one = 1;
      if (::write(pipefd[1], &one, 1) != 1) ::_exit(92);
    }
    ::_exit(0);  // burned the whole budget without crashing
  }

  // --- parent ---
  ::close(pipefd[1]);
  char buf[64];
  ssize_t n;
  while ((n = ::read(pipefd[0], buf, sizeof buf)) > 0) {
    delivered += static_cast<std::size_t>(n);
  }
  ::close(pipefd[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child died by signal";
  ASSERT_EQ(WEXITSTATUS(status), failpoint::kCrashExitCode)
      << "the armed site was never reached by this workload shape";

  // Reload the torn medium. A crash mid-append may leave a torn trailing
  // frame; the owner-of-the-medium reboot policy drops it.
  FileStore::Options recover = opts;
  recover.recover_torn_tail = true;
  FileStore fs2(dir.str(), store::derive_storage_key(device.device_key()),
                recover);
  auto rebooted =
      DrmAgent::from_store(fs2, device.device_key(), ca.root_certificate(),
                           provider::plain_provider(), rng);
  ASSERT_NE(rebooted.code(), StatusCode::kStoreRollback)
      << "crash misread as a rollback attack: " << rebooted.describe();
  ASSERT_TRUE(rebooted.ok()) << rebooted.describe();

  const auto remaining =
      rebooted->remaining_count("ro:crashmx", rel::PermissionType::kPlay);
  ASSERT_TRUE(remaining.has_value());
  // Zero refunds: every observed grant is burned on the medium.
  EXPECT_LE(*remaining, kBudget - delivered)
      << "a delivered grant was refunded by the crash";
  // Conservative by at most the single in-flight burn the crash cut.
  EXPECT_GE(*remaining + delivered + 1, kBudget)
      << "more than one undelivered grant was charged";
}

TEST(CrashMatrix, EveryStoreSiteRecoversWithZeroRefunds) {
  std::size_t covered = 0;
  for (const auto& site : failpoint::catalog()) {
    const auto it = site_workloads().find(site.name);
    if (it == site_workloads().end()) {
      // Only non-store sites may be absent from the matrix.
      EXPECT_EQ(std::string(site.name).rfind("store.", 0), std::string::npos)
          << "store site " << site.name << " has no crash-matrix workload";
      continue;
    }
    run_crash_site(it->first, it->second);
    if (HasFatalFailure()) return;
    ++covered;
  }
  EXPECT_EQ(covered, site_workloads().size());
}

/// A fresh store's first-ever commit, crashed at a counter site. Its frame
/// at generation 1 is on the medium while the counter still reads the 0
/// that load() created it with: the journal is one generation ahead,
/// which the reload must accept with the burn kept, not call corrupt (a
/// half-created counter file) or rolled back (no counter at all).
void run_first_commit_crash(const std::string& site, bool durable) {
  SCOPED_TRACE("site=" + site + (durable ? " durable" : " buffered"));
  TempDir dir("first");
  FileStore::Options opts;
  opts.durable_fsync = durable;
  const Bytes key = store::derive_storage_key(to_bytes("first-commit"));

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    failpoint::arm(site, "crash");
    FileStore fs(dir.str(), key, opts);
    store::Transaction burn;
    burn.put("st/ro:first", to_bytes("used=1"));
    (void)fs.commit(burn);  // crash fires in here
    ::_exit(0);             // site never fired: the parent fails the row
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child died by signal";
  ASSERT_EQ(WEXITSTATUS(status), failpoint::kCrashExitCode)
      << "the first commit never reached the armed site";

  FileStore fs2(dir.str(), key, opts);
  auto loaded = fs2.load();
  ASSERT_TRUE(loaded.ok()) << loaded.describe();
  EXPECT_EQ(fs2.generation(), 1u);
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ((*loaded)[0].key, "st/ro:first");
  EXPECT_EQ((*loaded)[0].value, to_bytes("used=1"));
}

TEST(CrashMatrix, FirstCommitCounterCrashKeepsTheBurn) {
  run_first_commit_crash("store.counter.pwrite", /*durable=*/false);
  run_first_commit_crash("store.counter.pwrite", /*durable=*/true);
  run_first_commit_crash("store.counter.fdatasync", /*durable=*/true);
}

// ---------------------------------------------------------------------------
// The same contract through the ri_server binary (env-armed failpoints)
// ---------------------------------------------------------------------------

const char* server_binary() {
  const char* env = ::getenv("RI_SERVER_BIN");
  return env != nullptr ? env : "./ri_server";  // ctest runs in build dir
}

struct ServerProc {
  pid_t pid = -1;
  std::uint16_t port = 0;

  ~ServerProc() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      int status = 0;
      (void)::waitpid(pid, &status, 0);
    }
  }

  /// Blocks until the child exits; returns its wait status.
  int wait() {
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid) return -1;
    pid = -1;
    return status;
  }
};

/// fork+exec ri_server; OMADRM_FAILPOINTS crosses the exec boundary via
/// the environment (the static-init arming path under test). Returns a
/// running server whose LISTENING line has been parsed, or pid == -1.
ServerProc spawn_server(const std::vector<std::string>& extra_args,
                        const std::string& failpoints) {
  ServerProc proc;
  int out[2];
  if (::pipe(out) != 0) return proc;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(out[0]);
    ::close(out[1]);
    return proc;
  }
  if (pid == 0) {
    ::close(out[0]);
    ::dup2(out[1], STDOUT_FILENO);
    ::close(out[1]);
    if (!failpoints.empty()) {
      ::setenv("OMADRM_FAILPOINTS", failpoints.c_str(), 1);
    } else {
      ::unsetenv("OMADRM_FAILPOINTS");
    }
    std::vector<std::string> args = {server_binary(), "--port", "0",
                                     "--workers", "2"};
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(out[1]);
  // Read "LISTENING <port>\n".
  std::string line;
  char c;
  while (line.size() < 64 && ::read(out[0], &c, 1) == 1 && c != '\n') {
    line.push_back(c);
  }
  ::close(out[0]);
  if (line.rfind("LISTENING ", 0) == 0) {
    proc.pid = pid;
    proc.port = static_cast<std::uint16_t>(std::atoi(line.c_str() + 10));
  } else {
    ::kill(pid, SIGKILL);
    int status = 0;
    (void)::waitpid(pid, &status, 0);
  }
  return proc;
}

TEST(CrashMatrix, RiServerSurvivesMidCommitCrashAndRestartsServing) {
  if (::access(server_binary(), X_OK) != 0) {
    GTEST_SKIP() << "ri_server binary not found at " << server_binary();
  }
  TempDir dir("riserver");

  // Phase 1: a server whose 3rd journal append dies mid-write. The store
  // only commits on state-mutating exchanges, so a couple of sessions
  // reach the armed site quickly.
  ServerProc crashing = spawn_server(
      {"--store-dir", dir.str()}, "store.journal.write=crash-3");
  ASSERT_GT(crashing.pid, 0) << "server with crash armed failed to start";

  net::Realm realm;  // default seed matches the server's default --seed
  roap::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.deadline_ms = 4000;
  int ok_sessions = 0;
  for (int i = 0; i < 8; ++i) {
    auto dev = realm.make_agent("dev:crash-" + std::to_string(i));
    net::SocketTransport::Config tc;
    tc.port = crashing.port;
    tc.connect_timeout_ms = 1000;
    tc.read_timeout_ms = 1000;
    net::SocketTransport t(tc);
    DeterministicRng rng(0xCA11 + i);
    roap::ReliableTransport reliable(t, policy, rng);
    try {
      if (dev->register_with(reliable, net::kRealmNow, policy).ok()) {
        ++ok_sessions;
        continue;
      }
    } catch (const Error&) {
      // transport loss: the server just died mid-commit
    }
    break;
  }
  const int status = crashing.wait();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), failpoint::kCrashExitCode)
      << "server exited " << WEXITSTATUS(status)
      << " instead of crashing at the armed site (ok_sessions="
      << ok_sessions << ")";

  // Phase 2: restart on the torn directory, nothing armed. It must come
  // back LISTENING (recover_torn_tail reboot policy) and serve sessions.
  ServerProc recovered = spawn_server({"--store-dir", dir.str()}, "");
  ASSERT_GT(recovered.pid, 0)
      << "server failed to restart on the post-crash store";
  auto dev = realm.make_agent("dev:post-crash");
  net::SocketTransport::Config tc;
  tc.port = recovered.port;
  net::SocketTransport t(tc);
  DeterministicRng rng(0xCA11 + 99);
  roap::ReliableTransport reliable(t, policy, rng);
  ASSERT_TRUE(dev->register_with(reliable, net::kRealmNow, policy).ok());
  ASSERT_TRUE(dev->acquire_ro(reliable, net::kRealmRiId, net::kRealmRoId,
                              net::kRealmNow, policy)
                  .ok());
}

}  // namespace
}  // namespace omadrm
