#include "common/failpoint.h"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "common/error.h"
#include "common/ordered_mutex.h"
#include "common/thread_annotations.h"

namespace omadrm::failpoint {

namespace {

enum class Mode : std::uint8_t {
  kOff,
  kErrorOnce,   // fail the 1st fire after arming, then disarm
  kErrorEvery,  // fail every Nth fire after arming
  kNthHit,      // fail exactly the Nth fire after arming, then disarm
  kCrashAt,     // crash at the Nth fire after arming
};

struct SiteState {
  Mode mode = Mode::kOff;
  std::uint64_t n = 1;          // mode parameter
  int err = EIO;                // errno for the error modes
  std::uint64_t hits = 0;       // fires observed while the registry is active
  std::uint64_t since_arm = 0;  // fires since the last arm()
};

// Number of sites whose mode != kOff. The fire() fast path — the only
// thing production traffic ever pays — is one relaxed load of this.
std::atomic<std::size_t> g_armed{0};

// Rank kFailpoint: sites fire under store locks (journal append paths)
// and under a connection lock (net.server.send), so the registry lock
// must outrank everything else in the tree. Function-local static keeps
// the EnvArm static-init ordering safe.
struct Registry {
  OrderedMutex mu{LockRank::kFailpoint, "common.failpoint"};
  std::map<std::string, SiteState, std::less<>> sites GUARDED_BY(mu);
};

Registry& registry() {
  static Registry r;
  return r;
}

void disarm_locked(SiteState& s) {
  if (s.mode != Mode::kOff) {
    s.mode = Mode::kOff;
    g_armed.fetch_sub(1, std::memory_order_relaxed);
  }
}

int errno_from_name(std::string_view name) {
  if (name == "EIO") return EIO;
  if (name == "ENOSPC") return ENOSPC;
  if (name == "EINTR") return EINTR;
  if (name == "EINVAL") return EINVAL;
  if (name == "EPIPE") return EPIPE;
  if (name == "ECONNRESET") return ECONNRESET;
  if (name == "EAGAIN") return EAGAIN;
  // Plain decimal is accepted for anything exotic.
  int v = 0;
  for (char c : name) {
    if (c < '0' || c > '9') {
      throw Error(ErrorKind::kFormat,
                  "failpoint: unknown errno name '" + std::string(name) + "'");
    }
    v = v * 10 + (c - '0');
  }
  if (v == 0) {
    throw Error(ErrorKind::kFormat, "failpoint: empty errno suffix");
  }
  return v;
}

std::uint64_t count_suffix(std::string_view spec, std::string_view prefix) {
  std::string_view digits = spec.substr(prefix.size());
  if (digits.empty()) {
    throw Error(ErrorKind::kFormat,
                "failpoint: '" + std::string(spec) + "' needs a count");
  }
  std::uint64_t v = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') {
      throw Error(ErrorKind::kFormat,
                  "failpoint: bad count in '" + std::string(spec) + "'");
    }
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (v == 0) {
    throw Error(ErrorKind::kFormat,
                "failpoint: count must be >= 1 in '" + std::string(spec) +
                    "'");
  }
  return v;
}

// Arms the environment spec once per process, before main() — which is
// how a forked+exec'd ri_server inherits the crash matrix's arming. A
// malformed spec dies loudly here instead of silently injecting nothing.
struct EnvArm {
  EnvArm() {
    const char* spec = std::getenv("OMADRM_FAILPOINTS");
    if (spec == nullptr || *spec == '\0') return;
    try {
      arm_from_spec(spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "failpoint: bad OMADRM_FAILPOINTS: %s\n",
                   e.what());
      ::_exit(2);
    }
  }
} g_env_arm;

}  // namespace

Action fire(const char* site) {
  if (g_armed.load(std::memory_order_relaxed) == 0) return Action{};

  Registry& r = registry();
  MutexLock lock(r.mu);
  SiteState& s = r.sites[site];  // lazily created: unarmed sites count too
  ++s.hits;
  if (s.mode == Mode::kOff) return Action{};
  ++s.since_arm;

  switch (s.mode) {
    case Mode::kErrorOnce:
      disarm_locked(s);
      return Action{Op::kError, s.err};
    case Mode::kErrorEvery:
      if (s.since_arm % s.n == 0) return Action{Op::kError, s.err};
      return Action{};
    case Mode::kNthHit:
      if (s.since_arm == s.n) {
        disarm_locked(s);
        return Action{Op::kError, s.err};
      }
      return Action{};
    case Mode::kCrashAt:
      if (s.since_arm == s.n) return Action{Op::kCrash, 0};
      return Action{};
    case Mode::kOff:
      break;
  }
  return Action{};
}

int check(const char* site) {
  const Action a = fire(site);
  if (a.op == Op::kCrash) crash_now();
  return a.op == Op::kError ? a.err : 0;
}

void crash_now() { ::_exit(kCrashExitCode); }

void arm(std::string_view site, std::string_view spec) {
  if (site.empty()) {
    throw Error(ErrorKind::kFormat, "failpoint: empty site name");
  }
  Mode mode = Mode::kOff;
  std::uint64_t n = 1;
  int err = EIO;

  std::string_view mode_spec = spec;
  if (std::size_t colon = spec.find(':'); colon != std::string_view::npos) {
    mode_spec = spec.substr(0, colon);
    err = errno_from_name(spec.substr(colon + 1));
  }

  if (mode_spec == "off") {
    mode = Mode::kOff;
  } else if (mode_spec == "error-once" || mode_spec == "error") {
    mode = Mode::kErrorOnce;
  } else if (mode_spec.rfind("error-every-", 0) == 0) {
    mode = Mode::kErrorEvery;
    n = count_suffix(mode_spec, "error-every-");
  } else if (mode_spec.rfind("nth-hit-", 0) == 0) {
    mode = Mode::kNthHit;
    n = count_suffix(mode_spec, "nth-hit-");
  } else if (mode_spec == "crash") {
    mode = Mode::kCrashAt;
  } else if (mode_spec.rfind("crash-", 0) == 0) {
    mode = Mode::kCrashAt;
    n = count_suffix(mode_spec, "crash-");
  } else {
    throw Error(ErrorKind::kFormat,
                "failpoint: unknown mode '" + std::string(mode_spec) + "'");
  }

  Registry& r = registry();
  MutexLock lock(r.mu);
  SiteState& s = r.sites[std::string(site)];
  const bool was_armed = s.mode != Mode::kOff;
  s.mode = mode;
  s.n = n;
  s.err = err;
  s.since_arm = 0;
  const bool now_armed = s.mode != Mode::kOff;
  if (now_armed && !was_armed) g_armed.fetch_add(1, std::memory_order_relaxed);
  if (!now_armed && was_armed) g_armed.fetch_sub(1, std::memory_order_relaxed);
}

void arm_from_spec(std::string_view multi_spec) {
  std::size_t pos = 0;
  while (pos < multi_spec.size()) {
    std::size_t end = multi_spec.find_first_of(";,", pos);
    if (end == std::string_view::npos) end = multi_spec.size();
    std::string_view entry = multi_spec.substr(pos, end - pos);
    pos = end + 1;
    // Tolerate "a=x; b=y" spacing in CLI flags and env vars.
    while (!entry.empty() && (entry.front() == ' ' || entry.front() == '\t')) {
      entry.remove_prefix(1);
    }
    while (!entry.empty() && (entry.back() == ' ' || entry.back() == '\t')) {
      entry.remove_suffix(1);
    }
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw Error(ErrorKind::kFormat,
                  "failpoint: entry '" + std::string(entry) +
                      "' is not <site>=<spec>");
    }
    arm(entry.substr(0, eq), entry.substr(eq + 1));
  }
}

void reset_all() {
  Registry& r = registry();
  MutexLock lock(r.mu);
  for (auto& [name, s] : r.sites) disarm_locked(s);
  r.sites.clear();
}

std::uint64_t hits(std::string_view site) {
  Registry& r = registry();
  MutexLock lock(r.mu);
  auto it = r.sites.find(site);
  return it == r.sites.end() ? 0 : it->second.hits;
}

const std::vector<SiteInfo>& catalog() {
  // One entry per fire()/check() call site in the library. Keep this in
  // lockstep with the wiring — tests/test_crash_matrix.cpp iterates the
  // "store." prefix and fails if an armed site is never reached, which
  // catches both a dead catalog entry and a renamed call site.
  static const std::vector<SiteInfo> sites = {
      {"store.journal.write",
       "FileStore journal frame append (crash = torn half-written frame)"},
      {"store.journal.fsync", "FileStore journal append fsync"},
      {"store.counter.pwrite",
       "FileStore monotonic counter in-place write (every commit)"},
      {"store.counter.fdatasync",
       "FileStore in-place counter fdatasync (durable tier)"},
      {"store.snapshot.replace.open",
       "FileStore snapshot compaction temp open"},
      {"store.snapshot.replace.write",
       "FileStore snapshot compaction temp write"},
      {"store.snapshot.replace.fsync",
       "FileStore snapshot compaction temp fsync (durable tier)"},
      {"store.snapshot.replace.rename",
       "FileStore snapshot compaction rename"},
      {"store.compact.truncate",
       "FileStore journal truncate after a durable snapshot"},
      {"store.compact.fsync",
       "FileStore truncated-journal fsync (durable tier)"},
      {"store.load.open",
       "FileStore counter and journal opens at the end of load"},
      {"store.group_commit.commit",
       "GroupCommitStore leader backing commit (fails the whole batch)"},
      {"net.server.send",
       "RiServer outbox flush send (connection is closed on failure)"},
      {"rsa.crt.fault",
       "rsadp flips a bit of the CRT p-half result (the verify-after-sign "
       "must refuse it)"},
  };
  return sites;
}

}  // namespace omadrm::failpoint
