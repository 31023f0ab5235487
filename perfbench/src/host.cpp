#include "host.h"

#include <dirent.h>
#include <sched.h>
#include <sys/prctl.h>
#include <time.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double process_cpu_seconds(pid_t pid) {
  const std::string task_dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* dir = ::opendir(task_dir.c_str());
  if (dir == nullptr) return -1;
  std::uint64_t total_ns = 0;
  while (dirent* e = ::readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream in(task_dir + "/" + e->d_name + "/schedstat");
    std::uint64_t run_ns = 0;
    if (!(in >> run_ns)) {
      ::closedir(dir);
      return -1;
    }
    total_ns += run_ns;
  }
  ::closedir(dir);
  return static_cast<double>(total_ns) * 1e-9;
}

double reference_kernel_cpu_s() {
  constexpr int kLimbs = 32;
  thread_local std::array<std::uint64_t, kLimbs> a = [] {
    std::array<std::uint64_t, kLimbs> v{};
    for (int i = 0; i < kLimbs; ++i) v[i] = 0x9E3779B97F4A7C15ull * (i + 1);
    return v;
  }();
  std::array<std::uint64_t, 2 * kLimbs> r{};
  const double c0 = thread_cpu_now();
  for (int rep = 0; rep < 40; ++rep) {
    r.fill(0);
    for (int i = 0; i < kLimbs; ++i) {
      unsigned __int128 carry = 0;
      for (int j = 0; j < kLimbs; ++j) {
        const unsigned __int128 p =
            static_cast<unsigned __int128>(a[i]) * a[kLimbs - 1 - j] + r[i + j] + carry;
        r[i + j] = static_cast<std::uint64_t>(p);
        carry = p >> 64;
      }
      r[i + kLimbs] = static_cast<std::uint64_t>(carry);
    }
    // Feed the product back so no repetition can be skipped.
    a[rep % kLimbs] ^= r[kLimbs + rep % kLimbs];
  }
  return thread_cpu_now() - c0;
}

std::string CpuSet::str() const {
  std::string out;
  for (std::size_t i = 0; i < cores.size();) {
    std::size_t j = i;
    while (j + 1 < cores.size() && cores[j + 1] == cores[j] + 1) ++j;
    if (!out.empty()) out += ',';
    out += std::to_string(cores[i]);
    if (j > i) out += '-' + std::to_string(cores[j]);
    i = j + 1;
  }
  return out;
}

CpuSet allowed_cores() {
  CpuSet out;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) out.cores.push_back(c);
    }
  }
  if (out.cores.empty()) out.cores.push_back(0);
  return out;
}

void split_cores(CpuSet& generator, CpuSet& server) {
  const CpuSet all = allowed_cores();
  generator.cores.clear();
  server.cores.clear();
  if (all.cores.size() < 2) {
    generator = all;
    server = all;
    return;
  }
  const std::size_t half = all.cores.size() / 2;
  for (std::size_t i = 0; i < all.cores.size(); ++i) {
    (i < half ? generator : server).cores.push_back(all.cores[i]);
  }
}

bool pin(const CpuSet& set, pid_t pid) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (int c : set.cores) CPU_SET(c, &mask);
  return sched_setaffinity(pid, sizeof(mask), &mask) == 0;
}

void tighten_timer_slack() { ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0); }

namespace {

// Aggregate "cpu" line of /proc/stat: user nice system idle iowait irq
// softirq steal ...
bool read_cpu_line(std::uint64_t& steal, std::uint64_t& total) {
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return false;
  std::uint64_t v = 0;
  steal = 0;
  total = 0;
  for (int field = 0; field < 8 && (in >> v); ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return true;
}

}  // namespace

void StealSampler::start() { read_cpu_line(steal_, total_); }

double StealSampler::stop_pct() {
  std::uint64_t steal = 0, total = 0;
  if (!read_cpu_line(steal, total) || total <= total_) return 0;
  return 100.0 * static_cast<double>(steal - steal_) /
         static_cast<double>(total - total_);
}

HostInfo host_info() {
  HostInfo info;
  info.nproc = std::thread::hardware_concurrency();
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  std::string flags_line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos || colon == 0) continue;
    const std::string key = line.substr(0, line.find_last_not_of(" \t", colon - 1) + 1);
    const std::string value =
        colon + 2 <= line.size() ? line.substr(colon + 2) : std::string();
    if (key == "model name" && info.cpu_model.empty()) info.cpu_model = value;
    if (key == "flags" && flags_line.empty()) flags_line = value;
  }
  std::istringstream fs(flags_line);
  std::string flag;
  while (fs >> flag) {
    if (flag == "aes" || flag == "sha_ni" || flag == "adx" || flag == "bmi2") {
      info.flags.push_back(flag);
    }
  }
  return info;
}

}  // namespace perfbench
