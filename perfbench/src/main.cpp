// perfbench: runs one workload of the repository benchmark and prints its
// report, the host fingerprint, and (last) the one-line JSON result.
//
// Usage: perfbench --workload acquire|play --seed N --seconds S
//                  --trace 0|1 --server <ri_server> --work-dir <dir>
// Normally run through perfbench/run.py, which builds it first.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;  // NOLINT

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload acquire|play --seed N "
               "--seconds S --trace 0|1 --server PATH --work-dir DIR\n");
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      opt.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      opt.seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--server") == 0) {
      opt.server_binary = value;
    } else if (std::strcmp(flag, "--work-dir") == 0) {
      opt.work_dir = value;
    } else {
      return usage();
    }
  }
  if (opt.workload.empty() || opt.server_binary.empty() ||
      opt.work_dir.empty() || !(opt.seconds > 0)) {
    return usage();
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 1;
  }

  // Fingerprint the host before a workload pins this thread.
  const HostInfo host = host_info();
  CpuSet gen, srv;
  split_cores(gen, srv);

  Outcome out;
  try {
    std::filesystem::create_directories(opt.work_dir);
    if (opt.workload == "acquire") {
      out = run_acquire(opt);
    } else if (opt.workload == "play") {
      out = run_play(opt);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  for (const std::string& line : out.report) std::printf("%s\n", line.c_str());
  for (const Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) out.fail_check(m.name + " is not finite");
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::string flags;
  for (const std::string& f : host.flags) flags += (flags.empty() ? "\"" : ",\"") + f + "\"";
  std::printf("host: {\"nproc\": %u, \"cpu_model\": \"%s\", \"flags\": [%s], "
              "\"build_type\": \"%s\", \"generator_cpus\": \"%s\", "
              "\"server_cpus\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
              "\"trace\": %d}\n",
              host.nproc, json_escape(host.cpu_model).c_str(), flags.c_str(),
              PERFBENCH_BUILD_TYPE, gen.str().c_str(), srv.str().c_str(),
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0);

  std::string metrics;
  for (const Metric& m : out.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " +
               fmt("%.17g", std::isfinite(m.value) ? m.value : 0.0) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
