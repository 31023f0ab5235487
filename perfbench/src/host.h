// Host-side measurement helpers: clocks, CPU accounting, core pinning and
// the host fingerprint every result carries.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall time in seconds.
double wall_now();
/// CPU time consumed by the calling thread, in seconds.
double thread_cpu_now();
/// CPU time consumed by every thread of process `pid` so far, in seconds
/// (sum of /proc/<pid>/task/*/schedstat run times, nanosecond precision).
/// Returns a negative value when the process or one of its threads cannot
/// be read.
double process_cpu_seconds(pid_t pid);

/// Runs a fixed kernel (40 products of two 2048-bit integers, schoolbook,
/// in registers and L1) once and returns the calling thread's CPU time
/// for it, in seconds. See kReferenceUs in stats.h.
double reference_kernel_cpu_s();

/// A set of logical CPUs.
struct CpuSet {
  std::vector<int> cores;
  std::string str() const;  // "0-1" / "2,3" style
};

/// Splits the CPUs this process may run on into two disjoint halves: the
/// load generator's (first half) and the server's (second half). With a
/// single CPU both halves are that CPU.
void split_cores(CpuSet& generator, CpuSet& server);
/// The CPUs this process may run on.
CpuSet allowed_cores();
/// Pins the calling thread (or process `pid` when non-zero) to `set`.
bool pin(const CpuSet& set, pid_t pid = 0);
/// Lowers the calling thread's timer slack to 1 us so timed sleeps in
/// the open-loop generator wake close to their due time.
void tighten_timer_slack();

/// Steal time share of all CPUs between start() and stop_pct().
class StealSampler {
 public:
  void start();
  double stop_pct();

 private:
  std::uint64_t steal_ = 0;
  std::uint64_t total_ = 0;
};

struct HostInfo {
  unsigned nproc = 0;
  std::string cpu_model;
  std::vector<std::string> flags;  // those of aes, sha_ni, adx, bmi2 present
};
HostInfo host_info();

}  // namespace perfbench
