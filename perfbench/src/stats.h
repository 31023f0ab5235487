// Statistics and open-loop scheduling helpers shared by every workload
// (and exercised by perfbench_selftest).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// A tail percentile is only reported when at least this many samples
/// lie beyond it.
inline constexpr std::size_t kMinTailSamples = 10;

/// True when `n` samples leave at least kMinTailSamples strictly beyond
/// the `pct`-th percentile (nearest-rank).
bool percentile_supported(std::size_t n, double pct);
/// The highest of 99.9, 99, 95, 90 and 50 that `n` samples support, or 0.
double highest_supported_percentile(std::size_t n);
/// Nearest-rank percentile of `samples` (any order); 0 when empty.
double percentile(std::vector<double> samples, double pct);
double mean(const std::vector<double>& samples);

/// The end-to-end CPU metrics are in reference microseconds: CPU time
/// divided by that of a fixed kernel (host.h: reference_kernel_cpu_s)
/// run once after every operation on the same thread, times the
/// kernel's CPU time on an unhindered core of a 4-CPU KVM guest (Intel
/// Xeon, aes/sha_ni/adx/bmi2; 46 to 48 us at its 1st percentile over
/// 40,000 runs, Release build). On a shared host, a neighbour on the same
/// physical core, or a lower clock, can double CPU time for stretches of
/// milliseconds to minutes; the kernel, sampled alongside the operations,
/// slows alike, so the ratio of the two means does not move with them.
inline constexpr double kReferenceUs = 47;
/// CPU time per operation in reference microseconds, from the CPU time of
/// a window's operations (`cpu_s`) and of the kernel run once after each
/// (`ref_cpu_s`): cpu_s / ref_cpu_s * kReferenceUs; 0 without kernel time.
double reference_us_per_op(double cpu_s, double ref_cpu_s);

/// Due times (seconds from the start of a window) of `count` arrivals of
/// a Poisson process with rate `rate`, conditioned on the last arrival
/// falling at count / rate: sorted uniform draws over that span. The same
/// seed gives the same schedule.
std::vector<double> poisson_due_times(double rate, std::size_t count,
                                      std::uint64_t seed);

/// One scheduled operation of an open loop.
struct Arrival {
  double due = 0;       // seconds after the window start
  std::size_t op = 0;   // operation index
};
/// Deals arrivals round-robin onto `lanes` lanes (op k to lane k % lanes),
/// keeping each lane in due order.
std::vector<std::vector<Arrival>> split_lanes(const std::vector<double>& due,
                                              std::size_t lanes);

/// The clock an open-loop lane runs on; the self-test substitutes a
/// virtual one.
class LoopClock {
 public:
  virtual ~LoopClock() = default;
  virtual double now() = 0;
  virtual void sleep_until(double t) = 0;
};

/// Monotonic wall clock with a timed sleep.
class SteadyClock final : public LoopClock {
 public:
  double now() override;
  void sleep_until(double t) override;
};

/// Timing of one open-loop operation, all in seconds.
struct OpTiming {
  std::size_t op = 0;
  double latency = 0;  // completion - due: includes any wait behind a stall
  double lag = 0;      // start - due: how late the generator issued it
  double end = 0;      // completion time (clock units)
  bool ok = false;
};

/// Runs one lane (one connection) of an open loop: each operation starts
/// at its due time, or as soon as the previous one on the lane finishes
/// when the lane is behind, and is timed from its due time. `fn(op)`
/// returns whether the operation succeeded; `after()` runs once its
/// timing is taken.
template <typename Fn, typename After>
std::vector<OpTiming> run_lane(LoopClock& clock, double t0,
                               const std::vector<Arrival>& lane, Fn&& fn,
                               After&& after) {
  std::vector<OpTiming> out;
  out.reserve(lane.size());
  for (const Arrival& a : lane) {
    const double due = t0 + a.due;
    if (clock.now() < due) clock.sleep_until(due);
    const double start = clock.now();
    const bool ok = fn(a.op);
    const double end = clock.now();
    out.push_back(OpTiming{a.op, end - due, start - due, end, ok});
    after();
  }
  return out;
}

}  // namespace perfbench
