// Self-test of the benchmark's statistics helpers: the percentile rule,
// CPU time in reference microseconds, and due-time timing of an open
// loop whose connection stalls. Exits 0 when every check holds; run.py
// runs it before every benchmark run.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

using namespace perfbench;  // NOLINT

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++g_failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

/// Virtual time: sleeping jumps the clock, operations advance it.
class VirtualClock final : public LoopClock {
 public:
  double now() override { return t; }
  void sleep_until(double until) override {
    if (until > t) t = until;
  }
  double t = 0;
};

void test_percentile_rule() {
  // Report the highest percentile with at least 10 samples beyond it.
  expect(percentile_supported(1000, 99), "1000 samples support p99");
  expect(!percentile_supported(999, 99), "999 samples do not support p99");
  expect(highest_supported_percentile(10000) == 99.9, "10000 samples -> p99.9");
  expect(highest_supported_percentile(9999) == 99, "9999 samples -> p99");
  expect(highest_supported_percentile(200) == 95, "200 samples -> p95");
  expect(highest_supported_percentile(100) == 90, "100 samples -> p90");
  expect(highest_supported_percentile(20) == 50, "20 samples -> p50");
  expect(highest_supported_percentile(5) == 0, "5 samples support nothing");

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  expect(near(percentile(v, 50), 50), "nearest-rank p50 of 1..100 is 50");
  expect(near(percentile(v, 99), 99), "nearest-rank p99 of 1..100 is 99");
  expect(near(percentile(v, 100), 100), "p100 is the maximum");
  expect(percentile({}, 50) == 0, "empty input gives 0");
}

void test_reference_us() {
  // 1000 operations of 500 us each, with a reference kernel run after
  // each that takes kReferenceUs unhindered: 500 reference us per op.
  expect(near(reference_us_per_op(0.5, kReferenceUs * 1e-3), 500),
         "unhindered CPU time reads as itself");
  // A neighbour that slows the core 1.8x slows both alike.
  expect(near(reference_us_per_op(0.9, 1.8 * kReferenceUs * 1e-3), 500),
         "a uniform slowdown cancels");
  expect(reference_us_per_op(1, 0) == 0, "no kernel time gives 0");
}

void test_due_time_under_stall() {
  // One connection, an operation due every 1 ms. Operation 2 stalls for
  // 5 ms; every other takes 0.1 ms. The operations queued behind the
  // stall must be timed from when they were due, not when they were sent.
  std::vector<double> due;
  for (int i = 0; i < 10; ++i) due.push_back(i * 1e-3);
  const auto lanes = split_lanes(due, 1);
  VirtualClock clock;
  const auto timings = run_lane(
      clock, 0.0, lanes[0],
      [&](std::size_t op) {
        clock.t += op == 2 ? 5e-3 : 0.1e-3;
        return true;
      },
      [] {});
  expect(timings.size() == 10, "every operation ran");
  expect(near(timings[2].latency, 5e-3), "the stalled op takes 5 ms");
  // Op 3 was due at 3 ms, started at 7 ms, finished at 7.1 ms.
  expect(near(timings[3].lag, 4e-3), "op 3 started 4 ms late");
  expect(near(timings[3].latency, 4.1e-3), "op 3 latency counts its wait");
  expect(near(timings[7].latency, 0.5e-3), "op 7 is still behind");
  expect(near(timings[8].lag, 0) && near(timings[8].latency, 0.1e-3),
         "op 8 is on time again");
  for (const OpTiming& t : timings) {
    expect(t.latency + 1e-12 >= t.lag, "latency includes lag");
  }
}

void test_schedule() {
  const auto a = poisson_due_times(500, 1000, 7);
  const auto b = poisson_due_times(500, 1000, 7);
  const auto c = poisson_due_times(500, 1000, 8);
  expect(a == b, "same seed, same schedule");
  expect(a != c, "another seed, another schedule");
  expect(near(a.back(), 2.0), "the last arrival is due at count / rate");
  bool sorted = true;
  for (std::size_t i = 1; i < a.size(); ++i) sorted = sorted && a[i] >= a[i - 1];
  expect(sorted, "due times are sorted");
  const auto lanes = split_lanes(a, 4);
  expect(lanes[1][0].op == 1 && lanes[1][1].op == 5, "op k goes to lane k % 4");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_reference_us();
  test_due_time_under_stall();
  test_schedule();
  if (g_failures == 0) std::printf("perfbench selftest: ok\n");
  return g_failures == 0 ? 0 : 1;
}
