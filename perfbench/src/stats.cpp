#include "stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>
#include <thread>

namespace perfbench {

namespace {

// Nearest-rank index (0-based) of the pct-th percentile of n samples.
std::size_t rank_index(std::size_t n, double pct) {
  // The small slack keeps e.g. 99.9% of 10000 at rank 9990 despite
  // binary rounding.
  const double rank = std::ceil(pct * static_cast<double>(n) / 100.0 - 1e-9);
  const std::size_t r = rank < 1 ? 1 : static_cast<std::size_t>(rank);
  return std::min(r, n) - 1;
}

}  // namespace

bool percentile_supported(std::size_t n, double pct) {
  if (n == 0) return false;
  return n - 1 - rank_index(n, pct) >= kMinTailSamples;
}

double highest_supported_percentile(std::size_t n) {
  for (double pct : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    if (percentile_supported(n, pct)) return pct;
  }
  return 0;
}

double percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0;
  const std::size_t idx = rank_index(samples.size(), pct);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

double reference_us_per_op(double cpu_s, double ref_cpu_s) {
  return ref_cpu_s > 0 ? cpu_s / ref_cpu_s * kReferenceUs : 0;
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

std::vector<double> poisson_due_times(double rate, std::size_t count,
                                      std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  const double span = static_cast<double>(count) / rate;
  std::uniform_real_distribution<double> uniform(0.0, span);
  std::vector<double> due(count);
  for (double& d : due) d = uniform(gen);
  std::sort(due.begin(), due.end());
  if (!due.empty()) due.back() = span;
  return due;
}

std::vector<std::vector<Arrival>> split_lanes(const std::vector<double>& due,
                                              std::size_t lanes) {
  std::vector<std::vector<Arrival>> out(lanes);
  for (std::size_t k = 0; k < due.size(); ++k) {
    out[k % lanes].push_back(Arrival{due[k], k});
  }
  return out;
}

double SteadyClock::now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SteadyClock::sleep_until(double t) {
  const auto target = std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(t)));
  std::this_thread::sleep_until(target);
}

}  // namespace perfbench
