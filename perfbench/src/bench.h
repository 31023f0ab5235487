// Shared types of the workloads (acquire, play) and the result plumbing
// main.cpp prints.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "host.h"
#include "model/ledger.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server_binary;  // ri_server
  std::string work_dir;       // scratch space inside the checkout
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports: the result line's fields plus human-readable
/// report lines printed before it.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> report;

  /// Records a failed output check (the run then reports correct=false).
  void fail_check(const std::string& what);
  void note(const std::string& line) { report.push_back(line); }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

/// Summary of one measured window of operations.
struct WindowStats {
  std::size_t ops = 0;
  std::size_t failed = 0;
  std::vector<double> latency_ms;  // from due (open loop) or start (closed)
  std::vector<double> lag_ms;      // open loop only
  std::vector<std::size_t> op_index;  // operation of each sample
  double seconds = 0;              // first due to last completion
  double device_cpu_s = 0;         // generator thread CPU
  double ri_cpu_s = 0;             // ri_server process CPU
  double ref_cpu_s = 0;            // reference kernel, run after each op
  double steal_pct = 0;
};

/// Spans and counters of one traced phase against an in-process
/// RightsIssuer.
struct RiRung {
  std::size_t ops = 0;
  std::array<LayerStats, kLayerCount> layers{};
  Counters counters;
};

/// Inputs of the per-layer metric set, gathered from a traced window (the
/// device side, over TCP or in-process for play) and, for the networked
/// workloads, an in-process RightsIssuer fed the same request mix.
struct LayerInputs {
  WindowStats traced;
  WindowStats untraced;  // same window with recording off
  std::array<LayerStats, kLayerCount> device{};
  Counters device_counters;
  RiRung ri;        // the workload's request mix
  RiRung ri_write;  // registrations: the RI's store commits
  double shard_contended_ratio = 0;
  double model_sw_ms = 0;  // per op
  double model_hw_ms = 0;  // per op
  double max_rate_ops = 0;  // rate ladder (acquire) or closed-loop rate (play)
  double busy_sheds = 0;
  double reconnects = 0;
  double content_mbps = 0;
};

/// op_p99_ms is the median of the p99 latencies of up to kTailParts
/// consecutive sub-windows (in operation order) of at least 1000
/// operations each, so a burst of host noise in one sub-window does not
/// set the figure.
inline constexpr std::size_t kTailParts = 5;
std::vector<double> subwindow_p99s(const WindowStats& w);
double op_p99_ms(const WindowStats& w);

/// Prints a window's wall-clock figures (latency percentiles, lag, steal)
/// to the report.
void note_window(Outcome& out, const WindowStats& w);
/// Appends the end-to-end metrics of an untraced run: set-up time and CPU
/// per operation in reference microseconds (see kReferenceUs). These
/// repeat on a host whose neighbours steal and share CPU; wall-clock
/// latency and throughput do not, and are per-layer.
void add_end_to_end(Outcome& out, const WindowStats& w, double setup_s);
/// Appends every per-layer metric (0 where the layer does no work on this
/// workload: every traced result carries the whole per-layer set), prints
/// the layer ladder, the tracing overhead and the shed and reconnect
/// counts, and checks the exact counters against the previous traced run
/// of the same build.
void add_per_layer(Outcome& out, const Options& opt, const LayerInputs& in);
/// The paper's modeled terminal time (ms at its 200 MHz clock) of the
/// operations charged to `ledger`, under the pure-software profile (`sw`)
/// and the full-hardware one (`hw`).
struct ModeledMs {
  double sw = 0;
  double hw = 0;
};
ModeledMs modeled_ms(const omadrm::model::CycleLedger& ledger);

/// Runs the paper's Ringtone and Music Player use cases on a traced,
/// metered agent and checks that the device's RSA, SHA-1, HMAC and AES
/// operation counts equal model::analytic_use_case's.
void check_use_cases(Outcome& out);

/// Median of `reps` setup durations, with the individual times noted.
double median_setup(Outcome& out, const std::vector<double>& setup_times);

Outcome run_acquire(const Options& opt);
Outcome run_play(const Options& opt);

std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
