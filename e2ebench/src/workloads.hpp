#pragma once

// The four workloads and what they share: seeded input generation, the
// sequential paper-mode oracle, per-file comparison, and the metric list a
// run reports.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2ebench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for the store file and span dumps.
  std::string work_dir = ".bench_build/e2ebench-work";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Per-file disagreements with the oracle (a subset of `failed`); any
  /// makes the run incorrect and the command exit non-zero.
  std::uint64_t mismatches = 0;
  std::vector<std::string> mismatch_examples;
  std::vector<Metric> metrics;
  /// Human-readable report (per-layer table, notes), printed before the
  /// JSON result line.
  std::string report;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void mismatch(std::string what) {
    ++mismatches;
    ++failed;
    if (mismatch_examples.size() < 8) mismatch_examples.push_back(std::move(what));
  }
};

/// Workloads. Each generates its inputs from opts.seed, runs the oracle,
/// measures for opts.seconds (or, with opts.trace, runs the traced pass and
/// the replay) and fills a Result.
Result paper_record_all(const Options& opts);
Result triage_filter(const Options& opts);
Result warm_rerun(const Options& opts);
Result serve_open(const Options& opts);

/// Names of every end-to-end and per-layer metric, in report order, so
/// every workload prints the same keys (0 where a layer is not on the
/// workload's path).
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

}  // namespace e2ebench
