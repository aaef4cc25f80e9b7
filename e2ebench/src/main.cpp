// e2ebench: one command for the repository's end-to-end benchmark.
//
//   e2ebench --workload <paper-record-all|triage-filter|serve-open|warm-rerun>
//            --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Prints a human-readable report, then as its last stdout line one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value,
// unit}}}. With --trace 0 the metrics are the end-to-end ones (measured
// untraced, after warm-up); with --trace 1 the per-layer ones from a
// separate traced pass and single-thread replay. Exits 1 when any file or
// job disagrees with the sequential paper-mode oracle.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "workloads.hpp"

namespace {

using e2ebench::Metric;
using e2ebench::Options;
using e2ebench::Result;

int usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <paper-record-all|"
               "triage-filter|serve-open|warm-rerun> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n",
               why);
  return 2;
}

std::string number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 == 0) return usage("arguments come in --flag value pairs");
  try {
    opts.workload = args.at("--workload");
    opts.seed = std::stoull(args.at("--seed"));
    opts.seconds = std::stod(args.at("--seconds"));
    opts.trace = args.at("--trace") == "1";
  } catch (const std::exception&) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  if (args.count("--work-dir") != 0) opts.work_dir = args["--work-dir"];
  if (!(opts.seconds > 0)) return usage("--seconds must be positive");

  Result result;
  try {
    if (opts.workload == "paper-record-all") result = e2ebench::paper_record_all(opts);
    else if (opts.workload == "triage-filter") result = e2ebench::triage_filter(opts);
    else if (opts.workload == "serve-open") result = e2ebench::serve_open(opts);
    else if (opts.workload == "warm-rerun") result = e2ebench::warm_rerun(opts);
    else return usage("unknown workload");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s failed: %s\n", opts.workload.c_str(), e.what());
    return 1;
  }

  // Every run prints exactly the benchmark's metric list for its mode.
  const auto& wanted =
      opts.trace ? e2ebench::per_layer_metrics() : e2ebench::end_to_end_metrics();
  std::map<std::string, Metric> by_name;
  for (const Metric& m : result.metrics) by_name[m.name] = m;
  std::string metrics;
  for (const auto& [name, unit] : wanted) {
    const auto it = by_name.find(name);
    if (it == by_name.end() || !std::isfinite(it->second.value)) {
      std::fprintf(stderr, "e2ebench: metric %s missing or not finite\n", name.c_str());
      return 1;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + number(it->second.value) +
               ", \"unit\": \"" + unit + "\"}";
  }
  if (by_name.size() != wanted.size()) {
    std::fprintf(stderr, "e2ebench: %s reported metrics outside the list\n",
                 opts.workload.c_str());
    return 1;
  }
  std::fputs(result.report.c_str(), stdout);
  for (const std::string& example : result.mismatch_examples) {
    std::printf("MISMATCH vs oracle: %s\n", example.c_str());
  }
  const bool correct = result.mismatches == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
