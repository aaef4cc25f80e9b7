// Resilience bench (S6): what the retry layer buys — and costs — under a
// seeded FaultPlan.
//
//   BM_PipelineFaults sweeps transient fault rates {5%, 20%} x retries
//   {off, on} over the BM_PipelineMode 120-file corpus and reports
//   *goodput* (successfully judged files per wall second, plus the success
//   rate) and the retry/error accounting. The headline claims gated by
//   run_benchmarks.sh: at 20% faults, retries lift the success rate to
//   >= 95%, and strictly above the no-retry configuration.
//
//   BM_ClientAddedLatency isolates the price: the p99 *added* per-request
//   latency (faulted client minus fault-free client, same prompts, same
//   retry policy) — the tail a caller pays for riding through faults via
//   backoff instead of failing fast.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "core/llm4vv.hpp"
#include "judge/prompt.hpp"

namespace {

using namespace llm4vv;

/// The BM_PipelineMode corpus: 120 probed files, 30% invalid share.
std::vector<frontend::SourceFile> make_batch(std::size_t size,
                                             int invalid_tenths) {
  const std::size_t invalid =
      size * static_cast<std::size_t>(invalid_tenths) / 10;
  corpus::GeneratorConfig gen;
  gen.flavor = frontend::Flavor::kOpenACC;
  gen.count = size + 32;
  gen.seed = 1234;
  const auto suite = corpus::generate_suite(gen);

  probing::ProbingConfig probe;
  probe.issue_counts = {invalid / 3, invalid / 3,
                        invalid - 2 * (invalid / 3), 0, 0, size - invalid};
  probe.seed = 77;
  const auto probed = probing::probe_suite(suite, probe);

  std::vector<frontend::SourceFile> files;
  files.reserve(probed.files.size());
  for (const auto& f : probed.files) files.push_back(f.file);
  return files;
}

std::shared_ptr<llm::ModelClient> make_client(double transient_rate,
                                              bool retries,
                                              std::size_t workers) {
  llm::CoderModelConfig model_config;
  if (transient_rate > 0.0) {
    llm::FaultPlanConfig plan;
    plan.transient_rate = transient_rate;
    model_config.faults = std::make_shared<llm::FaultPlan>(plan);
  }
  auto model = std::make_shared<const llm::SimulatedCoderModel>(model_config);
  llm::RetryPolicy retry;
  if (retries) {
    retry.max_attempts = 4;
    retry.base_backoff_us = 50;
    retry.max_backoff_us = 400;
  }
  return std::make_shared<llm::ModelClient>(model, workers,
                                            /*transcript_capacity=*/0,
                                            llm::BatcherConfig{}, retry);
}

pipeline::ValidationPipeline make_pipeline(
    std::shared_ptr<llm::ModelClient> client, std::size_t workers) {
  judge::JudgeCacheConfig cache;
  cache.enabled = false;  // every file must face the faulty model
  auto judge = std::make_shared<const judge::Llmj>(
      client, llm::PromptStyle::kAgentDirect, cache);
  pipeline::PipelineConfig config;
  config.mode = pipeline::PipelineMode::kRecordAll;
  config.compile_workers = workers;
  config.execute_workers = workers;
  config.judge_workers = workers;
  config.judge_batch_size = 4;  // multi-prompt passes exercise splitting
  return pipeline::ValidationPipeline(
      toolchain::CompilerDriver(toolchain::nvc_persona()),
      toolchain::Executor(), judge, config);
}

void BM_PipelineFaults(benchmark::State& state) {
  const double rate = static_cast<double>(state.range(0)) / 100.0;
  const bool retries = state.range(1) != 0;
  const auto files = make_batch(120, 3);
  const auto pipe = make_pipeline(make_client(rate, retries, 2), 2);

  std::size_t judged = 0;
  std::size_t errors = 0;
  std::uint64_t retries_spent = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t shed = 0;
  std::uint64_t breaker_opens = 0;
  double wall_seconds = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const auto result = pipe.run(files);
    wall_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    for (const auto& record : result.records) judged += record.judged;
    errors += result.judge_errors;
    retries_spent += result.judge_client.retries;
    timeouts += result.judge_client.timeouts;
    shed += result.judge_client.pending_shed;
    breaker_opens += result.judge_client.breaker_opens;
    benchmark::DoNotOptimize(result.records.data());
  }
  const auto iterations = static_cast<double>(state.iterations());
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * files.size()));
  // Goodput: files that came out successfully judged, per wall second —
  // the number fault injection actually degrades (failed files consume
  // pipeline time but produce nothing).
  state.counters["goodput_files_per_s"] =
      wall_seconds > 0.0 ? static_cast<double>(judged) / wall_seconds : 0.0;
  state.counters["success_rate"] =
      static_cast<double>(judged) /
      (iterations * static_cast<double>(files.size()));
  state.counters["judge_errors_per_run"] =
      static_cast<double>(errors) / iterations;
  state.counters["judge_retries_per_run"] =
      static_cast<double>(retries_spent) / iterations;
  state.counters["judge_timeouts_per_run"] =
      static_cast<double>(timeouts) / iterations;
  state.counters["judge_shed_per_run"] =
      static_cast<double>(shed) / iterations;
  state.counters["breaker_opens_per_run"] =
      static_cast<double>(breaker_opens) / iterations;
}
BENCHMARK(BM_PipelineFaults)
    ->ArgsProduct({{5, 20}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"fault_pct", "retries"});

/// p99 added latency: the same prompt stream timed against a fault-free
/// client and a faulted one (identical retry policy), per-prompt deltas
/// sorted, 99th percentile reported. Run outside the pipeline so queueing
/// effects don't pollute the per-request tail.
void BM_ClientAddedLatency(benchmark::State& state) {
  const double rate = static_cast<double>(state.range(0)) / 100.0;
  constexpr std::size_t kPrompts = 200;
  const auto files = make_batch(kPrompts, 3);

  std::vector<std::string> prompts;
  prompts.reserve(files.size());
  for (const auto& file : files) {
    prompts.push_back(judge::direct_analysis_prompt(file));
  }

  double p99_us = 0.0;
  double served = 0.0;
  for (auto _ : state) {
    auto clean = make_client(0.0, /*retries=*/true, 1);
    auto faulted = make_client(rate, /*retries=*/true, 1);
    std::vector<double> added;
    added.reserve(prompts.size());
    for (const auto& prompt : prompts) {
      const auto t0 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(clean->complete(prompt).text.data());
      const auto t1 = std::chrono::steady_clock::now();
      double faulted_us = 0.0;
      bool ok = true;
      const auto t2 = std::chrono::steady_clock::now();
      try {
        benchmark::DoNotOptimize(faulted->complete(prompt).text.data());
      } catch (const llm::ModelError&) {
        ok = false;  // gave up past the budget: not a latency sample
      }
      const auto t3 = std::chrono::steady_clock::now();
      if (!ok) continue;
      const double clean_us =
          std::chrono::duration<double, std::micro>(t1 - t0).count();
      faulted_us =
          std::chrono::duration<double, std::micro>(t3 - t2).count();
      added.push_back(std::max(0.0, faulted_us - clean_us));
    }
    std::sort(added.begin(), added.end());
    if (!added.empty()) {
      const std::size_t idx =
          std::min(added.size() - 1,
                   static_cast<std::size_t>(
                       static_cast<double>(added.size()) * 0.99));
      p99_us += added[idx];
      served += static_cast<double>(added.size());
    }
  }
  const auto iterations = static_cast<double>(state.iterations());
  state.counters["p99_added_latency_us"] = p99_us / iterations;
  state.counters["served_prompts_per_run"] = served / iterations;
}
BENCHMARK(BM_ClientAddedLatency)
    ->Arg(5)
    ->Arg(20)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"fault_pct"});

}  // namespace

BENCHMARK_MAIN();
