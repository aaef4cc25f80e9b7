// Ablation bench for the validation pipeline's two design claims
// (Section III-C):
//   1. early filtering "reduces the number of unnecessary steps" — measured
//      as simulated GPU seconds spent in the LLM stage (kFilterEarly vs
//      kRecordAll) across invalid-share sweeps;
//   2. staged worker pools raise throughput — files/sec vs worker count.
#include <benchmark/benchmark.h>

#include "core/llm4vv.hpp"

namespace {

using namespace llm4vv;

/// A probed batch with a controlled invalid share (issues 0-2 fail early).
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

pipeline::ValidationPipeline make_pipeline(pipeline::PipelineMode mode,
                                           std::size_t workers,
                                           bool judge_cache = true,
                                           std::size_t judge_batch = 1) {
  auto client = core::make_simulated_client(workers);
  judge::JudgeCacheConfig cache;
  cache.enabled = judge_cache;
  auto judge = std::make_shared<const judge::Llmj>(
      client, llm::PromptStyle::kAgentDirect, cache);
  pipeline::PipelineConfig config;
  config.mode = mode;
  config.compile_workers = workers;
  config.execute_workers = workers;
  config.judge_workers = workers;
  config.judge_batch_size = judge_batch;
  return pipeline::ValidationPipeline(
      toolchain::CompilerDriver(toolchain::nvc_persona()),
      toolchain::Executor(), judge, config);
}

void BM_PipelineMode(benchmark::State& state) {
  const auto mode = state.range(0) == 0 ? pipeline::PipelineMode::kRecordAll
                                        : pipeline::PipelineMode::kFilterEarly;
  const int invalid_tenths = static_cast<int>(state.range(1));
  const auto files = make_batch(120, invalid_tenths);
  // Judge cache off and batch size pinned to 1: this bench reproduces the
  // paper's early-filter GPU ablation with the paper's one-call-per-file
  // accounting (warm memo cache or batched prefill amortization would hide
  // the per-run cost; filter:0/invalid_tenths:0 must keep reporting the
  // seed-exact 1606.13 sim GPU seconds). Batching is measured by
  // BM_PipelineJudgeBatch; the cache by BM_PipelineJudgeCache.
  const auto pipe = make_pipeline(mode, 2, /*judge_cache=*/false,
                                  /*judge_batch=*/1);
  double gpu_seconds = 0.0;
  std::size_t judged = 0;
  for (auto _ : state) {
    const auto result = pipe.run(files);
    gpu_seconds += result.judge_gpu_seconds;
    judged += result.judge_stage.processed;
    benchmark::DoNotOptimize(result.records.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * files.size()));
  state.counters["sim_gpu_s_per_run"] =
      gpu_seconds / static_cast<double>(state.iterations());
  state.counters["judged_per_run"] =
      static_cast<double>(judged) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_PipelineMode)
    ->ArgsProduct({{0, 1}, {0, 3, 6}})
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"filter", "invalid_tenths"});

void BM_PipelineWorkers(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  const auto judge_batch = static_cast<std::size_t>(state.range(1));
  const auto files = make_batch(120, 3);
  const auto pipe = make_pipeline(pipeline::PipelineMode::kFilterEarly,
                                  workers, /*judge_cache=*/true, judge_batch);
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  double gpu_seconds = 0.0;
  for (auto _ : state) {
    const auto result = pipe.run(files);
    hits += result.judge_cache_hits;
    misses += result.judge_cache_misses;
    gpu_seconds += result.judge_gpu_seconds;
    benchmark::DoNotOptimize(result.records.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * files.size()));
  state.counters["judge_cache_hits"] =
      static_cast<double>(hits) / static_cast<double>(state.iterations());
  state.counters["judge_cache_misses"] =
      static_cast<double>(misses) / static_cast<double>(state.iterations());
  state.counters["judge_cache_hit_rate"] =
      hits + misses == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(hits + misses);
  state.counters["sim_gpu_s_per_run"] =
      gpu_seconds / static_cast<double>(state.iterations());
}
BENCHMARK(BM_PipelineWorkers)
    ->ArgsProduct({{1, 2, 4}, {1, 8}})
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"workers", "judge_batch"});

void BM_PipelineJudgeBatch(benchmark::State& state) {
  // The batched-submission ablation: cache off so every judged file is a
  // genuine model submission, many producers feeding one judge worker so
  // the popped chunks fill their batches. judge_batch:1 is the sequential
  // baseline; larger batches amortize prefill across each forward pass and
  // should spend measurably fewer simulated GPU seconds per run.
  const auto judge_batch = static_cast<std::size_t>(state.range(0));
  const auto files = make_batch(120, 3);
  auto client = core::make_simulated_client(4);
  judge::JudgeCacheConfig cache;
  cache.enabled = false;
  auto judge = std::make_shared<const judge::Llmj>(
      client, llm::PromptStyle::kAgentDirect, cache);
  pipeline::PipelineConfig config;
  config.mode = pipeline::PipelineMode::kRecordAll;
  config.compile_workers = 4;
  config.execute_workers = 4;
  config.judge_workers = 1;
  config.judge_batch_size = judge_batch;
  const pipeline::ValidationPipeline pipe(
      toolchain::CompilerDriver(toolchain::nvc_persona()),
      toolchain::Executor(), judge, config);
  double gpu_seconds = 0.0;
  std::uint64_t batches = 0;
  std::uint64_t batched_prompts = 0;
  for (auto _ : state) {
    const auto result = pipe.run(files);
    gpu_seconds += result.judge_gpu_seconds;
    batches += result.judge_client.batches;
    batched_prompts += result.judge_client.batched_prompts;
    benchmark::DoNotOptimize(result.records.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * files.size()));
  state.counters["sim_gpu_s_per_run"] =
      gpu_seconds / static_cast<double>(state.iterations());
  state.counters["judge_batches_per_run"] =
      static_cast<double>(batches) / static_cast<double>(state.iterations());
  state.counters["judge_batch_occupancy"] =
      batches == 0 ? 0.0
                   : static_cast<double>(batched_prompts) /
                         static_cast<double>(batches);
}
BENCHMARK(BM_PipelineJudgeBatch)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"judge_batch"});

void BM_PipelineJudgeCache(benchmark::State& state) {
  // Probed/mutated suites repeat files; `dup` controls how many copies of
  // the batch flow through one run. The judge memoizes on (content hash,
  // style, seed, outcomes), so every copy after the first is a cache hit
  // that skips prompt assembly and the simulated model call.
  const auto dup = static_cast<std::size_t>(state.range(0));
  const auto base = make_batch(40, 3);
  std::vector<frontend::SourceFile> files;
  files.reserve(base.size() * dup);
  for (std::size_t d = 0; d < dup; ++d) {
    files.insert(files.end(), base.begin(), base.end());
  }
  auto client = core::make_simulated_client(2);
  // Non-const handle: clear_cache() is a genuine mutation now; the pipeline
  // still sees the judge through its const interface.
  auto judge = std::make_shared<judge::Llmj>(
      client, llm::PromptStyle::kAgentDirect);
  pipeline::PipelineConfig config;
  config.mode = pipeline::PipelineMode::kRecordAll;
  config.compile_workers = 2;
  config.execute_workers = 2;
  config.judge_workers = 2;
  const pipeline::ValidationPipeline pipe(
      toolchain::CompilerDriver(toolchain::nvc_persona()),
      toolchain::Executor(), judge, config);
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (auto _ : state) {
    state.PauseTiming();
    judge->clear_cache();  // measure within-run hits only
    state.ResumeTiming();
    const auto result = pipe.run(files);
    hits += result.judge_cache_hits;
    misses += result.judge_cache_misses;
    benchmark::DoNotOptimize(result.records.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * files.size()));
  state.counters["judge_cache_hit_rate"] =
      hits + misses == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(hits + misses);
}
BENCHMARK(BM_PipelineJudgeCache)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"dup"});

}  // namespace

BENCHMARK_MAIN();
