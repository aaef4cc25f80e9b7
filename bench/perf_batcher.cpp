// Ablation bench for the asynchronous submission API's adaptive batcher:
// with several judge workers submitting through one central ModelClient,
// sweep the wait window T. At T=0 every worker's submission group flushes
// immediately (the PR 2 per-worker-chunk shape); with T>0 the batcher may
// hold a submission up to T microseconds so groups from *different*
// workers coalesce into fuller cross-worker forward passes — higher flush
// occupancy, more prefill amortization, fewer simulated GPU seconds.
//
// run_benchmarks.sh and CI guard two properties of this sweep:
//   1. cross-worker batches actually form: mean flush occupancy at
//      T=200 us strictly exceeds the T=0 (static per-worker) baseline;
//   2. the saving is real: sim-GPU s/run at T=200 us is no worse than at
//      T=0.
// and one of the lone-submitter row: a thread alone in a submit -> get()
// loop at T=1000 us must not wait out the window (mean wall time per
// request below T/2), because nobody can add to its batch.
#include <benchmark/benchmark.h>

#include <chrono>

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

void BM_PipelineAdaptiveBatch(benchmark::State& state) {
  const auto window_us = static_cast<std::uint64_t>(state.range(0));
  const auto files = make_batch(120, 3);

  // Cache off so every judged file is a genuine model submission.
  // stage_batch = 1 makes every queue hand-off per-item (no 16-wide
  // bursts), so the judge queue stays shallow and each worker's popped
  // chunk is small: at T=0 the per-worker submission groups are tiny — the
  // sparse-arrival load shape where only a cross-worker batcher can keep
  // forward-pass occupancy up.
  llm::BatcherConfig batcher;
  batcher.max_batch = 8;
  batcher.window_us = window_us;
  auto client = core::make_simulated_client(4, batcher);
  judge::JudgeCacheConfig cache;
  cache.enabled = false;
  auto judge = std::make_shared<const judge::Llmj>(
      client, llm::PromptStyle::kAgentDirect, cache);
  pipeline::PipelineConfig config;
  config.mode = pipeline::PipelineMode::kRecordAll;
  config.compile_workers = 2;
  config.execute_workers = 2;
  config.judge_workers = 4;
  config.judge_batch_size = 8;
  config.stage_batch = 1;
  const pipeline::ValidationPipeline pipe(
      toolchain::CompilerDriver(toolchain::nvc_persona()),
      toolchain::Executor(), judge, config);

  double gpu_seconds = 0.0;
  double formed_occupancy_sum = 0.0;
  std::uint64_t formed_batches = 0;
  std::uint64_t flush_full = 0;
  std::uint64_t flush_window = 0;
  std::uint64_t flush_idle = 0;
  std::size_t queue_depth_peak = 0;
  for (auto _ : state) {
    const auto result = pipe.run(files);
    gpu_seconds += result.judge_gpu_seconds;
    const llm::ClientStats& client_run = result.judge_client;
    formed_occupancy_sum += client_run.batch_occupancy();
    formed_batches += client_run.formed_batches;
    flush_full += client_run.flush_full;
    flush_window += client_run.flush_window;
    flush_idle += client_run.flush_idle;
    queue_depth_peak =
        std::max(queue_depth_peak, client_run.pending_high_water);
    benchmark::DoNotOptimize(result.records.data());
  }
  const auto runs = static_cast<double>(state.iterations());
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * files.size()));
  state.counters["sim_gpu_s_per_run"] = gpu_seconds / runs;
  /// Mean prompts per forward pass the batcher actually formed.
  state.counters["formed_occupancy"] = formed_occupancy_sum / runs;
  state.counters["formed_batches_per_run"] =
      static_cast<double>(formed_batches) / runs;
  state.counters["flush_full_per_run"] =
      static_cast<double>(flush_full) / runs;
  state.counters["flush_window_per_run"] =
      static_cast<double>(flush_window) / runs;
  state.counters["flush_idle_per_run"] =
      static_cast<double>(flush_idle) / runs;
  state.counters["queue_depth_peak"] =
      static_cast<double>(queue_depth_peak);
}
BENCHMARK(BM_PipelineAdaptiveBatch)
    ->Arg(0)
    ->Arg(50)
    ->Arg(200)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"window_us"});

/// One thread in a submit -> get() loop, nobody else submitting: every
/// batch it starts is one nobody can add to, so the idle flush runs it as
/// soon as the thread blocks, instead of after the window.
void BM_LoneSubmitter(benchmark::State& state) {
  const auto window_us = static_cast<std::uint64_t>(state.range(0));
  std::vector<std::string> prompts;
  for (const auto& file : make_batch(16, 0)) {
    prompts.push_back(judge::direct_analysis_prompt(file));
  }
  llm::BatcherConfig batcher;
  batcher.max_batch = 8;
  batcher.window_us = window_us;
  auto client = core::make_simulated_client(4, batcher);

  std::size_t next = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    const auto completion =
        client->submit(prompts[next++ % prompts.size()]).get();
    benchmark::DoNotOptimize(completion.text.data());
  }
  const std::chrono::duration<double, std::micro> wall =
      std::chrono::steady_clock::now() - start;
  const auto requests = static_cast<double>(state.iterations());
  const auto stats = client->stats();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["window_us"] = static_cast<double>(window_us);
  state.counters["wall_us_per_request"] = wall.count() / requests;
  state.counters["flush_idle_share"] =
      static_cast<double>(stats.flush_idle) /
      static_cast<double>(std::max<std::uint64_t>(1, stats.formed_batches));
}
BENCHMARK(BM_LoneSubmitter)
    ->Arg(1000)
    ->ArgNames({"window_us"})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
