// Execute-stage microbenchmarks: VM throughput (including the dispatch-core
// sweep behind the BENCH_vm.json CI gate), the cost of the device-mirror
// data movement relative to plain host execution, and the sharded-vs-mutex
// queue hand-off sweep of the execute stage. See docs/BENCHMARKS.md.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "core/llm4vv.hpp"
#include "support/mpmc_queue.hpp"

namespace {

using namespace llm4vv;

std::shared_ptr<const vm::Module> compile_one(const char* source) {
  frontend::SourceFile file;
  file.name = "bench.c";
  file.flavor = frontend::Flavor::kOpenACC;
  file.content = source;
  toolchain::CompilerConfig config = toolchain::nvc_persona();
  config.strictness_reject_rate = 0.0;
  const toolchain::CompilerDriver driver(config);
  auto result = driver.compile(file);
  if (!result.success) throw std::runtime_error(result.stderr_text);
  return result.module;
}

constexpr const char* kHostLoop = R"(
#include <stdlib.h>
#define N 4096
int main() {
  double *a;
  a = (double *)malloc(N * sizeof(double));
  for (int i = 0; i < N; i++) { a[i] = i * 0.5; }
  double sum = 0.0;
  for (int i = 0; i < N; i++) { sum = sum + a[i]; }
  free(a);
  return sum > 0.0 ? 0 : 1;
}
)";

constexpr const char* kDeviceLoop = R"(
#include <stdlib.h>
#define N 4096
int main() {
  double *a;
  a = (double *)malloc(N * sizeof(double));
  for (int i = 0; i < N; i++) { a[i] = i * 0.5; }
#pragma acc parallel loop copy(a[0:N])
  for (int i = 0; i < N; i++) { a[i] = a[i] * 2.0; }
  free(a);
  return 0;
}
)";

void BM_ExecuteHostLoop(benchmark::State& state) {
  const auto module = compile_one(kHostLoop);
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const auto result = vm::execute(*module);
    steps += result.steps;
    benchmark::DoNotOptimize(result.return_code);
  }
  state.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExecuteHostLoop)->Unit(benchmark::kMillisecond);

void BM_ExecuteDeviceLoop(benchmark::State& state) {
  const auto module = compile_one(kDeviceLoop);
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const auto result = vm::execute(*module);
    steps += result.steps;
    benchmark::DoNotOptimize(result.return_code);
  }
  state.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExecuteDeviceLoop)->Unit(benchmark::kMillisecond);

void BM_ExecuteDispatch(benchmark::State& state) {
  // The dispatch-core ablation behind the CI gate: the same host loop under
  // the reference switch (0) and the function-pointer table core (1), the
  // latter with superinstruction fusion off (fused:0) or on (fused:1; the
  // reference never fuses). The acceptance bars are table >= 1.5x the
  // reference's steps/s and fused >= the unfused table core; the
  // `dispatch`/`fused` arg names key the jq selectors, the core name is in
  // the run label, and `fused_sites` proves the fused run actually engaged
  // the pass (a zero there would gate a no-op).
  const auto mode = static_cast<vm::DispatchMode>(state.range(0));
  const bool fuse = state.range(1) != 0;
  const auto module = compile_one(kHostLoop);
  std::uint64_t steps = 0;
  std::uint64_t fused_sites = 0;
  for (auto _ : state) {
    const auto result = vm::execute(*module, {}, mode, fuse);
    steps += result.steps;
    fused_sites = result.fused_instructions;
    benchmark::DoNotOptimize(result.return_code);
  }
  state.SetLabel(vm::dispatch_mode_name(mode));
  state.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(steps), benchmark::Counter::kIsRate);
  state.counters["fused_sites"] = static_cast<double>(fused_sites);
}
BENCHMARK(BM_ExecuteDispatch)
    ->Args({static_cast<int>(vm::DispatchMode::kReference), 0})
    ->Args({static_cast<int>(vm::DispatchMode::kTable), 0})
    ->Args({static_cast<int>(vm::DispatchMode::kTable), 1})
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"dispatch", "fused"});

void BM_PipelineExecuteScale(benchmark::State& state) {
  // The execute stage's queue hand-off at scale, isolated: W producers
  // feed W consumers through one bounded MpmcQueue in the pipeline's
  // per-item arrival shape (push / pop_up_to(1)) with no per-item work,
  // so queue synchronization is all that is measured. shards:0 stripes
  // min(workers, 8) — deliberately NOT the pipeline's auto policy (which
  // also caps at hardware_concurrency and would decline to shard on a
  // small host): the A/B needs the sharded configuration measured
  // everywhere, including where it only costs. shards:1 is the
  // single-mutex baseline the sharded queue must beat at >= 4 workers on
  // multi-core hosts (see docs/BENCHMARKS.md for the gate's tiers).
  const auto workers = static_cast<std::size_t>(state.range(0));
  std::size_t shards = static_cast<std::size_t>(state.range(1));
  if (shards == 0) shards = std::min<std::size_t>(workers, 8);
  constexpr std::size_t kItemsPerProducer = 2048;
  const std::size_t total = kItemsPerProducer * workers;
  std::uint64_t steals = 0;
  for (auto _ : state) {
    support::MpmcQueue<std::size_t> queue(128, shards);
    std::atomic<std::uint64_t> consumed{0};
    std::vector<std::thread> threads;
    threads.reserve(workers * 2);
    for (std::size_t p = 0; p < workers; ++p) {
      threads.emplace_back([&queue] {
        for (std::size_t i = 0; i < kItemsPerProducer; ++i) {
          queue.push(i);
        }
      });
    }
    for (std::size_t c = 0; c < workers; ++c) {
      threads.emplace_back([&queue, &consumed] {
        std::vector<std::size_t> out;
        std::uint64_t local = 0;
        for (;;) {
          out.clear();
          if (queue.pop_up_to(1, out) == 0) break;
          local += out[0] + 1;
        }
        consumed.fetch_add(local, std::memory_order_relaxed);
      });
    }
    for (std::size_t p = 0; p < workers; ++p) threads[p].join();
    queue.close();
    for (std::size_t c = workers; c < threads.size(); ++c) threads[c].join();
    benchmark::DoNotOptimize(consumed.load());
    steals += queue.steals();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * total));
  state.counters["queue_shards"] = static_cast<double>(shards);
  state.counters["queue_steals_per_run"] =
      static_cast<double>(steals) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_PipelineExecuteScale)
    ->ArgsProduct({{1, 4, 8}, {1, 0}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->ArgNames({"workers", "shards"});

void BM_GeneratedSuiteExecution(benchmark::State& state) {
  // End-to-end compile+run over a generated suite sample.
  corpus::GeneratorConfig gen;
  gen.flavor = frontend::Flavor::kOpenACC;
  gen.count = 32;
  gen.seed = 7;
  const auto suite = corpus::generate_suite(gen);
  toolchain::CompilerConfig config = toolchain::nvc_persona();
  config.strictness_reject_rate = 0.0;
  const toolchain::CompilerDriver driver(config);
  const toolchain::Executor executor;
  for (auto _ : state) {
    for (const auto& tc : suite.cases) {
      const auto compiled = driver.compile(tc.file);
      const auto run = executor.run(compiled.module);
      benchmark::DoNotOptimize(run.return_code);
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * suite.cases.size()));
}
BENCHMARK(BM_GeneratedSuiteExecution)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
