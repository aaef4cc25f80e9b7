// Judge-stage microbenchmarks: simulated model call cost, prompt-size
// scaling, and client-side concurrency behaviour. The `sim_latency`
// counters show why the LLM stage dominates the pipeline's (virtual) cost.
#include <benchmark/benchmark.h>

#include <thread>

#include "core/llm4vv.hpp"
#include "judge/prompt.hpp"
#include "llm/tokenizer.hpp"

namespace {

using namespace llm4vv;

frontend::SourceFile sample_file() {
  const auto tc = corpus::generate_one("saxpy_offload",
                                       frontend::Flavor::kOpenACC,
                                       frontend::Language::kC, 99);
  return tc.file;
}

// One judge call, first with code the model has not read (a fresh model
// per iteration, so perception analyzes the code: a memo miss), then with
// code it has (one warm model: a memo hit). The completions are
// byte-identical; only the host time differs.
void BM_SimulatedJudgeCallMiss(benchmark::State& state) {
  const auto file = sample_file();
  const std::string prompt = judge::direct_analysis_prompt(file);
  double sim_latency = 0.0;
  for (auto _ : state) {
    const llm::SimulatedCoderModel model;
    const auto completion = model.generate(prompt, {});
    sim_latency += completion.latency_seconds;
    benchmark::DoNotOptimize(completion.text.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["sim_latency_s"] =
      sim_latency / static_cast<double>(state.iterations());
}
BENCHMARK(BM_SimulatedJudgeCallMiss)->Unit(benchmark::kMicrosecond);

void BM_SimulatedJudgeCallHit(benchmark::State& state) {
  const llm::SimulatedCoderModel model;
  const auto file = sample_file();
  const std::string prompt = judge::direct_analysis_prompt(file);
  model.generate(prompt, {});  // the miss that fills the memo
  double sim_latency = 0.0;
  for (auto _ : state) {
    const auto completion = model.generate(prompt, {});
    sim_latency += completion.latency_seconds;
    benchmark::DoNotOptimize(completion.text.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["sim_latency_s"] =
      sim_latency / static_cast<double>(state.iterations());
}
BENCHMARK(BM_SimulatedJudgeCallHit)->Unit(benchmark::kMicrosecond);

void BM_PromptSizeScaling(benchmark::State& state) {
  // Pad the code with comment lines to scale the prompt. One model and one
  // prompt: every call after the first is a perception memo hit, so this
  // times the work that scales with the prompt (tokenizer, prompt parsing,
  // hashing), not the code analysis.
  const llm::SimulatedCoderModel model;
  auto file = sample_file();
  const auto pad_lines = static_cast<std::size_t>(state.range(0));
  std::string padding;
  for (std::size_t i = 0; i < pad_lines; ++i) {
    padding += "// padding comment line to grow the prompt for scaling\n";
  }
  file.content = padding + file.content;
  const std::string prompt = judge::direct_analysis_prompt(file);
  for (auto _ : state) {
    const auto completion = model.generate(prompt, {});
    benchmark::DoNotOptimize(completion.prompt_tokens);
  }
  state.counters["prompt_tokens"] = static_cast<double>(
      llm::default_tokenizer().count_tokens(prompt));
}
BENCHMARK(BM_PromptSizeScaling)
    ->Arg(0)
    ->Arg(128)
    ->Arg(512)
    ->Unit(benchmark::kMicrosecond);

void BM_ClientConcurrency(benchmark::State& state) {
  // Throughput of the inference facade under contention with N callers
  // against a capacity-4 endpoint.
  const auto callers = static_cast<std::size_t>(state.range(0));
  const auto file = sample_file();
  const std::string prompt = judge::direct_analysis_prompt(file);
  for (auto _ : state) {
    auto client = core::make_simulated_client(4);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < callers; ++t) {
      threads.emplace_back([&client, &prompt] {
        for (int i = 0; i < 8; ++i) {
          auto completion = client->submit(prompt).get();
          benchmark::DoNotOptimize(completion.completion_tokens);
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * callers * 8));
}
BENCHMARK(BM_ClientConcurrency)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
