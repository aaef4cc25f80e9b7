// Compile-stage microbenchmarks: front-end throughput on generated V&V
// files. Establishes that the compile stage is orders of magnitude cheaper
// than the LLM stage — the premise behind putting it first in the pipeline.
#include <benchmark/benchmark.h>

#include "core/llm4vv.hpp"
#include "directive/validator.hpp"
#include "frontend/lexer.hpp"

namespace {

using namespace llm4vv;

std::vector<frontend::SourceFile> sample_files(frontend::Flavor flavor) {
  corpus::GeneratorConfig gen;
  gen.flavor = flavor;
  gen.count = 64;
  gen.seed = 4242;
  std::vector<frontend::SourceFile> files;
  for (auto& tc : corpus::generate_suite(gen).cases) {
    files.push_back(std::move(tc.file));
  }
  return files;
}

void BM_CompileACC(benchmark::State& state) {
  const auto files = sample_files(frontend::Flavor::kOpenACC);
  const toolchain::CompilerDriver driver(toolchain::nvc_persona());
  std::size_t bytes = 0;
  for (auto _ : state) {
    for (const auto& file : files) {
      auto result = driver.compile(file);
      benchmark::DoNotOptimize(result.success);
      bytes += file.content.size();
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * files.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_CompileACC)->Unit(benchmark::kMillisecond);

void BM_Lex(benchmark::State& state) {
  // The lexer alone, over BM_CompileACC's files: the largest front-end
  // phase, and the one the judge's perception re-runs on every prompt.
  const auto files = sample_files(frontend::Flavor::kOpenACC);
  std::size_t bytes = 0;
  std::size_t tokens = 0;
  for (auto _ : state) {
    for (const auto& file : files) {
      frontend::DiagnosticEngine diags;
      const auto lexed = frontend::lex(file.content, diags);
      benchmark::DoNotOptimize(lexed.tokens.data());
      bytes += file.content.size();
      tokens += lexed.tokens.size();
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * files.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  state.counters["tokens_per_file"] =
      static_cast<double>(tokens) /
      static_cast<double>(state.iterations() * files.size());
}
BENCHMARK(BM_Lex)->Unit(benchmark::kMicrosecond);

void BM_CompileOMP(benchmark::State& state) {
  const auto files = sample_files(frontend::Flavor::kOpenMP);
  const toolchain::CompilerDriver driver(toolchain::clang_persona());
  for (auto _ : state) {
    for (const auto& file : files) {
      auto result = driver.compile(file);
      benchmark::DoNotOptimize(result.success);
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * files.size()));
}
BENCHMARK(BM_CompileOMP)->Unit(benchmark::kMillisecond);

void BM_DirectiveValidation(benchmark::State& state) {
  // Directive parsing + validation in isolation.
  const std::string pragma =
      "#pragma acc parallel loop reduction(+:sum) copyin(a[0:n], b[0:n]) "
      "copyout(c[0:n]) num_gangs(8) vector_length(128) async(2)";
  directive::ValidatorOptions options;
  options.flavor = frontend::Flavor::kOpenACC;
  options.supported_version = 33;
  for (auto _ : state) {
    frontend::DiagnosticEngine diags;
    const auto dir = directive::parse_directive(pragma);
    const auto validation =
        directive::validate_directive(dir, options, 1, diags);
    benchmark::DoNotOptimize(validation.ok);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DirectiveValidation);

}  // namespace

BENCHMARK_MAIN();
