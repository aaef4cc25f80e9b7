// Warm-start benchmarks for the persistent artifact store (PR 3): the
// cold-run -> warm-run collapse of simulated GPU time when judge verdicts
// (and front-end compiles) are served from a content-addressed store
// instead of being recomputed.
//
// BM_PipelineWarmStart reports, per run over the canonical 120-file batch:
//   sim_gpu_cold_s               - the store-less baseline's LLM cost
//   sim_gpu_warm_s_per_run       - the warm run's LLM cost (target: ~0)
//   warm_gpu_over_cold           - the collapse ratio (target: <= 0.10)
//   persisted_hit_rate           - persisted hits / judged (target: >= 0.95)
//   cross_run_persisted_hit_rate - persisted hit rate of this process's
//     FIRST run, i.e. what the on-disk cache file delivered before this
//     process computed anything itself. 0 on a fresh file; ~1 when the
//     file was written by a previous invocation. bench/run_benchmarks.sh
//     runs this binary twice against one file and fails if the second
//     invocation reports 0 here — the canary for persistence bitrot.
//
// The cache file defaults to a temp path; set LLM4VV_BENCH_CACHE_FILE to
// pin it (as run_benchmarks.sh does for the double-run check).
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>

#include "core/llm4vv.hpp"

namespace {

using namespace llm4vv;

std::string cache_file_path() {
  if (const char* env = std::getenv("LLM4VV_BENCH_CACHE_FILE")) {
    return env;
  }
  return (std::filesystem::temp_directory_path() /
          "llm4vv_warm_start_cache.store")
      .string();
}

/// Same batch recipe as perf_pipeline's BM_Pipeline* benches: 120 files,
/// 3/10 invalid.
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

struct WarmStartRig {
  std::shared_ptr<llm::ModelClient> client;
  std::shared_ptr<cache::ArtifactStore> store;
  std::uint64_t compiler_fingerprint = 0;
  pipeline::PipelineConfig pipe_config;
};

WarmStartRig make_rig(std::size_t workers) {
  WarmStartRig rig;
  rig.client = core::make_simulated_client(workers);
  cache::ArtifactStoreConfig store_config;
  store_config.path = cache_file_path();
  // The fingerprint names the exact world these artifacts are valid in;
  // change the batch recipe above and the old file cold-starts instead of
  // serving stale verdicts.
  store_config.fingerprint = cache::StoreFingerprint{
      "warm-start-120x3-seed1234", rig.client->model_name(), 0};
  rig.store = std::make_shared<cache::ArtifactStore>(store_config);
  rig.compiler_fingerprint =
      toolchain::driver_fingerprint(toolchain::nvc_persona());
  rig.pipe_config.mode = pipeline::PipelineMode::kRecordAll;
  rig.pipe_config.compile_workers = workers;
  rig.pipe_config.execute_workers = workers;
  rig.pipe_config.judge_workers = workers;
  return rig;
}

/// Build a pipeline whose judge and compiler share the rig's store.
pipeline::ValidationPipeline make_persistent_pipeline(
    const WarmStartRig& rig) {
  judge::JudgeCacheConfig judge_config;
  judge_config.store = rig.store;
  auto judge = std::make_shared<const judge::Llmj>(
      rig.client, llm::PromptStyle::kAgentDirect, judge_config);
  cache::CompileCacheConfig compile_config;
  compile_config.store = rig.store;
  auto compile_cache = std::make_shared<cache::CompileCache>(
      compile_config, rig.compiler_fingerprint);
  return pipeline::ValidationPipeline(
      toolchain::CompilerDriver(toolchain::nvc_persona(), compile_cache),
      toolchain::Executor(), judge, rig.pipe_config);
}

/// One-time per-process setup. Google Benchmark re-invokes the benchmark
/// function to estimate iteration counts, so anything that must observe
/// the cache file's state *at process start* (the cross-run hit rate) has
/// to be computed exactly once — a later invocation would see the file
/// this process itself just saved and always report a warm start.
struct WarmStartSetup {
  std::vector<frontend::SourceFile> files;
  WarmStartRig rig;
  double cross_run_rate = 0.0;
  double cold_gpu = 0.0;
};

WarmStartSetup& warm_start_setup() {
  static WarmStartSetup setup = [] {
    WarmStartSetup s;
    s.files = make_batch(120, 3);
    s.rig = make_rig(/*workers=*/2);

    // First run of this process: whatever it gets from the cache file is
    // genuine cross-invocation persistence (0 on a fresh file). The caches
    // wrote every fresh result through to the store; save it afterwards,
    // so the NEXT invocation warm-starts from disk.
    {
      const auto pipe = make_persistent_pipeline(s.rig);
      const auto first = pipe.run(s.files);
      s.cross_run_rate =
          first.judge_stage.processed == 0
              ? 0.0
              : static_cast<double>(first.judge_persisted_hits) /
                    static_cast<double>(first.judge_stage.processed);
      s.rig.store->save();
    }

    // Cold baseline: no store, fresh in-process cache — every judged file
    // pays the model call. Not timed; it calibrates the collapse ratio.
    {
      auto judge = std::make_shared<const judge::Llmj>(
          s.rig.client, llm::PromptStyle::kAgentDirect);
      const pipeline::ValidationPipeline pipe(
          toolchain::CompilerDriver(toolchain::nvc_persona()),
          toolchain::Executor(), judge, s.rig.pipe_config);
      s.cold_gpu = pipe.run(s.files).judge_gpu_seconds;
    }
    return s;
  }();
  return setup;
}

void BM_PipelineWarmStart(benchmark::State& state) {
  WarmStartSetup& setup = warm_start_setup();
  const auto& files = setup.files;
  WarmStartRig& rig = setup.rig;

  // Timed: a full warm start per iteration — construct the judge and the
  // compile cache over the store, run the pipeline. Every memo miss reads
  // through to the store and decodes that one record.
  double warm_gpu = 0.0;
  std::uint64_t persisted_hits = 0;
  std::uint64_t judged = 0;
  std::uint64_t compile_persisted = 0;
  for (auto _ : state) {
    const auto pipe = make_persistent_pipeline(rig);
    const auto result = pipe.run(files);
    warm_gpu += result.judge_gpu_seconds;
    persisted_hits += result.judge_persisted_hits;
    judged += result.judge_stage.processed;
    compile_persisted += result.compile_persisted_hits;
    benchmark::DoNotOptimize(result.records.data());
  }

  const double iterations = static_cast<double>(state.iterations());
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * files.size()));
  state.counters["sim_gpu_cold_s"] = setup.cold_gpu;
  state.counters["sim_gpu_warm_s_per_run"] = warm_gpu / iterations;
  state.counters["warm_gpu_over_cold"] =
      setup.cold_gpu == 0.0 ? 0.0 : (warm_gpu / iterations) / setup.cold_gpu;
  state.counters["persisted_hit_rate"] =
      judged == 0 ? 0.0
                  : static_cast<double>(persisted_hits) /
                        static_cast<double>(judged);
  state.counters["cross_run_persisted_hit_rate"] = setup.cross_run_rate;
  state.counters["compile_persisted_per_run"] =
      static_cast<double>(compile_persisted) / iterations;
}
BENCHMARK(BM_PipelineWarmStart)->Unit(benchmark::kMillisecond);

void BM_ArtifactStoreRoundTrip(benchmark::State& state) {
  // Save + reload throughput for a store of `records` synthetic verdicts,
  // each with a `prompt_bytes` field — the fixed cost a warm start pays
  // before the pipeline runs. The 4096-record row is warm-rerun sized: its
  // store holds about 3.5k records of about 1 KB.
  const auto records = static_cast<std::uint64_t>(state.range(0));
  const auto prompt_bytes = static_cast<std::size_t>(state.range(1));
  const std::string path =
      (std::filesystem::temp_directory_path() /
       "llm4vv_store_roundtrip_bench.store")
          .string();
  cache::ArtifactStoreConfig config;
  config.path = path;
  config.fingerprint = cache::StoreFingerprint{"bench", "sim", 1};

  cache::ArtifactStore store(config);
  for (std::uint64_t k = 0; k < records; ++k) {
    store.put("judge", k, k ^ 0xABCD,
              {{"prompt", std::string(prompt_bytes, 'p')},
               {"text", std::string(128, 't')},
               {"verdict", "0"}});
  }
  for (auto _ : state) {
    store.save();
    cache::ArtifactStore reloaded(config);
    benchmark::DoNotOptimize(reloaded.size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * records));
  std::error_code ec;
  std::filesystem::remove(path, ec);
}
BENCHMARK(BM_ArtifactStoreRoundTrip)
    ->Args({128, 512})
    ->Args({1024, 512})
    ->Args({4096, 896})
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"records", "prompt_bytes"});

}  // namespace

BENCHMARK_MAIN();
