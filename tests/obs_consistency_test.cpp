// Registry/stats consistency suite (the PR 8 observability invariant):
// for every chaos and cache configuration, (a) each input file resolves as
// exactly one of judged / judge_error with nothing dropped, and (b) every
// registry sample exactly equals the stats-struct field it reads. The
// checks expand the X-macro lists that declare the metrics
// (LLM4VV_PIPELINE_COUNTERS, LLM4VV_CLIENT_STATS, LLM4VV_JUDGE_CACHE_STATS),
// so a new statistic is checked without touching this file. Also pins
// paper-mode accounting (the seed-exact 1606.13 simulated GPU seconds)
// with the registry and tracer attached, and asserts full per-file span
// coverage in the collected trace.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "corpus/generator.hpp"
#include "core/experiments.hpp"
#include "judge/judge.hpp"
#include "llm/client.hpp"
#include "llm/coder_model.hpp"
#include "llm/faults.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "pipeline/validation_pipeline.hpp"
#include "probing/prober.hpp"
#include "tests/test_util.hpp"

namespace llm4vv::pipeline {
namespace {

constexpr std::size_t kCorpusSize = 120;

std::vector<frontend::SourceFile> make_corpus(std::uint64_t seed) {
  const std::size_t invalid = kCorpusSize * 3 / 10;
  const auto suite = corpus::generate_suite(testutil::corpus_config(
      frontend::Flavor::kOpenACC, kCorpusSize + 32, seed));

  probing::ProbingConfig probe;
  probe.issue_counts = {invalid / 3, invalid / 3, invalid - 2 * (invalid / 3),
                        0, 0, kCorpusSize - invalid};
  probe.seed = 77;
  const auto probed = probing::probe_suite(suite, probe);

  std::vector<frontend::SourceFile> files;
  files.reserve(probed.files.size());
  for (const auto& pf : probed.files) files.push_back(pf.file);
  return files;
}

struct ObsRun {
  PipelineResult result;
  std::shared_ptr<llm::ModelClient> client;
  std::shared_ptr<const judge::Llmj> judge;
  std::shared_ptr<obs::Registry> registry;
  std::shared_ptr<obs::Tracer> tracer;
};

/// Run the pipeline with a fresh registry (and tracer) attached.
ObsRun run_observed(const std::vector<frontend::SourceFile>& files,
                    double transient_rate, std::uint32_t max_attempts,
                    bool cache_enabled, std::size_t judge_batch_size) {
  ObsRun run;
  llm::CoderModelConfig model_config;
  if (transient_rate > 0.0) {
    llm::FaultPlanConfig plan;
    plan.transient_rate = transient_rate;
    model_config.faults = std::make_shared<llm::FaultPlan>(plan);
  }
  auto model = std::make_shared<const llm::SimulatedCoderModel>(model_config);

  llm::RetryPolicy retry;
  retry.max_attempts = max_attempts;
  retry.base_backoff_us = 50;
  retry.max_backoff_us = 400;
  run.client = std::make_shared<llm::ModelClient>(
      model, /*max_concurrency=*/2, /*transcript_capacity=*/0,
      llm::BatcherConfig{}, retry);

  judge::JudgeCacheConfig cache;
  cache.enabled = cache_enabled;
  run.judge = std::make_shared<const judge::Llmj>(
      run.client, llm::PromptStyle::kAgentDirect, cache);

  run.registry = std::make_shared<obs::Registry>();
  run.tracer = std::make_shared<obs::Tracer>();
  run.client->set_tracer(run.tracer);

  PipelineConfig config;
  config.mode = PipelineMode::kRecordAll;
  config.compile_workers = 2;
  config.execute_workers = 2;
  config.judge_workers = 2;
  config.judge_batch_size = judge_batch_size;
  config.registry = run.registry;
  config.trace = run.tracer;
  const ValidationPipeline pipe(
      testutil::clean_driver(frontend::Flavor::kOpenACC),
      toolchain::Executor(), run.judge, config);
  run.result = pipe.run(files);
  return run;
}

double metric(const obs::MetricsSnapshot& snapshot, const std::string& name,
              const std::string& label = "") {
  const obs::MetricSample* found = obs::find_sample(snapshot, name, label);
  EXPECT_NE(found, nullptr) << "metric missing: " << name << " " << label;
  return found != nullptr ? found->value : -1.0;
}

/// The invariant: every registry sample equals the struct field it reads,
/// exactly — one check per entry of each metric list.
void assert_registry_matches(const ObsRun& run) {
  const PipelineResult& result = run.result;
  const obs::MetricsSnapshot& m = result.metrics;
  ASSERT_FALSE(m.empty());

  // Pipeline counters vs PipelineResult: the registry is fresh, so its
  // cross-run totals are this run's.
#define CHECK_PIPELINE_COUNTER(name, member) \
  EXPECT_EQ(metric(m, "pipeline." name), double(result.member)) << name;
  LLM4VV_PIPELINE_COUNTERS(CHECK_PIPELINE_COUNTER)
#undef CHECK_PIPELINE_COUNTER
  // The default executor fuses, and a corpus this size always contains
  // fusable sequences.
  EXPECT_GT(result.execute_fused_instructions, 0u);
  EXPECT_GT(result.execute_fusion_patterns, 0u);

  // Client probes vs ClientStats. The client served only this run, so the
  // run's window (PipelineResult::judge_client) equals its lifetime stats.
  const llm::ClientStats stats = run.client->stats();
  const llm::ClientStats& window = result.judge_client;
#define CHECK_CLIENT_STAT(type, name)                                   \
  EXPECT_EQ(metric(m, "pipeline.client." #name), double(stats.name))    \
      << #name;                                                         \
  EXPECT_EQ(window.name, stats.name) << #name;
#define CHECK_CLIENT_HIST(member, name, buckets, label)                 \
  for (std::size_t i = 0; i < buckets; ++i) {                           \
    EXPECT_EQ(metric(m, "pipeline.client." #name, label(i)),            \
              double(stats.member[i]))                                  \
        << #name << " " << label(i);                                    \
    EXPECT_EQ(window.member[i], stats.member[i]) << #name << " " << i;  \
  }
  LLM4VV_CLIENT_STATS(CHECK_CLIENT_STAT, CHECK_CLIENT_STAT,
                      CHECK_CLIENT_HIST)
#undef CHECK_CLIENT_STAT
#undef CHECK_CLIENT_HIST

  // Judge cache probes vs JudgeCacheStats.
  const judge::JudgeCacheStats cache = run.judge->cache_stats();
#define CHECK_JUDGE_CACHE_STAT(name)                                        \
  EXPECT_EQ(metric(m, "pipeline.judge_cache." #name), double(cache.name)) \
      << #name;
  LLM4VV_JUDGE_CACHE_STATS(CHECK_JUDGE_CACHE_STAT)
#undef CHECK_JUDGE_CACHE_STAT

  // Queue probes were captured in the snapshot (drained to empty).
  EXPECT_EQ(metric(m, "pipeline.queue.judge.depth"), 0.0);
  EXPECT_EQ(metric(m, "pipeline.queue.execute.depth"), 0.0);
  const double steals = metric(m, "pipeline.queue.compile.steals") +
                        metric(m, "pipeline.queue.execute.steals") +
                        metric(m, "pipeline.queue.judge.steals");
  EXPECT_EQ(steals, double(result.queue_steals));

  // The run-scoped probes were unregistered after the snapshot: a fresh
  // scrape keeps the owned counters but none of the probes.
  const auto later = run.registry->snapshot();
  EXPECT_EQ(obs::find_sample(later, "pipeline.queue.judge.depth"), nullptr);
  EXPECT_EQ(obs::find_sample(later, "pipeline.client.requests"), nullptr);
  EXPECT_NE(obs::find_sample(later, "pipeline.files"), nullptr);
}

/// Chaos accounting: judged + judge_errors == total, nothing dropped.
void assert_accounted(const PipelineResult& result) {
  ASSERT_EQ(result.records.size(), kCorpusSize);
  std::size_t judged = 0;
  std::size_t errored = 0;
  for (const auto& record : result.records) {
    EXPECT_FALSE(record.dropped);
    EXPECT_NE(record.judged, record.judge_error) << "record " << record.index;
    judged += record.judged ? 1 : 0;
    errored += record.judge_error ? 1 : 0;
  }
  EXPECT_EQ(judged + errored, kCorpusSize);
  EXPECT_EQ(result.judge_errors, errored);
  EXPECT_EQ(result.judge_stage.processed, kCorpusSize);
}

TEST(ObsConsistencyTest, RegistryMatchesLegacyAcrossChaosConfigs) {
  const auto files = make_corpus(1234);
  ASSERT_EQ(files.size(), kCorpusSize);
  struct Config {
    double rate;
    std::uint32_t attempts;
    bool cache;
    std::size_t batch;
  };
  for (const Config& config :
       {Config{0.0, 1, false, 1}, Config{0.0, 1, true, 4},
        Config{0.05, 4, false, 4}, Config{0.20, 4, false, 4}}) {
    SCOPED_TRACE("rate=" + std::to_string(config.rate) +
                 " attempts=" + std::to_string(config.attempts) +
                 " cache=" + std::to_string(config.cache) +
                 " batch=" + std::to_string(config.batch));
    const ObsRun run = run_observed(files, config.rate, config.attempts,
                                    config.cache, config.batch);
    assert_accounted(run.result);
    assert_registry_matches(run);
  }
}

TEST(ObsConsistencyTest, PaperModeSeedExactWithRegistryAndTracer) {
  // The tsan_stress / BM_PipelineMode paper-accounting corpus: 120 files,
  // gen.seed 1234, probe seed 77, cache off, sequential judging. The
  // registry and tracer must observe without perturbing the priced total.
  const auto suite = corpus::generate_suite(
      testutil::corpus_config(frontend::Flavor::kOpenACC, 120 + 32, 1234));
  probing::ProbingConfig probe;
  probe.issue_counts = {0, 0, 0, 0, 0, 120};
  probe.seed = 77;
  const auto probed = probing::probe_suite(suite, probe);
  std::vector<frontend::SourceFile> files;
  files.reserve(probed.files.size());
  for (const auto& pf : probed.files) files.push_back(pf.file);

  auto client = core::make_simulated_client(2);
  judge::JudgeCacheConfig cache;
  cache.enabled = false;
  auto judge = std::make_shared<const judge::Llmj>(
      client, llm::PromptStyle::kAgentDirect, cache);
  auto registry = std::make_shared<obs::Registry>();
  auto tracer = std::make_shared<obs::Tracer>();
  client->set_tracer(tracer);
  PipelineConfig config;
  config.mode = PipelineMode::kRecordAll;
  config.compile_workers = 2;
  config.execute_workers = 2;
  config.judge_workers = 2;
  config.judge_batch_size = 1;
  config.registry = registry;
  config.trace = tracer;
  const ValidationPipeline pipe(
      toolchain::CompilerDriver(toolchain::nvc_persona()),
      toolchain::Executor(), judge, config);

  const auto result = pipe.run(files);
  EXPECT_NEAR(result.judge_gpu_seconds, 1606.13, 0.005);
  EXPECT_EQ(result.judge_stage.processed, files.size());
  EXPECT_EQ(obs::find_sample(result.metrics, "pipeline.judge.processed")
                ->value,
            double(files.size()));

  // Full trace coverage: one run span, one compile/execute/judge span per
  // file, and every judge span's flow id resolving to a flush origin in
  // the same trace (cache off: every decision was model-served).
  const auto events = tracer->collect();
  EXPECT_EQ(tracer->dropped(), 0u);
  std::size_t runs = 0, compiles = 0, executes = 0, judges = 0, flushes = 0;
  std::set<std::uint64_t> flow_origins;
  std::set<std::uint64_t> compile_traces;
  for (const auto& event : events) {
    switch (event.kind) {
      case obs::SpanKind::kRun: ++runs; break;
      case obs::SpanKind::kCompile:
        ++compiles;
        compile_traces.insert(event.trace_id);
        break;
      case obs::SpanKind::kExecute: ++executes; break;
      case obs::SpanKind::kJudge: ++judges; break;
      case obs::SpanKind::kFlush:
        ++flushes;
        flow_origins.insert(event.flow_id);
        break;
      default: break;
    }
    EXPECT_GE(event.end_us, event.start_us);
  }
  EXPECT_EQ(runs, 1u);
  EXPECT_EQ(compiles, files.size());
  EXPECT_EQ(executes, files.size());
  EXPECT_EQ(judges, files.size());
  EXPECT_EQ(flushes, files.size());  // batch size 1: one flush per file
  EXPECT_EQ(compile_traces.size(), files.size());  // distinct per-file ids
  for (const auto& event : events) {
    if (event.kind != obs::SpanKind::kJudge) continue;
    ASSERT_NE(event.flow_id, 0u) << "uncached judge span must carry a flow";
    EXPECT_EQ(flow_origins.count(event.flow_id), 1u);
  }
}

}  // namespace
}  // namespace llm4vv::pipeline
