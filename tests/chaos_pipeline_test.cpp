// S3 chaos suite: drives a 120-file corpus through the full pipeline under
// seeded FaultPlan transient rates of 0%, 5% and 20% with retries enabled,
// asserting (a) no hangs (the test completing is the assertion — every run
// is bounded by the retry budget), (b) every input file is accounted for as
// success or judge_error with nothing dropped, and (c) verdicts of
// non-errored records are byte-identical to the fault-free run: fault draws
// and retries never leak into the judgment RNG.
//
// Rebuilding with -DLLM4VV_CHAOS=ON extends the sweep (more rates, a
// second corpus seed) for the CI chaos leg.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "corpus/generator.hpp"
#include "judge/judge.hpp"
#include "llm/client.hpp"
#include "llm/coder_model.hpp"
#include "llm/faults.hpp"
#include "pipeline/validation_pipeline.hpp"
#include "probing/prober.hpp"
#include "tests/test_util.hpp"

namespace llm4vv::pipeline {
namespace {

constexpr std::size_t kCorpusSize = 120;

/// The perf_pipeline corpus shape: a probed batch with a 30% invalid share
/// (issues 0-2), so the judge sees a realistic verdict mix.
std::vector<frontend::SourceFile> chaos_corpus(std::uint64_t seed) {
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

/// Pipeline over a simulated model with the given transient fault rate.
/// Judge cache off (every file must actually face the faulty model),
/// kRecordAll (every file reaches the judge), grouped judge submissions so
/// multi-prompt passes exercise the client's failed-batch splitting.
PipelineResult run_chaos(const std::vector<frontend::SourceFile>& files,
                         double transient_rate, std::uint32_t max_attempts) {
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
  auto client = std::make_shared<llm::ModelClient>(
      model, /*max_concurrency=*/2, /*transcript_capacity=*/0,
      llm::BatcherConfig{}, retry);

  judge::JudgeCacheConfig cache;
  cache.enabled = false;
  auto judge = std::make_shared<const judge::Llmj>(
      client, llm::PromptStyle::kAgentDirect, cache);

  PipelineConfig config;
  config.mode = PipelineMode::kRecordAll;
  config.compile_workers = 2;
  config.execute_workers = 2;
  config.judge_workers = 2;
  config.judge_batch_size = 4;
  const ValidationPipeline pipe(
      testutil::clean_driver(frontend::Flavor::kOpenACC),
      toolchain::Executor(), judge, config);
  return pipe.run(files);
}

/// (b): every input file is accounted for — judged or judge_error, nothing
/// dropped, counters consistent with the records.
void assert_accounted(const PipelineResult& result) {
  ASSERT_EQ(result.records.size(), kCorpusSize);
  std::size_t judged = 0;
  std::size_t errored = 0;
  for (const auto& record : result.records) {
    EXPECT_FALSE(record.dropped);
    EXPECT_NE(record.judged, record.judge_error)
        << "record " << record.index
        << " must resolve as exactly one of judged / judge_error";
    judged += record.judged ? 1 : 0;
    errored += record.judge_error ? 1 : 0;
    if (record.judge_error) {
      EXPECT_EQ(record.judge_error_kind, llm::FailureKind::kTransient);
      EXPECT_GT(record.judge_attempts, 0u);
    }
  }
  EXPECT_EQ(judged + errored, kCorpusSize);
  EXPECT_EQ(result.judge_errors, errored);
  EXPECT_EQ(result.dropped_items, 0u);
  EXPECT_EQ(result.judge_stage.processed, kCorpusSize);
}

/// (c): non-errored records carry byte-identical verdicts to the baseline.
void assert_verdicts_match(const PipelineResult& chaos,
                           const PipelineResult& baseline) {
  for (std::size_t i = 0; i < chaos.records.size(); ++i) {
    const auto& record = chaos.records[i];
    if (record.judge_error) continue;
    const auto& reference = baseline.records[i];
    EXPECT_EQ(record.verdict, reference.verdict) << "record " << i;
    EXPECT_EQ(record.judge_says_valid, reference.judge_says_valid)
        << "record " << i;
    EXPECT_EQ(record.pipeline_says_valid, reference.pipeline_says_valid)
        << "record " << i;
  }
}

void run_sweep(std::uint64_t corpus_seed) {
  const auto files = chaos_corpus(corpus_seed);
  ASSERT_EQ(files.size(), kCorpusSize);
  const PipelineResult baseline = run_chaos(files, 0.0, 1);
  assert_accounted(baseline);
  EXPECT_EQ(baseline.judge_errors, 0u);
  EXPECT_EQ(baseline.judge_client.retries, 0u);

  for (const double rate : {0.0, 0.05, 0.20}) {
    SCOPED_TRACE("transient_rate=" + std::to_string(rate));
    const PipelineResult result = run_chaos(files, rate, /*max_attempts=*/4);
    assert_accounted(result);
    assert_verdicts_match(result, baseline);

    std::size_t judged = 0;
    for (const auto& record : result.records) judged += record.judged;
    // >= 95% of files must be judged successfully via retries: a file only
    // errors when all 4 of its attempts draw transient (rate^4).
    EXPECT_GE(judged, kCorpusSize * 95 / 100);

    if (rate == 0.0) {
      // The fault-free sweep member is the baseline, bit for bit.
      EXPECT_EQ(result.judge_errors, 0u);
      EXPECT_EQ(result.judge_client.retries, 0u);
      // Totals accumulate across worker threads in nondeterministic order,
      // so allow FP-summation noise; per-record costs are asserted exact
      // through the verdict byte-identity above.
      EXPECT_NEAR(result.judge_gpu_seconds, baseline.judge_gpu_seconds,
                  1e-6 * baseline.judge_gpu_seconds);
      for (const auto& bucket : result.judge_client.retry_latency_hist) {
        EXPECT_EQ(bucket, 0u);
      }
    } else {
      // Faults really fired and the retry layer really paid for them.
      EXPECT_GT(result.judge_client.retries, 0u);
      std::uint64_t hist_total = 0;
      for (const auto& bucket : result.judge_client.retry_latency_hist) {
        hist_total += bucket;
      }
      EXPECT_GT(hist_total, 0u);
      // Note: no sim-GPU equality with the baseline — a split pass serves
      // its survivors in singleton retries that forgo the batched prefill
      // amortization, so faulted runs legitimately price higher.
      EXPECT_GT(result.judge_gpu_seconds, 0.0);
    }
  }
}

TEST(ChaosPipelineTest, SweepTransientRatesWithRetries) { run_sweep(1234); }

#ifdef LLM4VV_CHAOS
// CI chaos leg: a second corpus seed and harsher rates, including a run at
// the retry budget's edge (two attempts against 20% faults still has to
// account for every file — more errors, never drops).
TEST(ChaosPipelineTest, ExtendedSweepSecondCorpus) { run_sweep(4321); }

TEST(ChaosPipelineTest, TightRetryBudgetStillAccountsForEverything) {
  const auto files = chaos_corpus(1234);
  const PipelineResult baseline = run_chaos(files, 0.0, 1);
  const PipelineResult result = run_chaos(files, 0.35, /*max_attempts=*/2);
  assert_accounted(result);
  assert_verdicts_match(result, baseline);
  EXPECT_GT(result.judge_client.retries, 0u);
}
#endif

}  // namespace
}  // namespace llm4vv::pipeline
