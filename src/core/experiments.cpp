#include "core/experiments.hpp"

#include "corpus/generator.hpp"
#include "judge/judge.hpp"
#include "llm/coder_model.hpp"
#include "support/thread_pool.hpp"

namespace llm4vv::core {

namespace {

using frontend::Flavor;

corpus::GeneratorConfig corpus_config(Flavor flavor, std::size_t count,
                                      std::uint64_t seed, bool part_one) {
  corpus::GeneratorConfig config;
  config.flavor = flavor;
  config.count = count;
  config.seed = seed;
  config.max_version = 45;  // OpenMP capped at 4.5, as in the paper
  if (part_one) {
    // Part One: the OpenACC suite contained C, C++ and a small set of
    // Fortran files; the OpenMP suite "only C files, due to time
    // constraints".
    config.cpp_share = flavor == Flavor::kOpenACC ? 0.30 : 0.0;
    config.fortran_share = flavor == Flavor::kOpenACC ? 0.08 : 0.0;
  } else {
    // Part Two: "using C and C++ files from the manually-written
    // testsuites for both".
    config.cpp_share = 0.35;
    config.fortran_share = 0.0;
  }
  return config;
}

std::size_t config_total(const probing::ProbingConfig& config) {
  std::size_t total = 0;
  for (const auto count : config.issue_counts) total += count;
  return total;
}

}  // namespace

std::shared_ptr<llm::ModelClient> make_simulated_client(
    std::size_t max_concurrency, llm::BatcherConfig batcher) {
  auto model = std::make_shared<const llm::SimulatedCoderModel>();
  return std::make_shared<llm::ModelClient>(model, max_concurrency,
                                            /*transcript_capacity=*/0,
                                            batcher);
}

probing::ProbedSuite build_part_one_suite(Flavor flavor,
                                          const ExperimentOptions& options) {
  auto probe_config = flavor == Flavor::kOpenACC
                          ? probing::part_one_acc_config()
                          : probing::part_one_omp_config();
  probe_config.seed += options.probe_seed_offset;
  const auto suite = corpus::generate_suite(corpus_config(
      flavor, config_total(probe_config) + 64, options.corpus_seed,
      /*part_one=*/true));
  return probing::probe_suite(suite, probe_config);
}

probing::ProbedSuite build_part_two_suite(Flavor flavor,
                                          const ExperimentOptions& options) {
  auto probe_config = flavor == Flavor::kOpenACC
                          ? probing::part_two_acc_config()
                          : probing::part_two_omp_config();
  probe_config.seed += options.probe_seed_offset;
  const auto suite = corpus::generate_suite(corpus_config(
      flavor, config_total(probe_config) + 64, options.corpus_seed,
      /*part_one=*/false));
  return probing::probe_suite(suite, probe_config);
}

PartOneOutcome run_part_one(Flavor flavor,
                            const ExperimentOptions& options) {
  PartOneOutcome outcome;
  outcome.suite = build_part_one_suite(flavor, options);

  auto client = make_simulated_client(options.judge_workers);
  // Cache off for the same reason as run_part_two: the paper queried the
  // model once per file, and llm_stats must keep that accounting.
  judge::JudgeCacheConfig cache;
  cache.enabled = false;
  const judge::Llmj direct_judge(client, llm::PromptStyle::kDirectAnalysis,
                                 cache);

  outcome.judgments.resize(outcome.suite.files.size());
  {
    // Judge files in parallel; verdicts are per-file deterministic, so the
    // schedule does not affect results.
    support::ThreadPool pool(options.judge_workers);
    for (std::size_t i = 0; i < outcome.suite.files.size(); ++i) {
      pool.post([&, i] {
        const auto& probed = outcome.suite.files[i];
        const auto decision = direct_judge.evaluate(
            probed.file, nullptr, nullptr, options.judge_seed);
        outcome.judgments[i] =
            metrics::JudgmentRecord{probed.issue, decision.says_valid};
      });
    }
    pool.wait_idle();
  }
  outcome.report = metrics::evaluate(outcome.judgments);
  outcome.llm_stats = client->stats();
  return outcome;
}

PartTwoOutcome run_part_two(Flavor flavor,
                            const ExperimentOptions& options) {
  PartTwoOutcome outcome;
  outcome.suite = build_part_two_suite(flavor, options);

  std::vector<frontend::SourceFile> files;
  files.reserve(outcome.suite.files.size());
  for (const auto& probed : outcome.suite.files) {
    files.push_back(probed.file);
  }

  auto client = make_simulated_client(options.judge_workers);
  const auto persona = flavor == Flavor::kOpenACC ? toolchain::nvc_persona()
                                                  : toolchain::clang_persona();

  pipeline::PipelineConfig pipe_config;
  pipe_config.mode = pipeline::PipelineMode::kRecordAll;
  pipe_config.compile_workers = options.compile_workers;
  pipe_config.execute_workers = options.execute_workers;
  pipe_config.judge_workers = options.judge_workers;
  pipe_config.judge_seed = options.judge_seed;
  // Paper mode, pinned on both knobs: judge_batch_size = 1 makes the judge
  // stage submit each file on its own, and the client above runs with
  // the default batcher (window_us = 0), so every call is its own
  // immediate flush. Together they preserve the paper's one-completion-
  // per-file accounting — llm_stats and the simulated GPU totals stay
  // seed-exact (batched passes amortize prefill and would price the same
  // completions cheaper; a nonzero window would let calls coalesce).
  pipe_config.judge_batch_size = 1;

  const auto run_with = [&](llm::PromptStyle style) {
    // The paper's measurement runs query the model for every file; disable
    // the judge's memoization cache so llm_stats keeps the paper's
    // one-request-per-file accounting even when probing left duplicates.
    judge::JudgeCacheConfig cache;
    cache.enabled = false;
    auto judge = std::make_shared<const judge::Llmj>(client, style, cache);
    const pipeline::ValidationPipeline pipe(
        toolchain::CompilerDriver(persona), toolchain::Executor(), judge,
        pipe_config);
    return pipe.run(files);
  };

  outcome.pipeline_run1 = run_with(llm::PromptStyle::kAgentDirect);
  outcome.pipeline_run2 = run_with(llm::PromptStyle::kAgentIndirect);

  const std::size_t n = outcome.suite.files.size();
  outcome.llmj1.resize(n);
  outcome.llmj2.resize(n);
  outcome.pipeline1.resize(n);
  outcome.pipeline2.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto issue = outcome.suite.files[i].issue;
    const auto& r1 = outcome.pipeline_run1.records[i];
    const auto& r2 = outcome.pipeline_run2.records[i];
    outcome.llmj1[i] = metrics::JudgmentRecord{issue, r1.judge_says_valid};
    outcome.llmj2[i] = metrics::JudgmentRecord{issue, r2.judge_says_valid};
    outcome.pipeline1[i] =
        metrics::JudgmentRecord{issue, r1.pipeline_says_valid};
    outcome.pipeline2[i] =
        metrics::JudgmentRecord{issue, r2.pipeline_says_valid};
  }
  outcome.llmj1_report = metrics::evaluate(outcome.llmj1);
  outcome.llmj2_report = metrics::evaluate(outcome.llmj2);
  outcome.pipeline1_report = metrics::evaluate(outcome.pipeline1);
  outcome.pipeline2_report = metrics::evaluate(outcome.pipeline2);
  outcome.llm_stats = client->stats();
  return outcome;
}

}  // namespace llm4vv::core
