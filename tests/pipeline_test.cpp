#include <gtest/gtest.h>

#include <map>

#include "core/experiments.hpp"
#include "corpus/generator.hpp"
#include "pipeline/validation_pipeline.hpp"
#include "probing/prober.hpp"
#include "tests/test_util.hpp"

namespace llm4vv::pipeline {
namespace {

using frontend::Flavor;

probing::ProbedSuite probed_batch(std::size_t per_issue,
                                  std::size_t valid_count) {
  const auto suite = corpus::generate_suite(testutil::corpus_config(
      Flavor::kOpenACC, per_issue * 5 + valid_count + 32, 808));
  probing::ProbingConfig config;
  config.issue_counts = {per_issue, per_issue, per_issue, per_issue,
                         per_issue, valid_count};
  config.seed = 909;
  return probing::probe_suite(suite, config);
}

std::vector<frontend::SourceFile> files_of(
    const probing::ProbedSuite& probed) {
  std::vector<frontend::SourceFile> files;
  for (const auto& pf : probed.files) files.push_back(pf.file);
  return files;
}

ValidationPipeline make_pipeline(PipelineMode mode, std::size_t workers,
                                 std::shared_ptr<llm::ModelClient> client) {
  auto judge = std::make_shared<const judge::Llmj>(
      client, llm::PromptStyle::kAgentDirect);
  PipelineConfig config;
  config.mode = mode;
  config.compile_workers = workers;
  config.execute_workers = workers;
  config.judge_workers = workers;
  return ValidationPipeline(testutil::clean_driver(Flavor::kOpenACC),
                            toolchain::Executor(), judge, config);
}

TEST(PipelineTest, EmptyInputYieldsEmptyResult) {
  const auto pipe = make_pipeline(PipelineMode::kRecordAll, 2,
                                  core::make_simulated_client(2));
  const auto result = pipe.run({});
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.compile_stage.processed, 0u);
}

TEST(PipelineTest, NullJudgeThrows) {
  PipelineConfig config;
  EXPECT_THROW(ValidationPipeline(testutil::clean_driver(Flavor::kOpenACC),
                                  toolchain::Executor(), nullptr, config),
               std::invalid_argument);
}

TEST(PipelineTest, RecordAllProcessesEveryFileInEveryStage) {
  const auto probed = probed_batch(4, 20);
  const auto files = files_of(probed);
  const auto pipe = make_pipeline(PipelineMode::kRecordAll, 2,
                                  core::make_simulated_client(2));
  const auto result = pipe.run(files);
  EXPECT_EQ(result.compile_stage.processed, files.size());
  EXPECT_EQ(result.execute_stage.processed, files.size());
  EXPECT_EQ(result.judge_stage.processed, files.size());
  for (const auto& record : result.records) {
    EXPECT_TRUE(record.judged);
  }
}

TEST(PipelineTest, FilterEarlySkipsDownstreamStages) {
  const auto probed = probed_batch(4, 20);
  const auto files = files_of(probed);
  const auto pipe = make_pipeline(PipelineMode::kFilterEarly, 2,
                                  core::make_simulated_client(2));
  const auto result = pipe.run(files);
  EXPECT_EQ(result.compile_stage.processed, files.size());
  EXPECT_LT(result.execute_stage.processed, files.size());
  EXPECT_EQ(result.execute_stage.processed,
            result.compile_stage.processed -
                result.compile_stage.rejected);
  for (const auto& record : result.records) {
    if (!record.compiled) {
      EXPECT_FALSE(record.judged);
      EXPECT_FALSE(record.pipeline_says_valid);
      EXPECT_EQ(record.judge_gpu_seconds, 0.0);
    }
    if (record.compiled && !record.executed) {
      EXPECT_FALSE(record.judged);
    }
  }
}

TEST(PipelineTest, RecordsKeepInputOrder) {
  const auto probed = probed_batch(3, 12);
  const auto files = files_of(probed);
  const auto pipe = make_pipeline(PipelineMode::kRecordAll, 3,
                                  core::make_simulated_client(3));
  const auto result = pipe.run(files);
  ASSERT_EQ(result.records.size(), files.size());
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    EXPECT_EQ(result.records[i].index, i);
  }
}

TEST(PipelineTest, PipelineVerdictIsConjunctionOfStages) {
  const auto probed = probed_batch(4, 16);
  const auto files = files_of(probed);
  const auto pipe = make_pipeline(PipelineMode::kRecordAll, 2,
                                  core::make_simulated_client(2));
  const auto result = pipe.run(files);
  for (const auto& record : result.records) {
    EXPECT_EQ(record.pipeline_says_valid,
              record.compiled && record.executed && record.judged &&
                  record.judge_says_valid);
  }
}

TEST(PipelineTest, RecordAllMatchesManualStageComposition) {
  // The pipeline must agree with running the three tools by hand.
  const auto probed = probed_batch(3, 10);
  const auto files = files_of(probed);
  auto client = core::make_simulated_client(1);
  const auto pipe = make_pipeline(PipelineMode::kRecordAll, 1, client);
  const auto result = pipe.run(files);

  const auto driver = testutil::clean_driver(Flavor::kOpenACC);
  const toolchain::Executor executor;
  const judge::Llmj judge(client, llm::PromptStyle::kAgentDirect);
  for (std::size_t i = 0; i < files.size(); ++i) {
    const auto compiled = driver.compile(files[i]);
    const auto ran = executor.run(compiled.module);
    const auto decision = judge.evaluate(files[i], &compiled, &ran, 0);
    EXPECT_EQ(result.records[i].compiled, compiled.success) << i;
    EXPECT_EQ(result.records[i].executed, ran.passed()) << i;
    EXPECT_EQ(result.records[i].judge_says_valid, decision.says_valid) << i;
  }
}

TEST(PipelineTest, VerdictsIndependentOfWorkerCount) {
  const auto probed = probed_batch(3, 12);
  const auto files = files_of(probed);
  const auto run_with = [&](std::size_t workers) {
    const auto pipe = make_pipeline(PipelineMode::kRecordAll, workers,
                                    core::make_simulated_client(workers));
    return pipe.run(files);
  };
  const auto serial = run_with(1);
  const auto parallel = run_with(4);
  ASSERT_EQ(serial.records.size(), parallel.records.size());
  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    EXPECT_EQ(serial.records[i].pipeline_says_valid,
              parallel.records[i].pipeline_says_valid)
        << i;
    EXPECT_EQ(serial.records[i].judge_says_valid,
              parallel.records[i].judge_says_valid)
        << i;
  }
}

TEST(PipelineTest, FilterEarlySavesSimulatedGpuTime) {
  const auto probed = probed_batch(6, 10);  // invalid-heavy batch
  const auto files = files_of(probed);
  const auto all = make_pipeline(PipelineMode::kRecordAll, 2,
                                 core::make_simulated_client(2))
                       .run(files);
  const auto filtered = make_pipeline(PipelineMode::kFilterEarly, 2,
                                      core::make_simulated_client(2))
                            .run(files);
  EXPECT_LT(filtered.judge_gpu_seconds, all.judge_gpu_seconds * 0.8);
  EXPECT_GT(all.judge_gpu_seconds, 0.0);
}

TEST(PipelineTest, FilterAndRecordAllAgreeOnFinalVerdicts) {
  // Early filtering must not change the pipeline's verdict, only its cost.
  const auto probed = probed_batch(4, 14);
  const auto files = files_of(probed);
  const auto all = make_pipeline(PipelineMode::kRecordAll, 2,
                                 core::make_simulated_client(2))
                       .run(files);
  const auto filtered = make_pipeline(PipelineMode::kFilterEarly, 2,
                                      core::make_simulated_client(2))
                            .run(files);
  for (std::size_t i = 0; i < files.size(); ++i) {
    EXPECT_EQ(all.records[i].pipeline_says_valid,
              filtered.records[i].pipeline_says_valid)
        << i;
  }
}

TEST(PipelineTest, DuplicateFilesHitTheJudgeCache) {
  const auto probed = probed_batch(2, 10);
  auto files = files_of(probed);
  const std::size_t unique = files.size();
  // Duplicate the whole batch: every copy's judge decision is memoizable.
  // One judge worker keeps the original-before-copy order deterministic
  // (two workers could race a pair into two concurrent misses).
  const std::vector<frontend::SourceFile> originals(files);
  files.insert(files.end(), originals.begin(), originals.end());
  const auto pipe = make_pipeline(PipelineMode::kRecordAll, 1,
                                  core::make_simulated_client(1));
  const auto result = pipe.run(files);
  EXPECT_EQ(result.judge_cache_hits + result.judge_cache_misses,
            result.judge_stage.processed);
  EXPECT_GE(result.judge_cache_hits, unique);  // each copy hits
  for (std::size_t i = 0; i < unique; ++i) {
    EXPECT_EQ(result.records[i].judge_says_valid,
              result.records[i + unique].judge_says_valid)
        << i;
    if (result.records[i + unique].judge_cached) {
      EXPECT_EQ(result.records[i + unique].judge_gpu_seconds, 0.0);
    }
  }
  // GPU seconds are only spent on misses; a fully duplicated batch costs
  // no more than its unique half plus scheduling jitter.
  EXPECT_GT(result.judge_gpu_seconds, 0.0);
}

TEST(PipelineTest, NormalRunsDropNothing) {
  const auto probed = probed_batch(3, 10);
  const auto files = files_of(probed);
  const auto pipe = make_pipeline(PipelineMode::kFilterEarly, 2,
                                  core::make_simulated_client(2));
  const auto result = pipe.run(files);
  EXPECT_EQ(result.dropped_items, 0u);
  for (const auto& record : result.records) {
    EXPECT_FALSE(record.dropped);
  }
}

TEST(PipelineTest, CacheCountersZeroWhenJudgeCacheDisabled) {
  const auto probed = probed_batch(2, 8);
  const auto files = files_of(probed);
  judge::JudgeCacheConfig off;
  off.enabled = false;
  auto judge = std::make_shared<const judge::Llmj>(
      core::make_simulated_client(2), llm::PromptStyle::kAgentDirect, off);
  PipelineConfig config;
  config.mode = PipelineMode::kRecordAll;
  const ValidationPipeline pipe(testutil::clean_driver(Flavor::kOpenACC),
                                toolchain::Executor(), judge, config);
  const auto result = pipe.run(files);
  EXPECT_EQ(result.judge_cache_hits, 0u);
  EXPECT_EQ(result.judge_cache_misses, result.judge_stage.processed);
  for (const auto& record : result.records) {
    EXPECT_FALSE(record.judge_cached);
  }
}

ValidationPipeline make_batched_pipeline(
    std::size_t judge_batch_size, std::shared_ptr<llm::ModelClient> client,
    std::shared_ptr<obs::Tracer> trace = nullptr) {
  // Cache off so every judged file is a genuine model submission: the GPU
  // accounting then isolates the batched pass pricing. Many producer
  // workers feed one judge worker, so the judge queue accumulates and the
  // popped chunks actually fill their batches.
  judge::JudgeCacheConfig off;
  off.enabled = false;
  auto judge = std::make_shared<const judge::Llmj>(
      client, llm::PromptStyle::kAgentDirect, off);
  PipelineConfig config;
  config.mode = PipelineMode::kRecordAll;
  config.compile_workers = 4;
  config.execute_workers = 4;
  config.judge_workers = 1;
  config.judge_batch_size = judge_batch_size;
  config.trace = std::move(trace);
  return ValidationPipeline(testutil::clean_driver(Flavor::kOpenACC),
                            toolchain::Executor(), judge, config);
}

TEST(PipelineTest, BatchedJudgingMatchesSequentialVerdicts) {
  const auto probed = probed_batch(4, 20);
  const auto files = files_of(probed);
  const auto sequential =
      make_batched_pipeline(1, core::make_simulated_client(4)).run(files);
  const auto batched =
      make_batched_pipeline(8, core::make_simulated_client(4)).run(files);
  ASSERT_EQ(sequential.records.size(), batched.records.size());
  for (std::size_t i = 0; i < sequential.records.size(); ++i) {
    EXPECT_EQ(sequential.records[i].verdict, batched.records[i].verdict)
        << i;
    EXPECT_EQ(sequential.records[i].judge_says_valid,
              batched.records[i].judge_says_valid)
        << i;
    EXPECT_EQ(sequential.records[i].pipeline_says_valid,
              batched.records[i].pipeline_says_valid)
        << i;
  }
}

TEST(PipelineTest, BatchedJudgingFillsBatchesAndSavesGpuSeconds) {
  const auto probed = probed_batch(8, 60);  // 100 files through one judge
  const auto files = files_of(probed);
  const auto sequential =
      make_batched_pipeline(1, core::make_simulated_client(4)).run(files);
  const auto batched =
      make_batched_pipeline(8, core::make_simulated_client(4)).run(files);

  // The sequential path never batches.
  EXPECT_EQ(sequential.judge_client.batches, 0u);
  EXPECT_EQ(sequential.judge_client.batch_occupancy(), 0.0);

  // The batched path actually filled forward passes...
  EXPECT_GT(batched.judge_client.batches, 0u);
  EXPECT_GT(batched.judge_client.batch_occupancy(), 1.0);
  EXPECT_GE(batched.judge_client.max_batch, 2u);
  EXPECT_EQ(batched.judge_client.batched_prompts,
            static_cast<std::uint64_t>(batched.judge_stage.processed));
  // ...and amortizing prefill across them costs measurably fewer simulated
  // GPU seconds than one call per file.
  EXPECT_LT(batched.judge_gpu_seconds, sequential.judge_gpu_seconds * 0.8);
  EXPECT_GT(batched.judge_gpu_seconds, 0.0);
}

TEST(PipelineTest, EachJudgeSpanCoversOnlyItsOwnFlush) {
  // A judge span runs from its item's submission to its resolution. With
  // a zero window every group flushes when it is submitted and resolves
  // at once, so each span must hold the flush its flow id names and no
  // other group's. One judge worker fed by four producers pops chunks of
  // up to 16 files, so batch 8 puts two groups in a chunk.
  const auto files = files_of(probed_batch(8, 60));
  for (const std::size_t judge_batch : {1, 8}) {
    SCOPED_TRACE("judge_batch_size " + std::to_string(judge_batch));
    auto tracer = std::make_shared<obs::Tracer>();
    auto client = core::make_simulated_client(4);
    client->set_tracer(tracer);
    const auto result =
        make_batched_pipeline(judge_batch, client, tracer).run(files);
    ASSERT_EQ(result.judge_stage.processed, files.size());
    const auto events = tracer->collect();
    ASSERT_EQ(tracer->dropped(), 0u);

    std::map<std::uint64_t, obs::TraceEvent> flushes;  // by span id
    for (const auto& event : events) {
      if (event.kind == obs::SpanKind::kFlush) {
        flushes.emplace(event.span_id, event);
      }
    }
    const auto inside = [](const obs::TraceEvent& inner,
                           const obs::TraceEvent& outer) {
      return inner.start_us >= outer.start_us && inner.end_us <= outer.end_us;
    };
    std::map<std::uint64_t, std::size_t> judge_spans;  // per trace id
    for (const auto& event : events) {
      if (event.kind != obs::SpanKind::kJudge) continue;
      const std::uint64_t file = event.trace_id - 1;
      ++judge_spans[event.trace_id];
      const auto own = flushes.find(event.flow_id);
      ASSERT_NE(own, flushes.end()) << "file " << file;
      EXPECT_TRUE(inside(own->second, event)) << "file " << file;
      for (const auto& [id, flush] : flushes) {
        if (id != event.flow_id) {
          EXPECT_FALSE(inside(flush, event))
              << "file " << file << " holds flush " << id;
        }
      }
    }
    EXPECT_EQ(judge_spans.size(), files.size());
    for (const auto& [trace, count] : judge_spans) {
      EXPECT_EQ(count, 1u) << "file " << trace - 1;
    }
  }
}

TEST(PipelineTest, JudgeBatchSizeZeroIsRejectedAtConstruction) {
  // Regression: judge_batch_size = 0 used to be silently clamped inside
  // the judge stage; it must now fail loudly at construction time.
  auto judge = std::make_shared<const judge::Llmj>(
      core::make_simulated_client(1), llm::PromptStyle::kAgentDirect);
  PipelineConfig config;
  config.judge_batch_size = 0;
  EXPECT_THROW(ValidationPipeline(testutil::clean_driver(Flavor::kOpenACC),
                                  toolchain::Executor(), judge, config),
               std::invalid_argument);
}

TEST(PipelineTest, AdaptiveWindowVerdictsMatchSequentialAndBatchesForm) {
  // The submit-then-drain judge stage with a nonzero batcher window must
  // produce byte-identical verdicts to the sequential paper path, while
  // actually forming batched forward passes.
  const auto probed = probed_batch(8, 60);  // 100 files through one judge
  const auto files = files_of(probed);
  const auto sequential =
      make_batched_pipeline(1, core::make_simulated_client(4)).run(files);

  llm::BatcherConfig batcher;
  batcher.max_batch = 8;
  batcher.window_us = 1500;
  const auto adaptive =
      make_batched_pipeline(8, core::make_simulated_client(4, batcher))
          .run(files);

  ASSERT_EQ(sequential.records.size(), adaptive.records.size());
  for (std::size_t i = 0; i < sequential.records.size(); ++i) {
    EXPECT_EQ(sequential.records[i].verdict, adaptive.records[i].verdict)
        << i;
    EXPECT_EQ(sequential.records[i].judge_says_valid,
              adaptive.records[i].judge_says_valid)
        << i;
  }
  EXPECT_GT(adaptive.judge_client.formed_batches, 0u);
  EXPECT_GT(adaptive.judge_client.batch_occupancy(), 1.0);
  // The flush reasons must be adaptive ones: nothing flushes "immediately"
  // when a window is configured.
  EXPECT_EQ(adaptive.judge_client.flush_immediate, 0u);
  EXPECT_GT(
      adaptive.judge_client.flush_full + adaptive.judge_client.flush_window,
      0u);
  // Amortized passes cost no more simulated GPU time than sequential.
  EXPECT_LT(adaptive.judge_gpu_seconds, sequential.judge_gpu_seconds);
}

TEST(PipelineTest, OccupancyIsComputedFromFormedBatchesNotPoppedChunks) {
  // Regression: the reported occupancy must follow the batcher's formed
  // passes. With the batcher capped below judge_batch_size, the
  // popped-chunk groups (up to 8) are split into passes of at most 4 — the
  // reported occupancy must be the formed-pass number (<= cap), computed
  // exactly from the client's counters, even though the old popped-chunk
  // definition could read higher.
  const auto probed = probed_batch(8, 60);
  const auto files = files_of(probed);
  llm::BatcherConfig batcher;
  batcher.max_batch = 4;
  batcher.window_us = 0;
  auto client = core::make_simulated_client(4, batcher);
  const auto result = make_batched_pipeline(8, client).run(files);

  const auto stats = client->stats();
  ASSERT_GT(stats.batches, 0u);
  const llm::ClientStats& window = result.judge_client;
  EXPECT_DOUBLE_EQ(window.batch_occupancy(),
                   static_cast<double>(stats.batched_prompts) /
                       static_cast<double>(stats.batches));
  EXPECT_LE(window.batch_occupancy(), 4.0);  // capped by the batcher
  EXPECT_LE(window.max_batch, 4u);  // no formed pass exceeds the cap
  EXPECT_EQ(window.formed_batches, stats.formed_batches);
  // Histogram and telemetry flowed through.
  std::uint64_t hist_total = 0;
  for (const auto bucket : window.occupancy_hist) hist_total += bucket;
  EXPECT_EQ(hist_total, window.formed_batches);
  EXPECT_GT(window.pending_high_water, 0u);
}

TEST(PipelineTest, RepeatedAdaptiveRunsLeaveNoStrandedState) {
  // Shutdown/cancellation stress at the pipeline level: repeated runs over
  // a windowed batcher (flusher thread active, futures in flight inside
  // every run) must drain completely every time — and afterwards the judge
  // must answer instantly from a fully published cache, proving no claim
  // was left in flight. The attached registry checks the run window and
  // the cross-run totals.
  const auto probed = probed_batch(2, 10);
  const auto files = files_of(probed);
  llm::BatcherConfig batcher;
  batcher.max_batch = 4;
  batcher.window_us = 500;
  auto client = core::make_simulated_client(4, batcher);
  auto judge = std::make_shared<const judge::Llmj>(
      client, llm::PromptStyle::kAgentDirect);
  PipelineConfig config;
  config.mode = PipelineMode::kRecordAll;
  config.compile_workers = 2;
  config.execute_workers = 2;
  config.judge_workers = 4;
  config.judge_batch_size = 4;
  config.registry = std::make_shared<obs::Registry>();
  const ValidationPipeline pipe(testutil::clean_driver(Flavor::kOpenACC),
                                toolchain::Executor(), judge, config);
  const auto first = pipe.run(files);
  for (const auto& record : first.records) EXPECT_TRUE(record.judged);
  const auto second = pipe.run(files);
  for (std::size_t i = 0; i < files.size(); ++i) {
    EXPECT_EQ(second.records[i].judge_says_valid,
              first.records[i].judge_says_valid)
        << i;
    EXPECT_TRUE(second.records[i].judge_cached) << i;  // nothing stranded
  }
  EXPECT_EQ(client->pending_depth(), 0u);

  // The cache-served second run reaches no model, though the client's
  // lifetime stats hold the first run's requests.
  EXPECT_GT(first.judge_client.requests, 0u);
  EXPECT_EQ(second.judge_client.requests, 0u);
  EXPECT_EQ(second.judge_client.formed_batches, 0u);
  EXPECT_GT(client->stats().requests, 0u);
  // The permanent pipeline counters total both runs.
  const auto total = [&](const char* name) {
    const obs::MetricSample* sample = obs::find_sample(second.metrics, name);
    return sample != nullptr ? sample->value : -1.0;
  };
  EXPECT_EQ(total("pipeline.files"),
            double(first.records.size() + second.records.size()));
  EXPECT_EQ(total("pipeline.judge.processed"),
            double(first.judge_stage.processed +
                   second.judge_stage.processed));
}

TEST(PipelineTest, StageStatsAreConsistent) {
  const auto probed = probed_batch(4, 16);
  const auto files = files_of(probed);
  const auto pipe = make_pipeline(PipelineMode::kFilterEarly, 2,
                                  core::make_simulated_client(2));
  const auto result = pipe.run(files);
  EXPECT_LE(result.compile_stage.rejected, result.compile_stage.processed);
  EXPECT_EQ(result.judge_stage.processed,
            result.execute_stage.processed - result.execute_stage.rejected);
  EXPECT_GE(result.wall_seconds, 0.0);
  EXPECT_GE(result.compile_stage.busy_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// PR 5: execute-stage telemetry (dispatch core, queue shards, steal counts)
// and shard-count independence of results.
// ---------------------------------------------------------------------------

TEST(PipelineTest, ExecuteTelemetryReportsDispatchAndShards) {
  const auto probed = probed_batch(2, 8);
  const auto files = files_of(probed);
  const auto pipe = make_pipeline(PipelineMode::kRecordAll, 2,
                                  core::make_simulated_client(2));
  const auto result = pipe.run(files);
  EXPECT_EQ(result.execute_dispatch,
            vm::dispatch_mode_name(vm::DispatchMode::kTable));
  EXPECT_GE(result.queue_shards, 1u);
  EXPECT_LE(result.queue_shards, 8u);
}

TEST(PipelineTest, ExplicitQueueShardCountIsHonored) {
  const auto probed = probed_batch(2, 8);
  const auto files = files_of(probed);
  auto judge = std::make_shared<const judge::Llmj>(
      core::make_simulated_client(2), llm::PromptStyle::kAgentDirect);
  PipelineConfig config;
  config.mode = PipelineMode::kRecordAll;
  config.compile_workers = 2;
  config.execute_workers = 2;
  config.judge_workers = 2;
  config.queue_shards = 4;
  const ValidationPipeline pipe(testutil::clean_driver(Flavor::kOpenACC),
                                toolchain::Executor(), judge, config);
  const auto result = pipe.run(files);
  EXPECT_EQ(result.queue_shards, 4u);
  // Sharded hand-off must not lose or duplicate work.
  EXPECT_EQ(result.compile_stage.processed, files.size());
  EXPECT_EQ(result.execute_stage.processed, files.size());
  EXPECT_EQ(result.dropped_items, 0u);
}

TEST(PipelineTest, VerdictsIndependentOfQueueSharding) {
  const auto probed = probed_batch(3, 12);
  const auto files = files_of(probed);
  std::vector<PipelineResult> results;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    auto judge = std::make_shared<const judge::Llmj>(
        core::make_simulated_client(2), llm::PromptStyle::kAgentDirect);
    PipelineConfig config;
    config.mode = PipelineMode::kRecordAll;
    config.compile_workers = 2;
    config.execute_workers = 2;
    config.judge_workers = 2;
    config.queue_shards = shards;
    const ValidationPipeline pipe(testutil::clean_driver(Flavor::kOpenACC),
                                  toolchain::Executor(), judge, config);
    results.push_back(pipe.run(files));
  }
  ASSERT_EQ(results[0].records.size(), results[1].records.size());
  for (std::size_t i = 0; i < results[0].records.size(); ++i) {
    const auto& a = results[0].records[i];
    const auto& b = results[1].records[i];
    EXPECT_EQ(a.compiled, b.compiled) << i;
    EXPECT_EQ(a.executed, b.executed) << i;
    EXPECT_EQ(a.exec_rc, b.exec_rc) << i;
    EXPECT_EQ(a.judged, b.judged) << i;
    EXPECT_EQ(a.verdict, b.verdict) << i;
    EXPECT_EQ(a.pipeline_says_valid, b.pipeline_says_valid) << i;
  }
}

TEST(PipelineTest, ReferenceDispatchExecutorMatchesFastCore) {
  const auto probed = probed_batch(3, 12);
  const auto files = files_of(probed);
  std::vector<PipelineResult> results;
  for (const auto mode :
       {vm::DispatchMode::kTable, vm::DispatchMode::kReference}) {
    auto judge = std::make_shared<const judge::Llmj>(
        core::make_simulated_client(2), llm::PromptStyle::kAgentDirect);
    PipelineConfig config;
    config.mode = PipelineMode::kRecordAll;
    config.compile_workers = 2;
    config.execute_workers = 2;
    config.judge_workers = 2;
    const ValidationPipeline pipe(testutil::clean_driver(Flavor::kOpenACC),
                                  toolchain::Executor({}, mode), judge,
                                  config);
    results.push_back(pipe.run(files));
  }
  EXPECT_EQ(results[1].execute_dispatch, "reference");
  ASSERT_EQ(results[0].records.size(), results[1].records.size());
  for (std::size_t i = 0; i < results[0].records.size(); ++i) {
    EXPECT_EQ(results[0].records[i].executed, results[1].records[i].executed)
        << i;
    EXPECT_EQ(results[0].records[i].exec_rc, results[1].records[i].exec_rc)
        << i;
    EXPECT_EQ(results[0].records[i].pipeline_says_valid,
              results[1].records[i].pipeline_says_valid)
        << i;
  }
}

}  // namespace
}  // namespace llm4vv::pipeline
