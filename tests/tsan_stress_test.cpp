// Sanitizer-targeted stress suite (docs/STATIC_ANALYSIS.md). These tests
// exist to give ThreadSanitizer and AddressSanitizer dense interleavings
// over the code paths the thread-safety annotations protect: the sharded
// queue's steal scan, the adaptive batcher's window-flush racing inline
// flushes, the circuit breaker's half-open transitions, concurrent
// artifact-store save/put traffic, and the simulated model's perception
// memo. They build and pass in every
// configuration (each also asserts real invariants), but their sizing —
// many small operations across few threads, bounded wall-clock — is chosen
// for instrumented runs: the TSan and ASan+UBSan CI legs execute exactly
// the `sanitizer`-labeled ctest suite this file anchors.
//
// PaperModeSimGpu pins the paper-mode accounting *under instrumentation*:
// sanitizers perturb timing and interleavings, and the simulated GPU
// seconds must not care.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/artifact_store.hpp"
#include "core/llm4vv.hpp"
#include "judge/prompt.hpp"
#include "support/mpmc_queue.hpp"
#include "support/thread_pool.hpp"
#include "tests/test_util.hpp"

namespace llm4vv {
namespace {

// Sized for instrumented runs on small machines: every scenario finishes
// in well under a second uninstrumented.
constexpr std::size_t kThreads = 4;
constexpr std::size_t kItemsPerThread = 400;

// ---------------------------------------------------------------------------
// MpmcQueue: the steal scan (pop draining a non-home shard) is the queue's
// subtlest path — a consumer holds no lock while choosing the next shard to
// scan, so every item handoff it performs must still be properly ordered.
// ---------------------------------------------------------------------------

TEST(TsanStressTest, QueueStealScanDeliversEveryItemOnce) {
  support::MpmcQueue<std::uint64_t> queue(64, /*shards=*/4);
  std::atomic<std::uint64_t> popped_sum{0};
  std::atomic<std::size_t> popped_count{0};

  std::vector<std::thread> consumers;
  for (std::size_t c = 0; c < kThreads; ++c) {
    consumers.emplace_back([&] {
      std::vector<std::uint64_t> batch;
      for (;;) {
        // Alternate the single-pop and batched-pop paths so the home-shard
        // fast path and the steal scan both run under the sanitizer.
        if (auto item = queue.pop()) {
          popped_sum.fetch_add(*item, std::memory_order_relaxed);
          popped_count.fetch_add(1, std::memory_order_relaxed);
        } else {
          break;  // closed and drained
        }
        batch.clear();
        const std::size_t n = queue.pop_up_to(8, batch);
        for (std::size_t i = 0; i < n; ++i) {
          popped_sum.fetch_add(batch[i], std::memory_order_relaxed);
        }
        popped_count.fetch_add(n, std::memory_order_relaxed);
      }
    });
  }

  std::uint64_t pushed_sum = 0;
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kThreads; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kItemsPerThread; ++i) {
        const std::uint64_t value = p * kItemsPerThread + i + 1;
        if ((i & 3) == 0) {
          while (!queue.try_push(value)) std::this_thread::yield();
        } else {
          ASSERT_TRUE(queue.push(value));
        }
      }
    });
  }
  for (std::size_t p = 0; p < kThreads; ++p) {
    for (std::size_t i = 0; i < kItemsPerThread; ++i) {
      pushed_sum += p * kItemsPerThread + i + 1;
    }
  }

  for (auto& t : producers) t.join();
  queue.close();
  for (auto& t : consumers) t.join();

  EXPECT_EQ(popped_count.load(), kThreads * kItemsPerThread);
  EXPECT_EQ(popped_sum.load(), pushed_sum);
  EXPECT_EQ(queue.size(), 0u);
}

// ---------------------------------------------------------------------------
// ThreadPool: wait_idle() racing a stream of posts from another thread.
// ---------------------------------------------------------------------------

TEST(TsanStressTest, ThreadPoolWaitIdleUnderChurn) {
  support::ThreadPool pool(kThreads);
  std::atomic<std::size_t> executed{0};
  for (std::size_t round = 0; round < 8; ++round) {
    for (std::size_t i = 0; i < 64; ++i) {
      pool.post([&] { executed.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    EXPECT_EQ(executed.load(), (round + 1) * 64);
  }
}

// ---------------------------------------------------------------------------
// Adaptive batcher: concurrent submitters race the window-flush thread
// against inline full-batch flushes. Every future must resolve, and each
// completion must be byte-identical to the sequential reference.
// ---------------------------------------------------------------------------

TEST(TsanStressTest, BatcherWindowFlushRacesInlineFlush) {
  auto model = std::make_shared<const llm::SimulatedCoderModel>();
  llm::BatcherConfig batcher;
  batcher.max_batch = 3;      // inline full-batch flushes...
  batcher.window_us = 200;    // ...racing a fast window flusher
  llm::ModelClient client(model, 2, 0, batcher);
  llm::ModelClient reference(model, 1);

  llm::GenerationParams params;
  params.seed = 21;

  constexpr std::size_t kPrompts = 24;
  std::vector<std::string> prompts;
  prompts.reserve(kPrompts);
  for (std::size_t i = 0; i < kPrompts; ++i) {
    prompts.push_back("tsan stress prompt #" + std::to_string(i));
  }

  std::vector<llm::Completion> results(kPrompts);
  std::vector<std::thread> submitters;
  std::atomic<std::size_t> next{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= kPrompts) break;
        results[i] = client.submit(prompts[i], params).get();
      }
    });
  }
  for (auto& t : submitters) t.join();

  for (std::size_t i = 0; i < kPrompts; ++i) {
    const auto expected = reference.complete(prompts[i], params);
    EXPECT_EQ(results[i].text, expected.text) << "prompt " << i;
    EXPECT_EQ(results[i].completion_tokens, expected.completion_tokens);
  }
  const auto stats = client.stats();
  EXPECT_EQ(stats.requests, kPrompts);
}

// ---------------------------------------------------------------------------
// Circuit breaker: a high transient-fault rate drives open/half-open/closed
// transitions while submitters hammer the client and a monitor thread polls
// breaker_state(). Futures must all resolve (success or a typed error).
// ---------------------------------------------------------------------------

TEST(TsanStressTest, BreakerHalfOpenTransitionsUnderLoad) {
  llm::CoderModelConfig model_config;
  llm::FaultPlanConfig faults;
  faults.transient_rate = 0.6;
  faults.seed = 99;
  model_config.faults = std::make_shared<const llm::FaultPlan>(faults);
  auto model = std::make_shared<const llm::SimulatedCoderModel>(model_config);

  llm::CircuitBreakerConfig breaker;
  breaker.enabled = true;
  breaker.window = 8;
  breaker.min_samples = 4;
  breaker.open_failure_rate = 0.5;
  breaker.cooldown_us = 500;  // short cooldown: many half-open probes
  llm::ModelClient client(model, 2, 0, llm::BatcherConfig{},
                          llm::RetryPolicy{}, breaker);

  std::atomic<bool> stop{false};
  std::thread monitor([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)client.breaker_state();
      (void)client.queue_depth();
      (void)client.pending_depth();
      std::this_thread::yield();
    }
  });

  std::atomic<std::size_t> succeeded{0};
  std::atomic<std::size_t> failed{0};
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      llm::GenerationParams params;
      params.seed = 7 + t;
      for (std::size_t i = 0; i < 48; ++i) {
        auto future = client.submit(
            "breaker stress " + std::to_string(t * 100 + i), params);
        try {
          (void)future.get();
          succeeded.fetch_add(1, std::memory_order_relaxed);
        } catch (const llm::ModelError&) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  stop.store(true, std::memory_order_release);
  monitor.join();

  // Every future resolved one way or the other, and with a 60% transient
  // rate both outcomes occurred.
  EXPECT_EQ(succeeded.load() + failed.load(), kThreads * 48);
  EXPECT_GT(succeeded.load(), 0u);
  EXPECT_GT(failed.load(), 0u);
}

// ---------------------------------------------------------------------------
// ArtifactStore: concurrent put/get traffic racing whole-store save()
// calls. The save path snapshots under the writer lock and serializes on
// its own mutex; a sanitizer must see no conflict with readers.
// ---------------------------------------------------------------------------

TEST(TsanStressTest, ConcurrentStoreSaveAndPut) {
  testutil::TempFile file("tsan_store");
  cache::ArtifactStoreConfig config;
  config.path = file.path();
  config.max_records = 512;
  cache::ArtifactStore store(config);

  std::vector<std::thread> writers;
  std::atomic<std::size_t> saves_ok{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < 128; ++i) {
        const std::uint64_t key = t * 1000 + i;
        store.put("stress", key, key ^ 0xABCD,
                  {{"v", std::to_string(key)}});
        if (auto fields = store.get("stress", key, key ^ 0xABCD)) {
          const std::string* v = cache::find_field(*fields, "v");
          ASSERT_NE(v, nullptr);
          EXPECT_EQ(*v, std::to_string(key));
        }
        if ((i & 31) == 0) {
          if (store.save()) saves_ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_TRUE(store.save());
  EXPECT_GT(saves_ok.load(), 0u);

  // The published file must round-trip: a fresh store loads every record
  // that survived compaction.
  cache::ArtifactStore reloaded(config);
  EXPECT_EQ(reloaded.load_report().cold_start, false);
  EXPECT_EQ(reloaded.size(), store.size());
}

// ---------------------------------------------------------------------------
// SimulatedCoderModel's perception memo: concurrent misses on one code block
// race to insert it, hits read shards other threads are evicting from. With
// four threads judging overlapping prompts (each file under both agent
// styles, so two prompts share one code block) through one model, every
// completion must equal a single-threaded run's.
// ---------------------------------------------------------------------------

TEST(TsanStressTest, SharedModelPerceptionMemoMatchesSingleThread) {
  // Two files of every probing class, so the memoized evidence differs
  // between code blocks and a hit served for the wrong one shows.
  probing::ProbingConfig probe;
  probe.issue_counts = {2, 2, 2, 2, 2, 2};
  probe.seed = 4321;
  const auto probed = probing::probe_suite(
      corpus::generate_suite(
          testutil::corpus_config(frontend::Flavor::kOpenACC, 24, 4321)),
      probe);
  const auto driver = testutil::clean_driver(frontend::Flavor::kOpenACC);
  std::vector<std::string> prompts;
  for (const auto& file : probed.files) {
    const auto compiled = driver.compile(file.file);
    const auto ran = toolchain::Executor().run(compiled.module);
    prompts.push_back(judge::agent_direct_prompt(file.file, compiled, ran));
    prompts.push_back(judge::agent_indirect_prompt(file.file, compiled, ran));
  }
  std::vector<std::string> expected;
  {
    const llm::SimulatedCoderModel single;
    for (const auto& prompt : prompts) {
      expected.push_back(single.generate(prompt, {}).text);
    }
  }

  const llm::SimulatedCoderModel shared;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at its own offset and strides through every
      // prompt three times, so threads overlap on keys at different times.
      for (std::size_t k = 0; k < 3 * prompts.size(); ++k) {
        const std::size_t i = (t * 5 + k) % prompts.size();
        if (shared.generate(prompts[i], {}).text != expected[i]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

// ---------------------------------------------------------------------------
// Paper-mode pinning under instrumentation: the early-filter ablation's
// seed-exact simulated GPU seconds (bench/perf_pipeline.cpp BM_PipelineMode
// filter:0/invalid_tenths:0 and the CI jq gate) must hold when the whole
// pipeline runs under TSan/ASan — the accounting is deterministic in
// values, only wall-clock may stretch.
// ---------------------------------------------------------------------------

TEST(TsanStressTest, PaperModeSimGpuSecondsExactUnderSanitizers) {
  const auto suite = corpus::generate_suite(
      testutil::corpus_config(frontend::Flavor::kOpenACC, 120 + 32, 1234));

  probing::ProbingConfig probe;
  probe.issue_counts = {0, 0, 0, 0, 0, 120};
  probe.seed = 77;
  const auto probed = probing::probe_suite(suite, probe);
  std::vector<frontend::SourceFile> files;
  files.reserve(probed.files.size());
  for (const auto& f : probed.files) files.push_back(f.file);

  auto client = core::make_simulated_client(2);
  judge::JudgeCacheConfig cache;
  cache.enabled = false;
  auto judge = std::make_shared<const judge::Llmj>(
      client, llm::PromptStyle::kAgentDirect, cache);
  pipeline::PipelineConfig config;
  config.mode = pipeline::PipelineMode::kRecordAll;
  config.compile_workers = 2;
  config.execute_workers = 2;
  config.judge_workers = 2;
  config.judge_batch_size = 1;
  const pipeline::ValidationPipeline pipe(
      toolchain::CompilerDriver(toolchain::nvc_persona()),
      toolchain::Executor(), judge, config);

  const auto result = pipe.run(files);
  EXPECT_NEAR(result.judge_gpu_seconds, 1606.13, 0.005);
  EXPECT_EQ(result.judge_stage.processed, files.size());
}

}  // namespace
}  // namespace llm4vv
