// Asynchronous judge coverage: JudgeFuture resolution across batcher
// configurations (byte-equivalence with the blocking path), judge_chunk's
// failure reporting, immediate cache-hit resolution, in-flight dedup
// through futures, dropped-future claim abandonment, and the popped-chunk
// vs formed-batch occupancy split.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "corpus/generator.hpp"
#include "judge/judge.hpp"
#include "llm/coder_model.hpp"
#include "tests/test_util.hpp"

namespace llm4vv::judge {
namespace {

using frontend::Flavor;
using frontend::Language;

std::shared_ptr<llm::ModelClient> make_client(llm::BatcherConfig batcher = {},
                                              std::size_t concurrency = 2) {
  return std::make_shared<llm::ModelClient>(
      std::make_shared<const llm::SimulatedCoderModel>(), concurrency,
      /*transcript_capacity=*/0, batcher);
}

frontend::SourceFile sample_file(std::uint64_t seed) {
  return corpus::generate_one("saxpy_offload", Flavor::kOpenACC,
                              Language::kC, seed)
      .file;
}

void expect_same_decision(const JudgeDecision& a, const JudgeDecision& b) {
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.says_valid, b.says_valid);
  EXPECT_EQ(a.prompt, b.prompt);
  EXPECT_EQ(a.completion.text, b.completion.text);
  EXPECT_EQ(a.completion.prompt_tokens, b.completion.prompt_tokens);
  EXPECT_EQ(a.completion.completion_tokens, b.completion.completion_tokens);
}

// ---------------------------------------------------------------------------
// Byte-equivalence across batcher configurations (acceptance criterion)
// ---------------------------------------------------------------------------

TEST(JudgeAsyncTest, AsyncDecisionsByteIdenticalToSequentialForAnyNT) {
  // A request set with duplicates, judged as one chunk (evaluate_many →
  // judge_chunk → evaluate_async_many) under a sweep of (max_batch,
  // window) configs: every decision must be byte-identical to the
  // sequential blocking evaluate() reference.
  std::vector<frontend::SourceFile> files;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    files.push_back(sample_file(seed));
  }
  files.push_back(files[1]);  // duplicates
  files.push_back(files[3]);

  // Reference: sequential blocking evaluation, paper-mode client.
  const Llmj reference_judge(make_client(), llm::PromptStyle::kAgentDirect);
  const auto driver = testutil::clean_driver(Flavor::kOpenACC);
  const toolchain::Executor executor;
  std::vector<toolchain::CompileResult> compiles;
  std::vector<toolchain::ExecutionRecord> execs;
  std::vector<JudgeDecision> reference;
  for (const auto& file : files) {
    compiles.push_back(driver.compile(file));
    execs.push_back(executor.run(compiles.back().module));
  }
  for (std::size_t i = 0; i < files.size(); ++i) {
    reference.push_back(
        reference_judge.evaluate(files[i], &compiles[i], &execs[i], 9));
  }

  const llm::BatcherConfig configs[] = {
      {0, 0},        // paper mode: uncapped immediate flush
      {1, 0},        // strictly sequential passes
      {3, 0},        // capped immediate flush
      {4, 1500},     // adaptive: full or 1.5 ms window
      {100, 1000},   // window-only flushes
  };
  for (const auto& config : configs) {
    for (const bool cache_enabled : {true, false}) {
      JudgeCacheConfig cache;
      cache.enabled = cache_enabled;
      const Llmj judge(make_client(config, 4),
                       llm::PromptStyle::kAgentDirect, cache);
      std::vector<JudgeRequest> requests;
      for (std::size_t i = 0; i < files.size(); ++i) {
        requests.push_back(JudgeRequest{&files[i], &compiles[i], &execs[i]});
      }
      const auto decisions = judge.evaluate_many(requests, 9);
      ASSERT_EQ(decisions.size(), reference.size());
      for (std::size_t i = 0; i < decisions.size(); ++i) {
        SCOPED_TRACE("config N=" + std::to_string(config.max_batch) +
                     " T=" + std::to_string(config.window_us) +
                     " cache=" + std::to_string(cache_enabled) +
                     " item=" + std::to_string(i));
        expect_same_decision(decisions[i], reference[i]);
      }
    }
  }
}

TEST(JudgeAsyncTest, SingleAsyncMatchesBlockingEvaluate) {
  auto client = make_client();
  const Llmj judge(client, llm::PromptStyle::kDirectAnalysis);
  const Llmj blocking(make_client(), llm::PromptStyle::kDirectAnalysis);
  const auto file = sample_file(21);
  const auto future = judge.evaluate_async(JudgeRequest{&file}, 4);
  const auto async_decision = future.get();
  const auto blocking_decision = blocking.evaluate(file, nullptr, nullptr, 4);
  expect_same_decision(async_decision, blocking_decision);
  EXPECT_DOUBLE_EQ(async_decision.completion.latency_seconds,
                   blocking_decision.completion.latency_seconds);
}

TEST(JudgeAsyncTest, JudgeChunkFailsEveryItemOfAGroupWhoseSubmissionThrew) {
  // An agent-style request without its compile/exec records cannot build
  // a prompt, so the submission of its group throws: every item of that
  // group is reported failed (kind kOther, once), and the other group is
  // judged as usual.
  const Llmj judge(make_client(), llm::PromptStyle::kAgentDirect);
  const auto driver = testutil::clean_driver(Flavor::kOpenACC);
  const toolchain::Executor executor;
  const auto file = sample_file(50);
  const auto compiled = driver.compile(file);
  const auto ran = executor.run(compiled.module);
  const auto bare = sample_file(51);
  const std::vector<JudgeRequest> chunk = {JudgeRequest{&file, &compiled, &ran},
                                           JudgeRequest{&file, &compiled, &ran},
                                           JudgeRequest{&bare},
                                           JudgeRequest{&file, &compiled, &ran}};
  std::vector<int> outcome(chunk.size(), 0);  // 1 = decision, 2 = error
  judge.judge_chunk(chunk, 2, 0,
                    [&](std::size_t i, const JudgeDecision* decision,
                        const llm::ModelError* error) {
                      EXPECT_EQ(outcome[i], 0) << "item " << i;
                      outcome[i] = decision != nullptr ? 1 : 2;
                      if (error != nullptr) {
                        EXPECT_EQ(error->kind(), llm::FailureKind::kOther);
                      }
                    });
  EXPECT_EQ(outcome, (std::vector<int>{1, 1, 2, 2}));
}

// ---------------------------------------------------------------------------
// Resolution timing
// ---------------------------------------------------------------------------

TEST(JudgeAsyncTest, CacheHitResolvesAtSubmissionTime) {
  // max_batch 1 makes every miss its own immediate full flush even though
  // the window is enormous — so the cache can be populated; the hit future
  // must then be ready without any batcher involvement.
  llm::BatcherConfig batcher;
  batcher.max_batch = 1;
  batcher.window_us = 60ull * 1000 * 1000;
  auto client = make_client(batcher);
  const Llmj judge(client, llm::PromptStyle::kDirectAnalysis);
  const auto file = sample_file(22);
  const auto first = judge.evaluate(file);
  EXPECT_FALSE(first.cached);

  const std::uint64_t requests_before = client->stats().requests;
  const auto hit = judge.evaluate_async(JudgeRequest{&file});
  EXPECT_TRUE(hit.ready());  // resolved at submit: no flush needed
  const auto decision = hit.get();
  EXPECT_TRUE(decision.cached);
  expect_same_decision(decision, first);
  EXPECT_EQ(client->stats().requests, requests_before);  // no model call

  const auto stats = judge.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(JudgeAsyncTest, MissResolvesAtFlush) {
  llm::BatcherConfig batcher;
  batcher.max_batch = 2;
  batcher.window_us = 60ull * 1000 * 1000;
  auto client = make_client(batcher);
  const Llmj judge(client, llm::PromptStyle::kDirectAnalysis);
  const auto file_a = sample_file(23);
  const auto file_b = sample_file(24);
  const auto future_a = judge.evaluate_async(JudgeRequest{&file_a});
  EXPECT_FALSE(future_a.ready());  // pending in the batcher
  const auto future_b = judge.evaluate_async(JudgeRequest{&file_b});
  // The second submission filled the batch: both resolved by one pass.
  EXPECT_TRUE(future_a.ready());
  EXPECT_TRUE(future_b.ready());
  EXPECT_EQ(client->stats().formed_batches, 1u);
  const auto decision_a = future_a.get();
  const auto decision_b = future_b.get();
  EXPECT_FALSE(decision_a.cached);
  EXPECT_NE(decision_a.prompt, decision_b.prompt);
  // Both are now memoized: the flush-resolved decisions were published.
  EXPECT_TRUE(judge.evaluate(file_a).cached);
  EXPECT_TRUE(judge.evaluate(file_b).cached);
}

// ---------------------------------------------------------------------------
// Cancellation / dropped futures
// ---------------------------------------------------------------------------

TEST(JudgeAsyncTest, DroppedUnresolvedFutureAbandonsItsClaim) {
  llm::BatcherConfig batcher;
  batcher.max_batch = 100;
  batcher.window_us = 3000;
  auto client = make_client(batcher);
  const Llmj judge(client, llm::PromptStyle::kDirectAnalysis);
  const auto file = sample_file(25);
  {
    const auto dropped = judge.evaluate_async(JudgeRequest{&file});
    EXPECT_FALSE(dropped.ready());
  }  // dropped without get(): the claimed key must be abandoned
  // A subsequent blocking evaluation must not hang waiting on the dropped
  // future's claim — it re-claims and recomputes deterministically.
  const auto recomputed = judge.evaluate(file);
  EXPECT_EQ(recomputed.prompt.empty(), false);
  const auto again = judge.evaluate(file);
  expect_same_decision(again, recomputed);
}

TEST(JudgeAsyncTest, PeerWaitFutureResolvesWhenOwnerPublishes) {
  auto model = std::make_shared<const testutil::GatedModel>();
  auto client = std::make_shared<llm::ModelClient>(model, 4);
  const Llmj judge(client, llm::PromptStyle::kDirectAnalysis);
  const auto file = sample_file(27);

  // Owner: blocking evaluate from a worker thread, held at the gate.
  JudgeDecision owner_decision;
  std::thread owner([&] { owner_decision = judge.evaluate(file); });
  model->wait_for_entry();

  // Duplicate: async future must classify as a peer wait and resolve with
  // the owner's published decision once the gate opens.
  const auto dup = judge.evaluate_async(JudgeRequest{&file});
  EXPECT_TRUE(dup.waits_on_peer());
  EXPECT_FALSE(dup.ready());
  JudgeDecision dup_decision;
  std::thread waiter([&] { dup_decision = dup.get(); });
  model->release();
  owner.join();
  waiter.join();
  expect_same_decision(dup_decision, owner_decision);
  EXPECT_TRUE(dup_decision.cached);
  EXPECT_GE(judge.cache_stats().duplicate_misses, 1u);
}

TEST(JudgeAsyncTest, PeerWaitReadyTurnsTrueAtPublicationWithoutGet) {
  // Regression: ready() on a peer-wait future must become true once the
  // owning caller publishes — without anyone calling get() on it — so a
  // poll-until-ready loop terminates. It must also never block against a
  // concurrent resolution.
  auto model = std::make_shared<const testutil::GatedModel>();
  auto client = std::make_shared<llm::ModelClient>(model, 4);
  const Llmj judge(client, llm::PromptStyle::kDirectAnalysis);
  const auto file = sample_file(30);

  JudgeDecision owner_decision;
  std::thread owner([&] { owner_decision = judge.evaluate(file); });
  model->wait_for_entry();

  const auto dup = judge.evaluate_async(JudgeRequest{&file});
  EXPECT_TRUE(dup.waits_on_peer());
  EXPECT_FALSE(dup.ready());  // owner still at the gate, nothing published
  model->release();
  owner.join();  // owner published on its way out
  EXPECT_TRUE(dup.ready());  // observable without get()
  const auto decision = dup.get();
  expect_same_decision(decision, owner_decision);
}

// ---------------------------------------------------------------------------
// Occupancy: popped-chunk view vs formed-batch truth (satellite regression)
// ---------------------------------------------------------------------------

TEST(JudgeAsyncTest, FormedBatchesPinTruthfulOccupancyUnderACap) {
  // Old definition: occupancy derived from the submission group ("popped
  // chunk") — one evaluate_many of 8 misses reads as one batch of 8. New
  // definition: the client's formed passes — with max_batch 4 the same
  // call runs as two passes of 4. This test pins both numbers so the
  // definitions can never silently swap back.
  llm::BatcherConfig batcher;
  batcher.max_batch = 4;
  batcher.window_us = 0;
  auto client = make_client(batcher, 4);
  JudgeCacheConfig off;
  off.enabled = false;
  const Llmj judge(client, llm::PromptStyle::kAgentDirect, off);

  const auto driver = testutil::clean_driver(Flavor::kOpenACC);
  const toolchain::Executor executor;
  std::vector<frontend::SourceFile> files;
  std::vector<toolchain::CompileResult> compiles;
  std::vector<toolchain::ExecutionRecord> execs;
  for (std::uint64_t seed = 40; seed < 48; ++seed) {
    files.push_back(sample_file(seed));
    compiles.push_back(driver.compile(files.back()));
    execs.push_back(executor.run(compiles.back().module));
  }
  std::vector<JudgeRequest> requests;
  for (std::size_t i = 0; i < files.size(); ++i) {
    requests.push_back(JudgeRequest{&files[i], &compiles[i], &execs[i]});
  }
  const auto decisions = judge.evaluate_many(requests, 0);

  // Popped-chunk view: all 8 decisions were model calls submitted as one
  // group — the old numerator, one "batch of 8".
  ASSERT_EQ(decisions.size(), 8u);
  for (const auto& decision : decisions) EXPECT_FALSE(decision.cached);

  // Formed-batch truth: the cap split the group into two passes of 4.
  const auto stats = client->stats();
  EXPECT_EQ(stats.formed_batches, 2u);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.batched_prompts, 8u);
  EXPECT_EQ(stats.max_batch, 4u);  // never 8: no pass that large ran
  const double formed_occupancy =
      static_cast<double>(stats.batched_prompts) /
      static_cast<double>(stats.batches);
  EXPECT_DOUBLE_EQ(formed_occupancy, 4.0);
}

}  // namespace
}  // namespace llm4vv::judge
