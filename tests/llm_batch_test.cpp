// Batched-submission coverage: LanguageModel::generate_batch (default and
// SimulatedCoderModel's prefill-amortizing override), and
// ModelClient::submit_many (equivalence, stats, atomic slot acquisition,
// and the notify_all release regression).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "corpus/generator.hpp"
#include "judge/prompt.hpp"
#include "llm/client.hpp"
#include "llm/coder_model.hpp"
#include "tests/test_util.hpp"

namespace llm4vv::llm {
namespace {

using frontend::Flavor;
using frontend::Language;

std::vector<std::string> sample_prompts(std::size_t count) {
  std::vector<std::string> prompts;
  prompts.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    prompts.push_back(judge::direct_analysis_prompt(
        corpus::generate_one("saxpy_offload", Flavor::kOpenACC, Language::kC,
                             100 + i)
            .file));
  }
  return prompts;
}

// ---------------------------------------------------------------------------
// LanguageModel::generate_batch
// ---------------------------------------------------------------------------

/// Minimal model relying on the base-class generate_batch fallback.
class CountingModel final : public LanguageModel {
 public:
  std::string name() const override { return "counting-model"; }
  Completion generate(const std::string& prompt,
                      const GenerationParams& params) const override {
    calls.fetch_add(1);
    Completion completion;
    completion.text = "echo: " + prompt;
    completion.prompt_tokens = prompt.size();
    completion.completion_tokens = completion.text.size();
    completion.latency_seconds = 0.25;
    (void)params;
    return completion;
  }
  mutable std::atomic<int> calls{0};
};

TEST(GenerateBatchTest, DefaultImplementationLoopsOverGenerate) {
  const CountingModel model;
  const std::vector<std::string> prompts = {"a", "bb", "ccc"};
  const auto batch = model.generate_batch(prompts, {});
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(model.calls.load(), 3);
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    EXPECT_EQ(batch[i].text, "echo: " + prompts[i]);
    EXPECT_DOUBLE_EQ(batch[i].latency_seconds, 0.25);
  }
}

TEST(GenerateBatchTest, SimulatedBatchMatchesSequentialTextAndTokens) {
  const SimulatedCoderModel model;
  const auto prompts = sample_prompts(6);
  GenerationParams params;
  params.seed = 9;
  const auto batch = model.generate_batch(prompts, params);
  ASSERT_EQ(batch.size(), prompts.size());
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    const auto sequential = model.generate(prompts[i], params);
    EXPECT_EQ(batch[i].text, sequential.text) << i;
    EXPECT_EQ(batch[i].prompt_tokens, sequential.prompt_tokens) << i;
    EXPECT_EQ(batch[i].completion_tokens, sequential.completion_tokens) << i;
  }
}

TEST(GenerateBatchTest, BatchOfOneIsPricedExactlyLikeGenerate) {
  const SimulatedCoderModel model;
  const auto prompts = sample_prompts(1);
  const auto batch = model.generate_batch(prompts, {});
  const auto sequential = model.generate(prompts[0], {});
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].text, sequential.text);
  EXPECT_DOUBLE_EQ(batch[0].latency_seconds, sequential.latency_seconds);
}

TEST(GenerateBatchTest, BatchingAmortizesPrefillAndLockstepsDecode) {
  const SimulatedCoderModel model;
  const auto prompts = sample_prompts(8);
  const auto batch = model.generate_batch(prompts, {});
  double batched_sum = 0.0;
  double sequential_sum = 0.0;
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    batched_sum += batch[i].latency_seconds;
    sequential_sum += model.generate(prompts[i], {}).latency_seconds;
    EXPECT_GT(batch[i].latency_seconds, 0.0);
  }
  // The batched pass must be meaningfully cheaper than eight sequential
  // calls (decode dominates, and it runs the streams in lockstep).
  EXPECT_LT(batched_sum, sequential_sum * 0.5);
}

TEST(GenerateBatchTest, EmptyBatchYieldsEmptyResult) {
  const SimulatedCoderModel model;
  EXPECT_TRUE(model.generate_batch({}, {}).empty());
}

TEST(GenerateBatchTest, PrefillFractionOneRemovesPrefillAmortization) {
  CoderModelConfig amortized;
  CoderModelConfig flat;
  flat.batch_prefill_fraction = 1.0;
  const SimulatedCoderModel cheap(amortized);
  const SimulatedCoderModel full(flat);
  const auto prompts = sample_prompts(4);
  double cheap_sum = 0.0;
  double full_sum = 0.0;
  for (const auto& completion : cheap.generate_batch(prompts, {})) {
    cheap_sum += completion.latency_seconds;
  }
  for (const auto& completion : full.generate_batch(prompts, {})) {
    full_sum += completion.latency_seconds;
  }
  EXPECT_LT(cheap_sum, full_sum);
}

// ---------------------------------------------------------------------------
// ModelClient::submit_many
// ---------------------------------------------------------------------------

TEST(CompleteManyTest, MatchesSequentialCompletions) {
  auto model = std::make_shared<const SimulatedCoderModel>();
  ModelClient batched_client(model, 4);
  ModelClient sequential_client(model, 4);
  const auto prompts = sample_prompts(5);
  GenerationParams params;
  params.seed = 3;

  const auto batch =
      testutil::get_all(batched_client.submit_many(prompts, params));
  ASSERT_EQ(batch.size(), prompts.size());
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    const auto sequential = sequential_client.submit(prompts[i], params).get();
    EXPECT_EQ(batch[i].text, sequential.text) << i;
    EXPECT_EQ(batch[i].prompt_tokens, sequential.prompt_tokens) << i;
    EXPECT_EQ(batch[i].completion_tokens, sequential.completion_tokens) << i;
  }
}

TEST(CompleteManyTest, RecordsOneBatchAndPerPromptTokens) {
  auto model = std::make_shared<const SimulatedCoderModel>();
  ModelClient client(model, 4);
  const auto prompts = sample_prompts(5);
  const auto completions = testutil::get_all(client.submit_many(prompts));
  const auto stats = client.stats();
  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batched_prompts, 5u);
  EXPECT_EQ(stats.max_batch, 5u);
  std::uint64_t prompt_tokens = 0;
  double gpu = 0.0;
  for (const auto& completion : completions) {
    prompt_tokens += completion.prompt_tokens;
    gpu += completion.latency_seconds;
  }
  EXPECT_EQ(stats.prompt_tokens, prompt_tokens);
  EXPECT_DOUBLE_EQ(stats.gpu_seconds, gpu);
}

TEST(CompleteManyTest, SequentialCompleteLeavesBatchCountersAtZero) {
  auto model = std::make_shared<const SimulatedCoderModel>();
  ModelClient client(model, 2);
  client.submit(sample_prompts(1)[0]).get();
  const auto stats = client.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(stats.batched_prompts, 0u);
}

TEST(CompleteManyTest, EmptyBatchIsANoOp) {
  auto model = std::make_shared<const SimulatedCoderModel>();
  ModelClient client(model, 1);
  EXPECT_TRUE(testutil::get_all(client.submit_many({})).empty());
  EXPECT_EQ(client.stats().requests, 0u);
  EXPECT_EQ(client.stats().batches, 0u);
}

TEST(CompleteManyTest, BatchLargerThanConcurrencyCompletes) {
  auto model = std::make_shared<const SimulatedCoderModel>();
  ModelClient client(model, 2);  // slots clamp to 2, batch of 8 still runs
  const auto prompts = sample_prompts(8);
  const auto completions = testutil::get_all(client.submit_many(prompts));
  EXPECT_EQ(completions.size(), 8u);
  EXPECT_EQ(client.stats().requests, 8u);
  EXPECT_EQ(client.stats().max_batch, 8u);
}

TEST(CompleteManyTest, TranscriptsRecordEachBatchedPrompt) {
  auto model = std::make_shared<const SimulatedCoderModel>();
  ModelClient client(model, 2, /*transcript_capacity=*/8);
  const auto prompts = sample_prompts(3);
  testutil::get_all(client.submit_many(prompts));
  const auto transcripts = client.transcripts();
  ASSERT_EQ(transcripts.size(), 3u);
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    EXPECT_EQ(transcripts[i].prompt, prompts[i]);
  }
}

// ---------------------------------------------------------------------------
// FIFO slot fairness
// ---------------------------------------------------------------------------

/// A model that records the order generate() calls start in and can hold
/// them at a gate until the test releases it.
class OrderingModel final : public LanguageModel {
 public:
  std::string name() const override { return "ordering-model"; }
  Completion generate(const std::string& prompt,
                      const GenerationParams& params) const override {
    {
      std::unique_lock lock(mutex_);
      order_.push_back(prompt);
      started_cv_.notify_all();
      release_cv_.wait(lock, [this] { return released_; });
    }
    Completion completion;
    completion.text = "ok";
    completion.prompt_tokens = prompt.size();
    completion.completion_tokens = 2;
    completion.latency_seconds = 0.01;
    (void)params;
    return completion;
  }
  std::vector<Completion> generate_batch(
      const std::vector<std::string>& prompts,
      const GenerationParams& params) const override {
    {
      std::unique_lock lock(mutex_);
      for (const auto& prompt : prompts) order_.push_back(prompt);
      started_cv_.notify_all();
      release_cv_.wait(lock, [this] { return released_; });
    }
    std::vector<Completion> completions;
    for (const auto& prompt : prompts) {
      Completion completion;
      completion.text = "ok";
      completion.prompt_tokens = prompt.size();
      completion.completion_tokens = 2;
      completion.latency_seconds = 0.01;
      completions.push_back(completion);
    }
    (void)params;
    return completions;
  }
  void wait_for_started(std::size_t count) const {
    std::unique_lock lock(mutex_);
    started_cv_.wait(lock,
                     [this, count] { return order_.size() >= count; });
  }
  void release() const {
    {
      std::lock_guard lock(mutex_);
      released_ = true;
    }
    release_cv_.notify_all();
  }
  std::vector<std::string> order() const {
    std::lock_guard lock(mutex_);
    return order_;
  }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable started_cv_;
  mutable std::condition_variable release_cv_;
  mutable std::vector<std::string> order_;
  mutable bool released_ = false;
};

// The starvation regression the FIFO ticket fixes: a wide submit_many
// waiter must run before single-slot callers that arrived after it, no
// matter how many of them keep the pool churning. The gated model holds an
// early single call in flight; the wide batch queues behind it; a wave of
// later singles queues behind the batch. When the gate opens, the recorded
// start order must put both batch prompts before every late single —
// bounding the wide waiter's wait by the work already queued ahead of it.
TEST(SlotFairnessTest, WideWaiterIsNotStarvedBySingleSlotStream) {
  auto model = std::make_shared<const OrderingModel>();
  ModelClient client(model, 2);

  std::thread early([&client] { client.submit("early").get(); });
  model->wait_for_started(1);  // "early" holds one of the two slots

  std::thread wide([&client] {
    // Needs both slots.
    testutil::get_all(client.submit_many({"batch-a", "batch-b"}));
  });
  // The batch has taken its ticket once it is queued for slots.
  while (client.queue_depth() < 1) std::this_thread::yield();

  std::vector<std::thread> singles;
  for (int i = 0; i < 8; ++i) {
    singles.emplace_back(
        [&client, i] { client.submit("late-" + std::to_string(i)).get(); });
    while (client.queue_depth() < static_cast<std::size_t>(2 + i)) {
      std::this_thread::yield();
    }
  }

  model->release();
  early.join();
  wide.join();
  for (auto& thread : singles) thread.join();

  const auto order = model->order();
  ASSERT_EQ(order.size(), 11u);  // early + 2 batch + 8 singles
  std::size_t batch_last = 0;
  std::size_t single_first = order.size();
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] == "batch-a" || order[i] == "batch-b") {
      batch_last = std::max(batch_last, i);
    } else if (order[i] != "early") {
      single_first = std::min(single_first, i);
    }
  }
  EXPECT_LT(batch_last, single_first)
      << "a late single-slot caller overtook the queued batch";
}

// Regression for the slot-release wakeup bug: with notify_one a release
// could be consumed by a multi-slot submit_many waiter whose predicate
// was still false, leaving a runnable single-slot waiter asleep. Mixing
// batched and single callers over a small slot pool must always drain.
TEST(CompleteManyTest, MixedBatchAndSingleCallersAllComplete) {
  auto model = std::make_shared<const SimulatedCoderModel>();
  ModelClient client(model, 2);
  const auto prompts = sample_prompts(4);
  std::vector<std::thread> threads;
  std::atomic<int> completed{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&client, &prompts, &completed, t] {
      for (int i = 0; i < 6; ++i) {
        if ((t + i) % 2 == 0) {
          testutil::get_all(client.submit_many(prompts));
        } else {
          client.submit(prompts[0]).get();
        }
        completed.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(completed.load(), 24);
  // 12 batched calls x 4 prompts + 12 singles.
  EXPECT_EQ(client.stats().requests, 12u * 4u + 12u);
  EXPECT_EQ(client.stats().batches, 12u);
}

}  // namespace
}  // namespace llm4vv::llm
