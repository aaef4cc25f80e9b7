// Asynchronous submission API coverage: CompletionFuture resolution,
// adaptive-batcher flush policies (immediate / full / window), cross-caller
// coalescing, params isolation, telemetry counters, and deterministic
// shutdown with unresolved futures.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
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
                             200 + i)
            .file));
  }
  return prompts;
}

/// Wait for `future` by polling ready(): the thread never blocks in
/// wait()/get(), so it cannot run an idle flush, and a test that means the
/// window path keeps testing it.
void poll_until_ready(const CompletionFuture& future) {
  while (!future.ready()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

/// Spin until `count` threads are blocked waiting on `client`'s requests,
/// or until `watched` resolves (a flush the test did not expect: the
/// caller's next check then fails instead of spinning forever).
void await_blocked_waiters(const ModelClient& client, std::size_t count,
                           const CompletionFuture& watched) {
  while (client.blocked_waiters() < count && !watched.ready()) {
    std::this_thread::yield();
  }
}

// ---------------------------------------------------------------------------
// Equivalence with the blocking path
// ---------------------------------------------------------------------------

TEST(SubmitTest, SubmitGetMatchesCompleteByteForByte) {
  auto model = std::make_shared<const SimulatedCoderModel>();
  ModelClient async_client(model, 2);
  ModelClient blocking_client(model, 2);
  const auto prompts = sample_prompts(3);
  GenerationParams params;
  params.seed = 11;
  for (const auto& prompt : prompts) {
    const auto future = async_client.submit(prompt, params);
    const auto via_future = future.get();
    const auto via_blocking = blocking_client.complete(prompt, params);
    EXPECT_EQ(via_future.text, via_blocking.text);
    EXPECT_EQ(via_future.prompt_tokens, via_blocking.prompt_tokens);
    EXPECT_EQ(via_future.completion_tokens, via_blocking.completion_tokens);
    // Paper-mode pricing: a lone submission is its own flush of one,
    // priced exactly like the sequential call.
    EXPECT_DOUBLE_EQ(via_future.latency_seconds,
                     via_blocking.latency_seconds);
  }
}

TEST(SubmitTest, SubmitManyMatchesCompleteMany) {
  auto model = std::make_shared<const SimulatedCoderModel>();
  ModelClient async_client(model, 4);
  ModelClient blocking_client(model, 4);
  const auto prompts = sample_prompts(5);
  const auto futures = async_client.submit_many(prompts);
  const auto reference = blocking_client.complete_many(prompts);
  ASSERT_EQ(futures.size(), prompts.size());
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    const auto completion = futures[i].get();
    EXPECT_EQ(completion.text, reference[i].text) << i;
    EXPECT_DOUBLE_EQ(completion.latency_seconds,
                     reference[i].latency_seconds)
        << i;
    EXPECT_EQ(futures[i].flush_size(), prompts.size()) << i;
  }
}

TEST(SubmitTest, WindowZeroFlushesEverySubmissionImmediately) {
  ModelClient client(std::make_shared<const SimulatedCoderModel>(), 1);
  const auto prompts = sample_prompts(2);
  const auto a = client.submit(prompts[0]);
  EXPECT_TRUE(a.ready());  // flushed inside submit()
  const auto b = client.submit(prompts[1]);
  EXPECT_TRUE(b.ready());
  const auto stats = client.stats();
  EXPECT_EQ(stats.formed_batches, 2u);
  EXPECT_EQ(stats.flush_immediate, 2u);
  EXPECT_EQ(stats.flush_full, 0u);
  EXPECT_EQ(stats.flush_window, 0u);
  // Lone single submissions are plain requests, not batches.
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.occupancy_hist[ClientStats::occupancy_bucket(1)], 2u);
}

// ---------------------------------------------------------------------------
// Flush policies
// ---------------------------------------------------------------------------

TEST(AdaptiveBatcherTest, BatchFullFlushesBeforeWindowExpires) {
  BatcherConfig batcher;
  batcher.max_batch = 2;
  batcher.window_us = 60ull * 1000 * 1000;  // 60 s: window never fires here
  ModelClient client(std::make_shared<const SimulatedCoderModel>(), 2, 0,
                     batcher);
  const auto prompts = sample_prompts(2);

  const auto first = client.submit(prompts[0]);
  EXPECT_FALSE(first.ready());  // pending: 1 < max_batch, window far away
  EXPECT_EQ(client.pending_depth(), 1u);

  const auto second = client.submit(prompts[1]);  // fills the batch
  EXPECT_TRUE(first.ready());
  EXPECT_TRUE(second.ready());
  EXPECT_EQ(client.pending_depth(), 0u);

  const auto stats = client.stats();
  EXPECT_EQ(stats.formed_batches, 1u);
  EXPECT_EQ(stats.flush_full, 1u);
  EXPECT_EQ(stats.flush_window, 0u);
  // Two coalesced single submissions are a genuine batched pass.
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batched_prompts, 2u);
  EXPECT_EQ(stats.pending_high_water, 2u);
  EXPECT_EQ(stats.occupancy_hist[ClientStats::occupancy_bucket(2)], 1u);
  EXPECT_EQ(first.flush_size(), 2u);
}

TEST(AdaptiveBatcherTest, WindowFlushFiresWithoutFurtherArrivals) {
  BatcherConfig batcher;
  batcher.max_batch = 8;
  batcher.window_us = 2000;  // 2 ms
  ModelClient client(std::make_shared<const SimulatedCoderModel>(), 2, 0,
                     batcher);
  const auto prompts = sample_prompts(3);
  const auto futures = client.submit_many(prompts);
  // Nothing fills the batch; the flusher thread must resolve these at the
  // window deadline.
  for (const auto& future : futures) poll_until_ready(future);
  const auto stats = client.stats();
  EXPECT_EQ(stats.formed_batches, 1u);
  EXPECT_EQ(stats.flush_window, 1u);
  EXPECT_EQ(stats.flush_full, 0u);
  EXPECT_EQ(stats.batched_prompts, 3u);
  EXPECT_EQ(futures[0].flush_size(), 3u);
}

TEST(AdaptiveBatcherTest, CrossCallerSubmissionsCoalesceIntoOnePass) {
  BatcherConfig batcher;
  batcher.max_batch = 4;
  batcher.window_us = 60ull * 1000 * 1000;
  ModelClient client(std::make_shared<const SimulatedCoderModel>(), 4, 0,
                     batcher);
  const auto prompts = sample_prompts(4);
  // Two separate submit_many "callers": neither fills the batch alone; the
  // second tops it up and the combined flush serves both.
  const auto first =
      client.submit_many({prompts[0], prompts[1]});
  EXPECT_FALSE(first[0].ready());
  const auto second =
      client.submit_many({prompts[2], prompts[3]});
  for (const auto& future : first) EXPECT_EQ(future.get().text.empty(), false);
  for (const auto& future : second) (void)future.get();
  const auto stats = client.stats();
  EXPECT_EQ(stats.formed_batches, 1u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.max_batch, 4u);
  EXPECT_EQ(first[0].flush_size(), 4u);
  EXPECT_EQ(second[1].flush_size(), 4u);
}

TEST(AdaptiveBatcherTest, MaxBatchCapsOversizedSubmitMany) {
  BatcherConfig batcher;
  batcher.max_batch = 3;
  batcher.window_us = 0;
  ModelClient client(std::make_shared<const SimulatedCoderModel>(), 4, 0,
                     batcher);
  const auto prompts = sample_prompts(7);
  const auto completions = client.complete_many(prompts);
  ASSERT_EQ(completions.size(), 7u);
  const auto stats = client.stats();
  // 7 prompts with a 3-cap: passes of 3, 3, 1.
  EXPECT_EQ(stats.formed_batches, 3u);
  EXPECT_EQ(stats.max_batch, 3u);
  EXPECT_EQ(stats.requests, 7u);
  // Text must match the uncapped client prompt-for-prompt.
  ModelClient reference(std::make_shared<const SimulatedCoderModel>(), 4);
  const auto expected = reference.complete_many(prompts);
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    EXPECT_EQ(completions[i].text, expected[i].text) << i;
  }
}

TEST(AdaptiveBatcherTest, MixedParamsNeverShareAPass) {
  BatcherConfig batcher;
  batcher.max_batch = 8;
  batcher.window_us = 2000;
  ModelClient client(std::make_shared<const SimulatedCoderModel>(), 2, 0,
                     batcher);
  const auto prompts = sample_prompts(2);
  GenerationParams seed_a;
  seed_a.seed = 1;
  GenerationParams seed_b;
  seed_b.seed = 2;
  const auto fa = client.submit(prompts[0], seed_a);
  const auto fb = client.submit(prompts[1], seed_b);
  const auto ca = fa.get();
  const auto cb = fb.get();
  // A pass has one params set, so the two seeds must flush separately...
  EXPECT_EQ(client.stats().formed_batches, 2u);
  EXPECT_EQ(fa.flush_size(), 1u);
  EXPECT_EQ(fb.flush_size(), 1u);
  // ...and each completion must match its own seed's sequential result.
  ModelClient reference(std::make_shared<const SimulatedCoderModel>(), 2);
  EXPECT_EQ(ca.text, reference.complete(prompts[0], seed_a).text);
  EXPECT_EQ(cb.text, reference.complete(prompts[1], seed_b).text);
}

TEST(AdaptiveBatcherTest, MixedParamsDoNotFakeAFullFlush) {
  // Regression: the full trigger must count only the head equal-params
  // run — a lone stale request of other params must not be flushed early
  // (and mislabelled "full") just because requests it cannot share a pass
  // with piled up behind it.
  BatcherConfig batcher;
  batcher.max_batch = 4;
  batcher.window_us = 3000;
  ModelClient client(std::make_shared<const SimulatedCoderModel>(), 4, 0,
                     batcher);
  const auto prompts = sample_prompts(5);
  GenerationParams seed_a;
  seed_a.seed = 1;
  GenerationParams seed_b;
  seed_b.seed = 2;
  const auto head = client.submit(prompts[0], seed_a);
  const auto rest = client.submit_many(
      {prompts[1], prompts[2], prompts[3], prompts[4]}, seed_b);
  // Five pending, but no equal-params run of four at the head: nothing
  // may flush as "full"; both groups resolve via their windows.
  poll_until_ready(head);
  for (const auto& future : rest) poll_until_ready(future);
  const auto stats = client.stats();
  EXPECT_EQ(stats.flush_full, 0u);
  EXPECT_EQ(stats.flush_window, 2u);
  EXPECT_EQ(stats.formed_batches, 2u);
  EXPECT_EQ(head.flush_size(), 1u);
  EXPECT_EQ(rest[0].flush_size(), 4u);
}

// ---------------------------------------------------------------------------
// Idle flush: a batch nobody can add to flushes when its last submitter
// starts waiting. Every test holds a 60 s window, so a flush the test sees
// is never the window's.
// ---------------------------------------------------------------------------

BatcherConfig idle_test_batcher(std::size_t max_batch) {
  BatcherConfig batcher;
  batcher.max_batch = max_batch;
  batcher.window_us = 60ull * 1000 * 1000;
  return batcher;
}

TEST(IdleFlushTest, LoneSubmitterWaitingFlushesBothGroupsInOnePass) {
  ModelClient client(std::make_shared<const SimulatedCoderModel>(), 4, 0,
                     idle_test_batcher(8));
  const auto prompts = sample_prompts(5);
  const auto start = std::chrono::steady_clock::now();
  // Two back-to-back groups, as a judge worker submits its popped chunk:
  // neither fills the batch, and the second must not be split from the
  // first.
  const auto first = client.submit_many({prompts[0], prompts[1]});
  const auto second =
      client.submit_many({prompts[2], prompts[3], prompts[4]});
  EXPECT_FALSE(first[0].ready());
  EXPECT_EQ(client.pending_depth(), 5u);
  // This thread is the only submitter; once it blocks, nobody can add.
  (void)first[0].get();
  for (const auto& future : second) (void)future.get();
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(10));
  const auto stats = client.stats();
  EXPECT_EQ(stats.formed_batches, 1u);
  EXPECT_EQ(stats.flush_idle, 1u);
  EXPECT_EQ(stats.flush_window, 0u);
  EXPECT_EQ(stats.flush_full, 0u);
  EXPECT_EQ(first[0].flush_size(), 5u);
  EXPECT_EQ(second[2].flush_size(), 5u);
  EXPECT_EQ(client.blocked_waiters(), 0u);
}

TEST(IdleFlushTest, RecentSubmitterThatIsNotWaitingKeepsTheBatchOpen) {
  ModelClient client(std::make_shared<const SimulatedCoderModel>(), 4, 0,
                     idle_test_batcher(3));
  const auto prompts = sample_prompts(3);
  // Another thread submits and never waits: it could submit again.
  CompletionFuture absent;
  std::thread([&] { absent = client.submit(prompts[0]); }).join();
  CompletionFuture mine = client.submit(prompts[1]);
  std::thread observer([&] {
    await_blocked_waiters(client, 1, mine);
    // The waiter is blocked and the batch is still open...
    EXPECT_EQ(client.pending_depth(), 2u);
    EXPECT_FALSE(absent.ready());
    // ...until a third request fills it.
    (void)client.submit(prompts[2]);
  });
  (void)mine.get();
  observer.join();
  EXPECT_TRUE(absent.ready());
  const auto stats = client.stats();
  EXPECT_EQ(stats.flush_idle, 0u);
  EXPECT_EQ(stats.flush_full, 1u);
  EXPECT_EQ(mine.flush_size(), 3u);
}

TEST(IdleFlushTest, FrequentCrossThreadArrivalsKeepTheWindowBehaviour) {
  ModelClient client(std::make_shared<const SimulatedCoderModel>(), 4, 0,
                     idle_test_batcher(3));
  const auto prompts = sample_prompts(3);
  // Two threads take turns: each round, this thread submits one prompt
  // and the partner two, filling the batch, so every submission after the
  // first lands within a window of the other thread's.
  std::mutex turn_mutex;
  std::condition_variable turn_cv;
  int turn = 0;  // even: this thread's, odd: the partner's
  constexpr int kRounds = 12;
  std::thread partner([&] {
    for (int round = 0; round < kRounds; ++round) {
      std::unique_lock lock(turn_mutex);
      turn_cv.wait(lock, [&] { return turn == 2 * round + 1; });
      lock.unlock();
      (void)client.submit_many({prompts[1], prompts[2]});  // fills: kFull
      lock.lock();
      ++turn;
      turn_cv.notify_all();
    }
    // The last round leaves one partner request pending, then blocks.
    std::unique_lock lock(turn_mutex);
    turn_cv.wait(lock, [&] { return turn == 2 * kRounds + 1; });
    lock.unlock();
    const CompletionFuture last = client.submit(prompts[1]);
    (void)last.get();
  });
  for (int round = 0; round < kRounds; ++round) {
    (void)client.submit(prompts[0]);
    std::unique_lock lock(turn_mutex);
    ++turn;
    turn_cv.notify_all();
    turn_cv.wait(lock, [&] { return turn == 2 * round + 2; });
  }
  EXPECT_EQ(client.stats().flush_full, static_cast<std::uint64_t>(kRounds));
  const CompletionFuture mine = client.submit(prompts[0]);
  {
    std::lock_guard lock(turn_mutex);
    ++turn;
  }
  turn_cv.notify_all();
  std::thread observer([&] {
    await_blocked_waiters(client, 2, mine);
    // Both recent submitters are blocked, but arrivals from other threads
    // have been frequent: the batch stays open for them...
    EXPECT_EQ(client.pending_depth(), 2u);
    // ...and the next one fills it.
    (void)client.submit(prompts[2]);
  });
  (void)mine.get();
  partner.join();
  observer.join();
  const auto stats = client.stats();
  EXPECT_EQ(stats.flush_idle, 0u);
  EXPECT_EQ(stats.flush_window, 0u);
  EXPECT_EQ(stats.flush_full, static_cast<std::uint64_t>(kRounds + 1));
  EXPECT_EQ(mine.flush_size(), 3u);
}

// ---------------------------------------------------------------------------
// Shutdown & cancellation
// ---------------------------------------------------------------------------

TEST(AsyncShutdownTest, DestroyingClientFailsPendingFuturesDeterministically) {
  BatcherConfig batcher;
  batcher.max_batch = 100;
  batcher.window_us = 60ull * 1000 * 1000;  // nothing flushes on its own
  std::vector<CompletionFuture> futures;
  {
    ModelClient client(std::make_shared<const SimulatedCoderModel>(), 2, 0,
                       batcher);
    futures = client.submit_many(sample_prompts(3));
    EXPECT_FALSE(futures[0].ready());
  }  // destroyed with 3 pending
  for (const auto& future : futures) {
    EXPECT_TRUE(future.ready());  // failed counts as resolved
    EXPECT_THROW((void)future.get(), std::runtime_error);
  }
}

TEST(AsyncShutdownTest, ShutdownStressResolvesOrFailsEveryFuture) {
  // Many threads submit singles against a small full-trigger batch: some
  // flushes fire (futures carry completions), a remainder is still pending
  // when the client dies (futures carry the shutdown error). Every future
  // must end resolved — no waiter may hang, no future may stay limbo.
  BatcherConfig batcher;
  batcher.max_batch = 5;
  batcher.window_us = 60ull * 1000 * 1000;  // only full flushes fire
  auto model = std::make_shared<const SimulatedCoderModel>();
  const auto prompts = sample_prompts(4);
  std::vector<CompletionFuture> futures;
  std::mutex futures_mutex;
  {
    ModelClient client(model, 2, 0, batcher);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < 8; ++i) {
          auto future = client.submit(prompts[static_cast<std::size_t>(t)]);
          std::lock_guard lock(futures_mutex);
          futures.push_back(std::move(future));
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }  // 32 submitted; 32 % 5 == 2 still pending at destruction
  ASSERT_EQ(futures.size(), 32u);
  int served = 0;
  int failed = 0;
  for (const auto& future : futures) {
    EXPECT_TRUE(future.ready());
    try {
      (void)future.get();
      ++served;
    } catch (const std::runtime_error&) {
      ++failed;
    }
  }
  EXPECT_EQ(served + failed, 32);
  EXPECT_GT(served, 0);  // full flushes fired before shutdown
  EXPECT_GT(failed, 0);  // the tail was failed deterministically
}

TEST(AsyncShutdownTest, InFlightFlushDrainsBeforeDestruction) {
  // A flush already executing when the destructor runs must complete and
  // fulfill its futures; only never-flushed requests fail.
  auto model = std::make_shared<const testutil::GatedModel>();
  BatcherConfig batcher;
  batcher.max_batch = 2;
  batcher.window_us = 60ull * 1000 * 1000;
  auto client = std::make_unique<ModelClient>(model, 2, 0, batcher);
  const auto prompts = sample_prompts(2);

  // Fill the batch from a worker thread: the full-trigger flush runs on
  // that thread and blocks at the model's gate.
  std::vector<CompletionFuture> futures;
  std::mutex futures_mutex;
  std::thread submitter([&] {
    auto submitted = client->submit_many(prompts);
    std::lock_guard lock(futures_mutex);
    futures = std::move(submitted);
  });
  model->wait_for_entry();

  std::thread destroyer([&] { client.reset(); });
  // Give the destructor a moment to start waiting on the active flush,
  // then open the gate.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  model->release();
  submitter.join();
  destroyer.join();

  std::lock_guard lock(futures_mutex);
  ASSERT_EQ(futures.size(), 2u);
  for (const auto& future : futures) {
    EXPECT_TRUE(future.ready());
    EXPECT_NO_THROW((void)future.get());  // served, not failed
  }
}

TEST(AsyncShutdownTest, InlineFlushNotifyCannotOutliveClient) {
  // Regression pin (TSan) for the shutdown handshake: the inline flush
  // that drops active_flushes_ to zero must broadcast flush_done_ while
  // batch_mutex_ is still held. Broadcast-after-unlock let the destructor
  // wake on the decrement, observe zero, finish, and free the condition
  // variable while the flushing thread was still inside the broadcast —
  // a use-after-free visible under -fsanitize=thread. Hammer the window:
  // repeated rounds of an inline full-trigger flush racing destruction,
  // with the gate released only once the destructor is already running.
  const auto prompt = sample_prompts(1)[0];
  for (int round = 0; round < 32; ++round) {
    auto model = std::make_shared<const testutil::GatedModel>();
    BatcherConfig batcher;
    batcher.max_batch = 1;  // every submit flushes inline on the caller
    batcher.window_us = 60ull * 1000 * 1000;
    auto client = std::make_unique<ModelClient>(model, 1, 0, batcher);
    std::thread submitter([&] { (void)client->submit(prompt); });
    model->wait_for_entry();
    std::thread destroyer([&] { client.reset(); });
    model->release();
    submitter.join();
    destroyer.join();
  }
}

TEST(AsyncShutdownTest, FuturesOutliveTheClientWhileThreadsBlockInGet) {
  // The wait-side hook shares the batcher with the futures, so threads
  // blocked in get() when the client dies must come out cleanly: those on
  // a pass in flight get its completion, those on pending requests get
  // ClientShutdownError, a kBlock submitter parked on a full queue too —
  // and every get() after the client is gone answers the same.
  auto model = std::make_shared<const testutil::GatedModel>();
  BatcherConfig batcher;
  batcher.max_batch = 2;
  batcher.window_us = 60ull * 1000 * 1000;
  batcher.max_pending = 2;
  batcher.overflow = OverflowPolicy::kBlock;
  auto client = std::make_unique<ModelClient>(model, 2, 0, batcher);
  // Threads reach the client through this pointer, never the unique_ptr
  // cell the destroyer resets.
  ModelClient* const raw = client.get();
  const auto prompts = sample_prompts(4);

  // In flight: the lone submitter's get() runs an idle flush, which holds
  // at the model's gate.
  CompletionFuture in_flight;
  std::mutex in_flight_mutex;
  std::condition_variable in_flight_cv;
  std::thread flusher([&] {
    const CompletionFuture future = raw->submit(prompts[0]);
    {
      std::lock_guard lock(in_flight_mutex);
      in_flight = future;
    }
    in_flight_cv.notify_all();
    EXPECT_FALSE(future.get().text.empty());
  });
  model->wait_for_entry();
  {
    std::unique_lock lock(in_flight_mutex);
    in_flight_cv.wait(lock, [&] { return in_flight.valid(); });
  }
  std::thread on_in_flight([&] {
    EXPECT_FALSE(in_flight.get().text.empty());
  });

  // Pending: two requests of different params (no full pass), submitted
  // by this thread, which never waits, so no idle flush takes them.
  GenerationParams seed_b;
  seed_b.seed = 2;
  GenerationParams seed_c;
  seed_c.seed = 3;
  const CompletionFuture pending_b = raw->submit(prompts[1], seed_b);
  const CompletionFuture pending_c = raw->submit(prompts[2], seed_c);
  const auto expect_shutdown = [](const CompletionFuture& future) {
    EXPECT_THROW((void)future.get(), ClientShutdownError);
  };
  std::thread on_pending_b([&] { expect_shutdown(pending_b); });
  std::thread on_pending_c([&] { expect_shutdown(pending_c); });
  await_blocked_waiters(*raw, 4, pending_b);
  EXPECT_EQ(raw->pending_depth(), 2u);

  // kBlock: the queue is full, so this submitter parks (or, if it comes
  // late, finds the client shutting down) and its request fails.
  CompletionFuture parked;
  std::thread blocked_submitter([&] { parked = raw->submit(prompts[3]); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::thread destroyer([&] { client.reset(); });
  // The destructor cannot finish while the gated pass is in flight, so
  // the parked submitter returns before the client is gone.
  blocked_submitter.join();
  model->release();
  destroyer.join();
  for (std::thread* thread :
       {&flusher, &on_in_flight, &on_pending_b, &on_pending_c}) {
    thread->join();
  }

  // The client is gone; every future still answers.
  EXPECT_TRUE(in_flight.ready());
  EXPECT_FALSE(in_flight.get().text.empty());
  EXPECT_EQ(in_flight.flush_size(), 1u);
  for (const CompletionFuture& future :
       std::vector<CompletionFuture>{pending_b, pending_c, parked}) {
    EXPECT_TRUE(future.ready());
    expect_shutdown(future);
  }
}

TEST(AsyncShutdownTest, SubmitAfterShutdownBeginsFailsCleanly) {
  // Covered indirectly by the stress above; here the deterministic shape:
  // a client destroyed with nothing pending accepts no further traffic
  // (compile-time API sanity — the future from a dead client cannot be
  // produced, so this just pins that plain teardown is clean).
  BatcherConfig batcher;
  batcher.window_us = 1000;
  auto client = std::make_unique<ModelClient>(
      std::make_shared<const SimulatedCoderModel>(), 1, 0, batcher);
  const auto completion = client->complete(sample_prompts(1)[0]);
  EXPECT_FALSE(completion.text.empty());
  EXPECT_NO_THROW(client.reset());
}

namespace {
/// Always fails transiently; counts calls so the test can wait until the
/// flush is provably inside its retry loop.
class AlwaysTransientModel final : public LanguageModel {
 public:
  std::string name() const override { return "always-transient"; }
  Completion generate(const std::string& prompt,
                      const GenerationParams& params) const override {
    (void)prompt;
    (void)params;
    calls.fetch_add(1, std::memory_order_relaxed);
    throw TransientModelError("always failing");
  }
  mutable std::atomic<int> calls{0};
};
}  // namespace

TEST(AsyncShutdownTest, DestroyMidBackoffCancelsTheRetry) {
  // S1 regression: a flush parked in a retry backoff must not pin the
  // destructor for the rest of the backoff (here ~10 s per retry). The
  // dtor broadcasts shutdown, the backoff wait wakes, and the retry is
  // CANCELLED — its future fails with the distinct shutdown error, well
  // before the backoff could have elapsed.
  auto model = std::make_shared<AlwaysTransientModel>();
  RetryPolicy retry;
  retry.max_attempts = 10;
  retry.base_backoff_us = 10ull * 1000 * 1000;  // 10 s per backoff
  retry.max_backoff_us = 10ull * 1000 * 1000;

  auto client = std::make_unique<ModelClient>(model, 1, 0, BatcherConfig{},
                                              retry);
  // The submitter goes through a raw pointer captured before either thread
  // starts: the relaxed `calls` spin below carries no happens-before, so a
  // submitter-side read of the unique_ptr cell itself would race the
  // destroyer's reset() of that cell (TSan-caught). The ModelClient
  // object's own shutdown handshake is what this test exercises; the
  // pointer cell must stay single-owner.
  ModelClient* const raw_client = client.get();
  CompletionFuture future;
  std::mutex future_mutex;
  // window_us == 0: the submitter runs the flush inline, so once the model
  // has been called the submitter thread is heading into (or already
  // parked in) the first 10 s backoff.
  std::thread submitter([&] {
    auto submitted = raw_client->submit(sample_prompts(1)[0]);
    std::lock_guard lock(future_mutex);
    future = std::move(submitted);
  });
  while (model->calls.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  const auto start = std::chrono::steady_clock::now();
  std::thread destroyer([&] { client.reset(); });
  destroyer.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(5))
      << "destructor slept out a retry backoff instead of cancelling it";
  submitter.join();

  std::lock_guard lock(future_mutex);
  ASSERT_TRUE(future.valid());
  EXPECT_TRUE(future.ready());
  EXPECT_LT(model->calls.load(std::memory_order_relaxed), 10);
  try {
    (void)future.get();
    FAIL() << "expected ClientShutdownError";
  } catch (const ClientShutdownError& e) {
    EXPECT_EQ(e.kind(), FailureKind::kShutdown);
  }
}

// ---------------------------------------------------------------------------
// Occupancy histogram buckets: the seven fixed edges are a documented
// contract (client.hpp header comment, docs/ASYNC_API.md) — bench JSON and
// PipelineResult::judge_client.occupancy_hist reuse them, so moving an edge
// is a silent telemetry break. Pin every boundary.
// ---------------------------------------------------------------------------

TEST(OccupancyBucketTest, EdgesArePinned) {
  // bucket:    0    1    2      3      4       5        6
  // sizes:     1    2    3-4    5-8    9-16    17-32    33+
  EXPECT_EQ(ClientStats::occupancy_bucket(0), 0u);  // no real flush is 0
  EXPECT_EQ(ClientStats::occupancy_bucket(1), 0u);
  EXPECT_EQ(ClientStats::occupancy_bucket(2), 1u);
  EXPECT_EQ(ClientStats::occupancy_bucket(3), 2u);
  EXPECT_EQ(ClientStats::occupancy_bucket(4), 2u);
  EXPECT_EQ(ClientStats::occupancy_bucket(5), 3u);
  EXPECT_EQ(ClientStats::occupancy_bucket(8), 3u);
  EXPECT_EQ(ClientStats::occupancy_bucket(9), 4u);
  EXPECT_EQ(ClientStats::occupancy_bucket(16), 4u);
  EXPECT_EQ(ClientStats::occupancy_bucket(17), 5u);
  EXPECT_EQ(ClientStats::occupancy_bucket(32), 5u);
  EXPECT_EQ(ClientStats::occupancy_bucket(33), 6u);
  EXPECT_EQ(ClientStats::occupancy_bucket(1000), 6u);
}

TEST(OccupancyBucketTest, EveryBucketHasALabelAndLabelsMatchEdges) {
  EXPECT_STREQ(ClientStats::occupancy_bucket_label(0), "1");
  EXPECT_STREQ(ClientStats::occupancy_bucket_label(1), "2");
  EXPECT_STREQ(ClientStats::occupancy_bucket_label(2), "3-4");
  EXPECT_STREQ(ClientStats::occupancy_bucket_label(3), "5-8");
  EXPECT_STREQ(ClientStats::occupancy_bucket_label(4), "9-16");
  EXPECT_STREQ(ClientStats::occupancy_bucket_label(5), "17-32");
  EXPECT_STREQ(ClientStats::occupancy_bucket_label(6), "33+");
  EXPECT_STREQ(
      ClientStats::occupancy_bucket_label(ClientStats::kOccupancyBuckets),
      "?");
}

TEST(OccupancyBucketTest, FlushSizesLandInDocumentedBuckets) {
  // Three immediate single-prompt flushes + one batch of 6: buckets 0 and
  // 3 must carry exactly those counts.
  ModelClient client(std::make_shared<const SimulatedCoderModel>(),
                     /*max_concurrency=*/2);
  for (int i = 0; i < 3; ++i) {
    client.complete("single prompt " + std::to_string(i));
  }
  client.complete_many(sample_prompts(6));
  const ClientStats stats = client.stats();
  EXPECT_EQ(stats.occupancy_hist[0], 3u);
  EXPECT_EQ(stats.occupancy_hist[ClientStats::occupancy_bucket(6)], 1u);
  std::uint64_t total = 0;
  for (const auto count : stats.occupancy_hist) total += count;
  EXPECT_EQ(total, stats.formed_batches);
}

}  // namespace
}  // namespace llm4vv::llm
