// serve/ subsystem coverage: protocol round-trips, deterministic admission
// (token bucket, quotas), weighted fair scheduling, end-to-end verdicts
// over a real loopback socket, and the graceful-drain invariant — every
// accepted job gets exactly one terminal response and the tenant
// accounting balances to zero in-flight. Runs under the sanitizer ctest
// label (TSan leg), so thread counts stay modest.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/experiments.hpp"
#include "corpus/generator.hpp"
#include "judge/judge.hpp"
#include "llm/coder_model.hpp"
#include "obs/registry.hpp"
#include "pipeline/validation_pipeline.hpp"
#include "probing/prober.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "serve/tenancy.hpp"
#include "toolchain/compiler.hpp"
#include "toolchain/executor.hpp"
#include "tests/test_util.hpp"

namespace llm4vv::serve {
namespace {

frontend::SourceFile sample_file(std::uint64_t seed) {
  return corpus::generate_one("saxpy_offload", frontend::Flavor::kOpenACC,
                              frontend::Language::kC, seed)
      .file;
}

// ---------------------------------------------------------------------------
// Protocol

TEST(ServeProtocolTest, RequestRoundTrips) {
  const Request hello = parse_request(encode_hello("gold-7"));
  EXPECT_EQ(hello.op, RequestOp::kHello);
  EXPECT_EQ(hello.tenant, "gold-7");

  const auto file = sample_file(3);
  const Request submit = parse_request(encode_submit(42, file));
  ASSERT_EQ(submit.op, RequestOp::kSubmit);
  EXPECT_EQ(submit.id, 42u);
  EXPECT_EQ(submit.file.name, file.name);
  EXPECT_EQ(submit.file.language, file.language);
  EXPECT_EQ(submit.file.flavor, file.flavor);
  EXPECT_EQ(submit.file.content, file.content);

  EXPECT_EQ(parse_request(encode_ping()).op, RequestOp::kPing);
  EXPECT_EQ(parse_request(encode_stats_request()).op, RequestOp::kStats);
  EXPECT_EQ(parse_request(encode_shutdown()).op, RequestOp::kShutdown);
}

TEST(ServeProtocolTest, MalformedRequestsAreInvalidNotThrown) {
  EXPECT_EQ(parse_request("not json").op, RequestOp::kInvalid);
  EXPECT_EQ(parse_request("{}").op, RequestOp::kInvalid);
  EXPECT_EQ(parse_request(R"({"op":"warp"})").op, RequestOp::kInvalid);
  // hello with a tenant name that would be illegal as a metric segment
  EXPECT_EQ(parse_request(R"({"op":"hello","tenant":"a b"})").op,
            RequestOp::kInvalid);
  // submit id must be a non-negative integer
  EXPECT_EQ(parse_request(
                R"({"op":"submit","id":-1,"language":"c","flavor":"openacc"})")
                .op,
            RequestOp::kInvalid);
  EXPECT_EQ(parse_request(
                R"({"op":"submit","id":1.5,"language":"c","flavor":"openacc"})")
                .op,
            RequestOp::kInvalid);
  EXPECT_EQ(parse_request(
                R"({"op":"submit","id":1,"language":"rust","flavor":"openacc"})")
                .op,
            RequestOp::kInvalid);
  for (const auto& request :
       {parse_request("not json"), parse_request(R"({"op":"warp"})")}) {
    EXPECT_FALSE(request.error.empty());
  }
}

TEST(ServeProtocolTest, ResponseRoundTrips) {
  const Response verdict =
      parse_response(encode_verdict(7, "valid", true, true, true, false,
                                    12.5, 31000));
  EXPECT_EQ(verdict.type, ResponseType::kVerdict);
  EXPECT_TRUE(verdict.terminal());
  EXPECT_TRUE(verdict.has_id);
  EXPECT_EQ(verdict.id, 7u);
  EXPECT_EQ(verdict.verdict, "valid");
  EXPECT_TRUE(verdict.judge_valid);
  EXPECT_TRUE(verdict.compiled);
  EXPECT_TRUE(verdict.executed);
  EXPECT_FALSE(verdict.cached);
  EXPECT_DOUBLE_EQ(verdict.gpu_seconds, 12.5);
  EXPECT_EQ(verdict.latency_us, 31000u);

  const Response shed = parse_response(encode_shed(9, "rate_limit"));
  EXPECT_EQ(shed.type, ResponseType::kShed);
  EXPECT_TRUE(shed.terminal());
  EXPECT_EQ(shed.id, 9u);
  EXPECT_EQ(shed.reason, "rate_limit");

  const Response error = parse_response(encode_error(4, "boom", 17));
  EXPECT_EQ(error.type, ResponseType::kError);
  EXPECT_TRUE(error.terminal());
  EXPECT_TRUE(error.has_id);
  EXPECT_EQ(error.id, 4u);

  // A line-level protocol error carries NO id: it must never be mistaken
  // for some job's terminal response.
  const Response protocol_error =
      parse_response(encode_protocol_error("bad line"));
  EXPECT_EQ(protocol_error.type, ResponseType::kError);
  EXPECT_FALSE(protocol_error.has_id);

  EXPECT_EQ(parse_response(encode_hello_ok("t")).type,
            ResponseType::kHelloOk);
  EXPECT_EQ(parse_response(encode_pong()).type, ResponseType::kPong);
  EXPECT_EQ(parse_response(encode_draining()).type, ResponseType::kDraining);
  EXPECT_EQ(parse_response(encode_bye()).type, ResponseType::kBye);
  for (const auto& response :
       {parse_response(encode_pong()), parse_response(encode_draining())}) {
    EXPECT_FALSE(response.terminal());
  }
  EXPECT_EQ(parse_response("garbage").type, ResponseType::kInvalid);
}

TEST(ServeProtocolTest, TenantNameValidation) {
  EXPECT_TRUE(valid_tenant_name("team-a.prod_7"));
  EXPECT_FALSE(valid_tenant_name(""));
  EXPECT_FALSE(valid_tenant_name("has space"));
  EXPECT_FALSE(valid_tenant_name("quote\"d"));
  EXPECT_FALSE(valid_tenant_name(std::string(65, 'x')));
}

// ---------------------------------------------------------------------------
// Admission (token bucket + tenant table)

TEST(ServeTenancyTest, TokenBucketIsDeterministicUnderExplicitClock) {
  TokenBucket bucket(/*rate_per_sec=*/2.0, /*burst=*/2.0);
  // Starts full: two immediate takes, then empty.
  EXPECT_TRUE(bucket.try_take(1'000'000));
  EXPECT_TRUE(bucket.try_take(1'000'000));
  EXPECT_FALSE(bucket.try_take(1'000'000));
  // 0.25 s at 2/s refills half a token: still denied.
  EXPECT_FALSE(bucket.try_take(1'250'000));
  // Another 0.25 s completes the token.
  EXPECT_TRUE(bucket.try_take(1'500'000));
  EXPECT_FALSE(bucket.try_take(1'500'000));
  // Refill is capped at burst: a long gap buys 2 tokens, not 20.
  EXPECT_TRUE(bucket.try_take(11'500'000));
  EXPECT_TRUE(bucket.try_take(11'500'000));
  EXPECT_FALSE(bucket.try_take(11'500'000));
}

TEST(ServeTenancyTest, ZeroRateNeverLimits) {
  TokenBucket bucket(0.0, 1.0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.try_take(0));
}

TEST(ServeTenancyTest, QuotaShedsBeforeTokenSpend) {
  TenantConfig config;
  config.rate_per_sec = 1000.0;
  config.burst = 2.0;
  config.max_in_flight = 1;
  TenantTable table(config);
  EXPECT_EQ(table.try_admit("t", 0), Admission::kAdmit);
  // Quota (1 in flight) refuses before the bucket is consulted, so the
  // remaining token survives the refusal...
  EXPECT_EQ(table.try_admit("t", 0), Admission::kShedQuota);
  table.complete("t", true, 50);
  // ...and is still available once the quota slot frees up.
  EXPECT_EQ(table.try_admit("t", 0), Admission::kAdmit);
  const TenantStats stats = table.stats("t");
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.shed_quota, 1u);
  EXPECT_EQ(stats.in_flight, 1u);
}

TEST(ServeTenancyTest, AccountingInvariantsHoldThroughEveryTransition) {
  TenantTable table{TenantConfig{}};
  EXPECT_EQ(table.try_admit("t", 0), Admission::kAdmit);
  EXPECT_EQ(table.try_admit("t", 0), Admission::kAdmit);
  EXPECT_EQ(table.try_admit("t", 0), Admission::kAdmit);
  table.record_shed_draining("t");
  // One admitted job failed to schedule: accepted rolls back to shed.
  table.record_post_admit_shed("t", ShedReason::kQueueFull);
  table.complete("t", true, 150);
  table.complete("t", false, 2'000'000);
  const TenantStats stats = table.stats("t");
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.submitted, stats.accepted + stats.shed_total());
  EXPECT_EQ(stats.accepted,
            stats.completed_ok + stats.completed_error + stats.in_flight);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.shed_queue, 1u);
  EXPECT_EQ(stats.shed_draining, 1u);
  EXPECT_EQ(stats.completed_ok, 1u);
  EXPECT_EQ(stats.completed_error, 1u);
  EXPECT_EQ(stats.in_flight, 0u);
  // Latency histogram: 150 µs lands below 1 ms, 2 s in the overflow.
  EXPECT_EQ(stats.latency_hist[1], 1u);
  EXPECT_EQ(stats.latency_hist[TenantStats::kLatencyBuckets - 1], 1u);
}

// ---------------------------------------------------------------------------
// Weighted fair scheduler

ServeJob job_for(const std::string& tenant, std::uint64_t seq) {
  ServeJob job;
  job.seq = seq;
  job.request_id = seq;
  job.tenant = tenant;
  return job;
}

TEST(ServeSchedulerTest, WeightedRoundRobinHonorsWeights) {
  FairScheduler scheduler(64);
  for (std::uint64_t i = 0; i < 12; ++i) {
    ASSERT_EQ(scheduler.push(job_for("heavy", i), 3), FairScheduler::Push::kOk);
  }
  for (std::uint64_t i = 0; i < 12; ++i) {
    ASSERT_EQ(scheduler.push(job_for("light", 100 + i), 1),
              FairScheduler::Push::kOk);
  }
  // Each full batch of 4 should split 3:1 while both tenants have backlog.
  for (int batch = 0; batch < 3; ++batch) {
    std::vector<ServeJob> out;
    ASSERT_EQ(scheduler.pop_up_to(4, out), 4u);
    std::map<std::string, int> by_tenant;
    for (const auto& job : out) by_tenant[job.tenant]++;
    EXPECT_EQ(by_tenant["heavy"], 3) << "batch " << batch;
    EXPECT_EQ(by_tenant["light"], 1) << "batch " << batch;
  }
  // The light tenant is never starved: its queue drains once heavy's does.
  std::vector<ServeJob> rest;
  while (scheduler.depth() > 0) scheduler.pop_up_to(4, rest);
  std::map<std::string, int> totals;
  for (const auto& job : rest) totals[job.tenant]++;
  EXPECT_EQ(totals["heavy"], 3);
  EXPECT_EQ(totals["light"], 9);
  EXPECT_EQ(scheduler.scheduled(), 24u);
}

TEST(ServeSchedulerTest, BoundShedsAndCloseDrains) {
  FairScheduler scheduler(2);
  EXPECT_EQ(scheduler.push(job_for("t", 1), 1), FairScheduler::Push::kOk);
  EXPECT_EQ(scheduler.push(job_for("t", 2), 1), FairScheduler::Push::kOk);
  EXPECT_EQ(scheduler.push(job_for("t", 3), 1), FairScheduler::Push::kFull);
  scheduler.close();
  EXPECT_EQ(scheduler.push(job_for("t", 4), 1), FairScheduler::Push::kClosed);
  std::vector<ServeJob> out;
  EXPECT_EQ(scheduler.pop_up_to(8, out), 2u);  // backlog drains after close
  EXPECT_EQ(scheduler.pop_up_to(8, out), 0u);  // then end-of-stream
}

TEST(ServeSchedulerTest, CloseWakesBlockedConsumer) {
  FairScheduler scheduler(4);
  std::thread consumer([&] {
    std::vector<ServeJob> out;
    EXPECT_EQ(scheduler.pop_up_to(4, out), 0u);
  });
  scheduler.close();
  consumer.join();
}

// ---------------------------------------------------------------------------
// End-to-end over loopback

struct ServerHarness {
  std::shared_ptr<obs::Registry> registry = std::make_shared<obs::Registry>();
  std::shared_ptr<const judge::Llmj> judge;
  std::unique_ptr<Server> server;

  /// `client` defaults to a simulated one with `batcher`.
  explicit ServerHarness(ServerConfig config = {},
                         judge::JudgeCacheConfig cache = {},
                         llm::BatcherConfig batcher = {},
                         std::shared_ptr<llm::ModelClient> client = nullptr) {
    if (client == nullptr) client = core::make_simulated_client(2, batcher);
    judge = std::make_shared<const judge::Llmj>(
        client, llm::PromptStyle::kAgentDirect, cache);
    config.registry = registry;
    server = std::make_unique<Server>(
        toolchain::CompilerDriver(toolchain::nvc_persona()),
        toolchain::Executor(), judge, config);
    server->start();
  }
};

TEST(ServeServerTest, VerdictsMatchTheDirectJudge) {
  ServerConfig config;
  config.workers = 2;
  config.job_batch = 2;
  ServerHarness harness(config);

  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", harness.server->port(), "t"))
      << client.last_error();
  // An identically configured judge evaluated directly must agree with
  // every verdict the server streams back (same simulated model, same
  // deterministic sampling seed 0).
  auto direct_client = core::make_simulated_client(2);
  const judge::Llmj direct(direct_client, llm::PromptStyle::kAgentDirect);
  const toolchain::CompilerDriver compiler(toolchain::nvc_persona());
  const toolchain::Executor executor;

  for (std::uint64_t id = 1; id <= 4; ++id) {
    const auto file = sample_file(id);
    const auto response = client.submit_and_wait(id, file);
    ASSERT_TRUE(response.has_value()) << client.last_error();
    ASSERT_EQ(response->type, ResponseType::kVerdict);
    const auto compiled = compiler.compile(file);
    const auto ran = executor.run(compiled.module);
    const auto decision = direct.evaluate(file, &compiled, &ran);
    EXPECT_EQ(response->verdict, judge::verdict_name(decision.verdict));
    EXPECT_EQ(response->judge_valid, decision.says_valid);
    EXPECT_EQ(response->compiled, compiled.success);
    EXPECT_EQ(response->executed, ran.passed());
  }
  const TenantStats stats = harness.server->tenants().stats("t");
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.completed_ok, 4u);
  EXPECT_EQ(stats.in_flight, 0u);
}

TEST(ServeServerTest, PingStatsAndProtocolErrors) {
  ServerHarness harness;
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", harness.server->port(), "t"));
  ASSERT_TRUE(client.send_ping());
  auto response = client.next_response(5000);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->type, ResponseType::kPong);

  ASSERT_TRUE(client.send_stats());
  response = client.next_response(5000);
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->type, ResponseType::kStats);
  ASSERT_TRUE(response->fields.count("draining"));
  EXPECT_FALSE(response->fields.at("draining").boolean);

  // A garbage line gets an id-less error frame, and the connection lives.
  ASSERT_TRUE(client.send_submit(1, sample_file(1)));  // keep the order: job…
  response = client.next_response(30000);
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->terminal());
  const ServerStats before = harness.server->stats();
  EXPECT_EQ(before.protocol_errors, 0u);
}

TEST(ServeServerTest, RateLimitShedsDeterministically) {
  ServerConfig config;
  TenantConfig limited;
  limited.rate_per_sec = 1e-6;  // refills nothing on a test timescale
  limited.burst = 2.0;
  config.tenants.emplace_back("limited", limited);
  ServerHarness harness(config);

  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", harness.server->port(), "limited"));
  // Burst of 5: exactly 2 fit the bucket, 3 shed as rate_limit.
  for (std::uint64_t id = 1; id <= 5; ++id) {
    ASSERT_TRUE(client.send_submit(id, sample_file(id)));
  }
  std::size_t verdicts = 0;
  std::size_t rate_sheds = 0;
  for (int i = 0; i < 5; ++i) {
    const auto response = client.next_response(30000);
    ASSERT_TRUE(response.has_value()) << client.last_error();
    ASSERT_TRUE(response->terminal());
    if (response->type == ResponseType::kVerdict) {
      ++verdicts;
    } else if (response->type == ResponseType::kShed) {
      EXPECT_EQ(response->reason, "rate_limit");
      ++rate_sheds;
    }
  }
  EXPECT_EQ(verdicts, 2u);
  EXPECT_EQ(rate_sheds, 3u);
  const TenantStats stats = harness.server->tenants().stats("limited");
  EXPECT_EQ(stats.shed_rate, 3u);
  EXPECT_EQ(stats.accepted, 2u);
}

TEST(ServeServerTest, GracefulDrainLosesNoAcceptedJob) {
  // The satellite invariant (docs/SERVING.md): submit a stream, yank the
  // server mid-flight, and every submitted id must come back with exactly
  // one terminal response — verdict for the accepted jobs, shed
  // "draining" for the late ones — with the accounting balanced.
  ServerConfig config;
  config.workers = 1;
  config.job_batch = 2;
  ServerHarness harness(config);

  constexpr std::uint64_t kJobs = 12;
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", harness.server->port(), "t"));
  for (std::uint64_t id = 1; id <= kJobs; ++id) {
    ASSERT_TRUE(client.send_submit(id, sample_file(id)));
  }
  harness.server->request_drain();

  std::map<std::uint64_t, int> terminals;
  bool saw_bye = false;
  for (;;) {
    const auto response = client.next_response(30000);
    if (!response.has_value()) break;  // EOF after the drain completes
    if (response->type == ResponseType::kBye) saw_bye = true;
    if (response->terminal()) {
      ASSERT_TRUE(response->has_id);
      terminals[response->id] += 1;
      if (response->type == ResponseType::kShed) {
        EXPECT_EQ(response->reason, "draining");
      }
    }
  }
  harness.server->wait();
  EXPECT_TRUE(saw_bye);

  EXPECT_EQ(terminals.size(), kJobs);
  for (std::uint64_t id = 1; id <= kJobs; ++id) {
    EXPECT_EQ(terminals[id], 1) << "job " << id;
  }
  const TenantStats totals = harness.server->tenants().totals();
  EXPECT_EQ(totals.submitted, kJobs);
  EXPECT_EQ(totals.submitted, totals.accepted + totals.shed_total());
  EXPECT_EQ(totals.accepted, totals.completed_ok + totals.completed_error);
  EXPECT_EQ(totals.in_flight, 0u);
  const ServerStats stats = harness.server->stats();
  EXPECT_EQ(stats.orphaned_responses, 0u);
}

TEST(ServeServerTest, IdleServerAnswersALoneJobLongBeforeTheWindow) {
  // The judge's batcher may hold a pass for 60 s, but a lone job's worker
  // is the only submitter, and once it blocks on the verdict nobody can
  // add to the batch: the idle flush answers the job at once.
  llm::BatcherConfig batcher;
  batcher.max_batch = 8;
  batcher.window_us = 60ull * 1000 * 1000;
  ServerConfig config;
  config.workers = 2;
  ServerHarness harness(config, {}, batcher);

  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", harness.server->port(), "t"))
      << client.last_error();
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(client.send_submit(1, sample_file(1)));
  std::map<std::uint64_t, int> terminals;
  auto response = client.next_response(30000);
  ASSERT_TRUE(response.has_value()) << client.last_error();
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(10));
  ASSERT_EQ(response->type, ResponseType::kVerdict);
  ASSERT_TRUE(response->has_id);
  terminals[response->id] += 1;

  // Drain, and count every terminal response left on the wire.
  harness.server->request_drain();
  for (;;) {
    response = client.next_response(30000);
    if (!response.has_value()) break;  // EOF after the drain completes
    if (response->terminal()) terminals[response->id] += 1;
  }
  harness.server->wait();
  ASSERT_EQ(terminals.size(), 1u);
  EXPECT_EQ(terminals[1], 1);
  const TenantStats totals = harness.server->tenants().totals();
  EXPECT_EQ(totals.submitted, 1u);
  EXPECT_EQ(totals.submitted, totals.accepted + totals.shed_total());
  EXPECT_EQ(totals.accepted, totals.completed_ok + totals.completed_error);
  EXPECT_EQ(totals.completed_ok, 1u);
  EXPECT_EQ(totals.in_flight, 0u);
  EXPECT_EQ(harness.server->stats().orphaned_responses, 0u);
}

TEST(ServeServerTest, JudgeErrorsAnswerEachJobWithOneErrorFrame) {
  // Every forward pass fails permanently and the client makes one attempt,
  // so each accepted job must end in exactly one error frame that names
  // the failure kind, and the tenant's accounting must still balance.
  llm::FaultPlanConfig plan;
  plan.permanent_rate = 1.0;
  llm::CoderModelConfig model_config;
  model_config.faults = std::make_shared<llm::FaultPlan>(plan);
  llm::RetryPolicy one_attempt;
  one_attempt.max_attempts = 1;
  auto failing = std::make_shared<llm::ModelClient>(
      std::make_shared<const llm::SimulatedCoderModel>(model_config), 2,
      /*transcript_capacity=*/0, llm::BatcherConfig{}, one_attempt);
  ServerConfig config;
  config.workers = 2;
  config.job_batch = 4;
  ServerHarness harness(config, {}, {}, failing);

  constexpr std::uint64_t kJobs = 6;
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", harness.server->port(), "t"))
      << client.last_error();
  for (std::uint64_t id = 1; id <= kJobs; ++id) {
    ASSERT_TRUE(client.send_submit(id, sample_file(id)));
  }
  std::map<std::uint64_t, int> errors;
  for (std::uint64_t n = 0; n < kJobs; ++n) {
    const auto response = client.next_response(30000);
    ASSERT_TRUE(response.has_value()) << client.last_error();
    ASSERT_EQ(response->type, ResponseType::kError);
    ASSERT_TRUE(response->has_id);
    EXPECT_EQ(response->reason.rfind("permanent:", 0), 0u) << response->reason;
    errors[response->id] += 1;
  }
  harness.server->request_drain();
  bool saw_bye = false;
  for (;;) {
    const auto response = client.next_response(30000);
    if (!response.has_value()) break;  // EOF after the drain completes
    if (response->type == ResponseType::kBye) saw_bye = true;
    EXPECT_FALSE(response->terminal()) << "second answer for " << response->id;
  }
  harness.server->wait();
  EXPECT_TRUE(saw_bye);
  ASSERT_EQ(errors.size(), kJobs);
  for (std::uint64_t id = 1; id <= kJobs; ++id) {
    EXPECT_EQ(errors[id], 1) << "job " << id;
  }
  const TenantStats stats = harness.server->tenants().stats("t");
  EXPECT_EQ(stats.accepted, kJobs);
  EXPECT_EQ(stats.completed_error, kJobs);
  EXPECT_EQ(stats.completed_ok, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
}

// A peer that half-closes its write side after submitting still gets every
// answer: the server keeps the connection open past the EOF until each
// accepted job's terminal frame is written, then closes it.
TEST(ServeServerTest, HalfClosedPeerGetsEveryAnswerBeforeEof) {
  ServerConfig config;
  config.workers = 2;
  config.job_batch = 4;
  ServerHarness harness(config);

  constexpr std::uint64_t kJobs = 16;
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", harness.server->port(), "t"))
      << client.last_error();
  for (std::uint64_t id = 1; id <= kJobs; ++id) {
    ASSERT_TRUE(client.send_submit(id, sample_file(id)));
  }
  ASSERT_TRUE(client.shutdown_write()) << client.last_error();

  std::map<std::uint64_t, int> answers;
  std::uint64_t terminal = 0;
  for (;;) {
    const auto response = client.next_response(30000);
    if (!response.has_value()) break;
    if (!response->terminal()) continue;
    ++terminal;
    EXPECT_EQ(response->type, ResponseType::kVerdict) << response->reason;
    answers[response->id] += 1;
  }
  EXPECT_EQ(client.last_error(), "eof");
  EXPECT_EQ(terminal, kJobs);
  ASSERT_EQ(answers.size(), kJobs);
  for (std::uint64_t id = 1; id <= kJobs; ++id) {
    EXPECT_EQ(answers[id], 1) << "job " << id;
  }
  const TenantStats stats = harness.server->tenants().stats("t");
  EXPECT_EQ(stats.completed_ok, kJobs);
  EXPECT_EQ(stats.in_flight, 0u);
}

TEST(ServeServerTest, ShutdownOpDrainsFromTheWire) {
  ServerHarness harness;
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", harness.server->port(), "t"));
  ASSERT_TRUE(client.send_shutdown());
  bool saw_bye = false;
  for (;;) {
    const auto response = client.next_response(30000);
    if (!response.has_value()) break;
    if (response->type == ResponseType::kBye) saw_bye = true;
  }
  harness.server->wait();
  EXPECT_TRUE(saw_bye);
  EXPECT_TRUE(harness.server->draining());
}

TEST(ServeServerTest, RegistryProbesAppearAndUnregisterWithTheServer) {
  auto registry = std::make_shared<obs::Registry>();
  {
    ServerConfig config;
    config.registry = registry;
    auto client = core::make_simulated_client(2);
    auto judge = std::make_shared<const judge::Llmj>(
        client, llm::PromptStyle::kAgentDirect);
    Server server(toolchain::CompilerDriver(toolchain::nvc_persona()),
                  toolchain::Executor(), judge, config);
    server.start();
    Client wire;
    ASSERT_TRUE(wire.connect("127.0.0.1", server.port(), "probe-tenant"));
    const auto response = wire.submit_and_wait(1, sample_file(1));
    ASSERT_TRUE(response.has_value());

    const auto snapshot = registry->snapshot();
    const auto* submitted = obs::find_sample(snapshot, "serve.submitted");
    ASSERT_NE(submitted, nullptr);
    EXPECT_DOUBLE_EQ(submitted->value, 1.0);
    EXPECT_NE(obs::find_sample(snapshot, "serve.sched.depth"), nullptr);
    EXPECT_NE(obs::find_sample(snapshot, "serve.connections_accepted"),
              nullptr);
    EXPECT_NE(obs::find_sample(snapshot,
                               "serve.tenant.probe-tenant.completed_ok"),
              nullptr);
    EXPECT_NE(obs::find_sample(snapshot, "serve.tenant.probe-tenant.latency_us",
                               "lt_1s"),
              nullptr);
  }  // ~Server drains and unregisters everything under "serve."
  for (const auto& sample : registry->snapshot()) {
    EXPECT_NE(sample.name.rfind("serve.", 0), 0u)
        << "leaked probe: " << sample.name;
  }
}

// ---------------------------------------------------------------------------
// Differential: serving against the sequential paper-mode oracle

TEST(ServeDifferentialTest, EveryJobMatchesTheSequentialPipelineOracle) {
  // Every Part Two probing class plus byte-identical repeats, served over
  // loopback in two (workers, job_batch, window_us) shapes with the judge
  // memo off and on. Batching, windows and the memo are optimizations, so
  // each job must get the outcome of its sequential paper-mode record: 1
  // worker per stage, judge batch 1, window 0, caches off.
  probing::ProbingConfig probe;
  probe.issue_counts = {4, 4, 4, 4, 4, 6};
  probe.seed = 31;
  const auto probed = probing::probe_suite(
      corpus::generate_suite(
          testutil::corpus_config(frontend::Flavor::kOpenACC, 64, 707)),
      probe);
  std::vector<frontend::SourceFile> files;
  for (std::size_t i = 0; i < probed.files.size(); ++i) {
    files.push_back(probed.files[i].file);
    if (i % 4 == 3) files.push_back(probed.files[i - 3].file);  // a repeat
  }

  judge::JudgeCacheConfig memo_off;
  memo_off.enabled = false;
  pipeline::PipelineConfig paper;
  paper.mode = pipeline::PipelineMode::kRecordAll;
  paper.judge_batch_size = 1;
  const pipeline::ValidationPipeline oracle(
      toolchain::CompilerDriver(toolchain::nvc_persona()),
      toolchain::Executor(),
      std::make_shared<const judge::Llmj>(core::make_simulated_client(1),
                                          llm::PromptStyle::kAgentDirect,
                                          memo_off),
      paper);
  const auto expected = oracle.run(files);

  struct Shape {
    std::size_t workers;
    std::size_t job_batch;
    std::uint64_t window_us;
  };
  for (const Shape shape : {Shape{1, 1, 0}, Shape{2, 8, 300}}) {
    for (const bool memo : {false, true}) {
      SCOPED_TRACE("workers " + std::to_string(shape.workers) +
                   " job_batch " + std::to_string(shape.job_batch) +
                   " window_us " + std::to_string(shape.window_us) +
                   " memo " + std::to_string(memo));
      ServerConfig config;
      config.workers = shape.workers;
      config.job_batch = shape.job_batch;
      judge::JudgeCacheConfig cache;
      cache.enabled = memo;
      llm::BatcherConfig batcher;
      batcher.max_batch = shape.window_us > 0 ? 8 : 0;
      batcher.window_us = shape.window_us;
      ServerHarness harness(config, cache, batcher);

      Client client;
      ASSERT_TRUE(client.connect("127.0.0.1", harness.server->port(), "t"))
          << client.last_error();
      for (std::size_t i = 0; i < files.size(); ++i) {
        ASSERT_TRUE(client.send_submit(i + 1, files[i]));
      }
      std::map<std::uint64_t, Response> answers;  // by job id
      while (answers.size() < files.size()) {
        const auto response = client.next_response(30000);
        ASSERT_TRUE(response.has_value()) << client.last_error();
        if (!response->terminal()) continue;
        ASSERT_EQ(response->type, ResponseType::kVerdict)
            << "file " << response->id - 1 << ": " << response->reason;
        EXPECT_TRUE(answers.emplace(response->id, *response).second)
            << "file " << response->id - 1 << " answered twice";
      }
      for (std::size_t i = 0; i < files.size(); ++i) {
        const pipeline::PipelineRecord& want = expected.records[i];
        const Response& got = answers.at(i + 1);
        EXPECT_EQ(got.verdict, judge::verdict_name(want.verdict))
            << "file " << i;
        EXPECT_EQ(got.judge_valid, want.judge_says_valid) << "file " << i;
        EXPECT_EQ(got.compiled, want.compiled) << "file " << i;
        EXPECT_EQ(got.executed, want.executed) << "file " << i;
      }
    }
  }
}

}  // namespace
}  // namespace llm4vv::serve
