// Cross-run persistence through the artifact store, the second tier behind
// the judge memo and the compile memo: judge-verdict warm starts
// (byte-identical decisions, persisted-hit accounting, fingerprint
// invalidation, corruption recovery, save-under-concurrency, working sets
// larger than the memo, records in the older format that carried the
// prompt) and the compile cache (front-end skipping in memory and across
// store round trips), plus the pipeline-level counters.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "cache/compile_cache.hpp"
#include "corpus/generator.hpp"
#include "judge/judge.hpp"
#include "llm/coder_model.hpp"
#include "pipeline/validation_pipeline.hpp"
#include "tests/test_util.hpp"

namespace llm4vv::judge {
namespace {

using cache::ArtifactStore;
using cache::ArtifactStoreConfig;
using cache::StoreFingerprint;
using frontend::Flavor;
using frontend::Language;

using testutil::TempFile;

std::shared_ptr<llm::ModelClient> make_client(std::size_t concurrency = 2) {
  return std::make_shared<llm::ModelClient>(
      std::make_shared<const llm::SimulatedCoderModel>(), concurrency);
}

std::shared_ptr<ArtifactStore> make_store(const std::string& path) {
  ArtifactStoreConfig config;
  config.path = path;
  config.fingerprint = StoreFingerprint{"persist-test", "sim-coder", 5};
  return std::make_shared<ArtifactStore>(config);
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
  EXPECT_DOUBLE_EQ(a.completion.latency_seconds,
                   b.completion.latency_seconds);
}

// ---------------------------------------------------------------------------
// Judge-verdict persistence
// ---------------------------------------------------------------------------

TEST(JudgePersistenceTest, WarmDecisionIsByteIdenticalToCold) {
  TempFile file("roundtrip");
  const auto source = sample_file(3);
  JudgeDecision cold;
  {
    JudgeCacheConfig config;
    config.store = make_store(file.path());
    const Llmj judge(make_client(), llm::PromptStyle::kDirectAnalysis,
                     config);
    cold = judge.evaluate(source, nullptr, nullptr, 5);
    EXPECT_FALSE(cold.cached);
    // Written through when the decision was published.
    EXPECT_EQ(config.store->size(), 1u);
    ASSERT_TRUE(config.store->save());
  }
  {
    JudgeCacheConfig config;
    config.store = make_store(file.path());
    EXPECT_FALSE(config.store->load_report().cold_start);
    EXPECT_EQ(config.store->load_report().loaded, 1u);
    const Llmj judge(make_client(), llm::PromptStyle::kDirectAnalysis,
                     config);
    const auto warm = judge.evaluate(source, nullptr, nullptr, 5);
    EXPECT_TRUE(warm.cached);
    EXPECT_TRUE(warm.persisted);
    expect_same_decision(warm, cold);
    // A store hit fills the memo but writes nothing back.
    EXPECT_EQ(config.store->stats().puts, 0u);
    const auto stats = judge.cache_stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.persisted_hits, 1u);
    EXPECT_EQ(stats.misses, 0u);
  }
}

TEST(JudgePersistenceTest, AgentStyleDecisionsRoundTripWithOutcomes) {
  TempFile file("agent");
  const auto source = sample_file(4);
  const auto driver = testutil::clean_driver(Flavor::kOpenACC);
  const auto compiled = driver.compile(source);
  const toolchain::Executor executor;
  const auto ran = executor.run(compiled.module);

  JudgeDecision cold;
  {
    JudgeCacheConfig config;
    config.store = make_store(file.path());
    const Llmj judge(make_client(), llm::PromptStyle::kAgentDirect, config);
    cold = judge.evaluate(source, &compiled, &ran, 9);
    ASSERT_TRUE(config.store->save());
  }
  JudgeCacheConfig config;
  config.store = make_store(file.path());
  const Llmj judge(make_client(), llm::PromptStyle::kAgentDirect, config);
  const auto warm = judge.evaluate(source, &compiled, &ran, 9);
  EXPECT_TRUE(warm.persisted);
  expect_same_decision(warm, cold);
  // A different seed or outcome still misses: the key covers them.
  EXPECT_FALSE(judge.evaluate(source, &compiled, &ran, 10).cached);
}

TEST(JudgePersistenceTest, OtherStylesRecordsAreNotLoaded) {
  TempFile file("styles");
  const auto source = sample_file(6);
  const auto driver = testutil::clean_driver(Flavor::kOpenACC);
  const auto compiled = driver.compile(source);
  const toolchain::Executor executor;
  const auto ran = executor.run(compiled.module);
  {
    JudgeCacheConfig config;
    config.store = make_store(file.path());
    const Llmj judge(make_client(), llm::PromptStyle::kDirectAnalysis,
                     config);
    (void)judge.evaluate(source);
    ASSERT_TRUE(config.store->save());
  }
  JudgeCacheConfig config;
  config.store = make_store(file.path());
  ASSERT_EQ(config.store->size(), 1u);
  // An agent-style judge must not be served direct-analysis verdicts.
  const Llmj judge(make_client(), llm::PromptStyle::kAgentDirect, config);
  const auto decision = judge.evaluate(source, &compiled, &ran);
  EXPECT_FALSE(decision.cached);
  EXPECT_FALSE(decision.persisted);
  EXPECT_EQ(judge.cache_stats().misses, 1u);
  EXPECT_EQ(judge.cache_stats().persisted_hits, 0u);
}

TEST(JudgePersistenceTest, FingerprintMismatchColdStartsCleanly) {
  TempFile file("fp");
  const auto source = sample_file(7);
  JudgeDecision cold;
  {
    JudgeCacheConfig config;
    config.store = make_store(file.path());
    const Llmj judge(make_client(), llm::PromptStyle::kDirectAnalysis,
                     config);
    cold = judge.evaluate(source);
    ASSERT_TRUE(config.store->save());
  }
  // Same file, different model fingerprint: the records are stale and must
  // not be served — cold start, recompute, same (deterministic) decision.
  ArtifactStoreConfig changed;
  changed.path = file.path();
  changed.fingerprint = StoreFingerprint{"persist-test", "other-model", 5};
  JudgeCacheConfig config;
  config.store = std::make_shared<ArtifactStore>(changed);
  EXPECT_TRUE(config.store->load_report().cold_start);
  const Llmj judge(make_client(), llm::PromptStyle::kDirectAnalysis, config);
  const auto redone = judge.evaluate(source);
  EXPECT_FALSE(redone.cached);
  EXPECT_FALSE(redone.persisted);
  EXPECT_EQ(judge.cache_stats().misses, 1u);
  EXPECT_EQ(judge.cache_stats().persisted_hits, 0u);
  expect_same_decision(redone, cold);
}

TEST(JudgePersistenceTest, CorruptTailRecoversRemainingRecords) {
  TempFile file("corrupt");
  const auto file_a = sample_file(10);
  const auto file_b = sample_file(11);
  std::string two_records;
  std::string three_records;
  {
    JudgeCacheConfig config;
    config.store = make_store(file.path());
    const Llmj judge(make_client(), llm::PromptStyle::kDirectAnalysis,
                     config);
    (void)judge.evaluate(file_a);
    (void)judge.evaluate(file_b);
    ASSERT_TRUE(config.store->save());
    two_records = testutil::read_bytes(file.path());
    (void)judge.evaluate(sample_file(12));
    ASSERT_TRUE(config.store->save());
    three_records = testutil::read_bytes(file.path());
  }
  ASSERT_GT(three_records.size(), two_records.size());
  {
    // Crash-like tail: the third record cut in the middle.
    std::ofstream out(file.path(), std::ios::trunc | std::ios::binary);
    out << three_records.substr(
        0, (two_records.size() + three_records.size()) / 2);
  }
  JudgeCacheConfig config;
  config.store = make_store(file.path());
  EXPECT_FALSE(config.store->load_report().cold_start);
  EXPECT_EQ(config.store->load_report().corrupt_records, 1u);
  EXPECT_EQ(config.store->load_report().loaded, 2u);
  const Llmj judge(make_client(), llm::PromptStyle::kDirectAnalysis, config);
  EXPECT_TRUE(judge.evaluate(file_a).persisted);
  EXPECT_TRUE(judge.evaluate(file_b).persisted);
  EXPECT_EQ(judge.cache_stats().persisted_hits, 2u);
  EXPECT_EQ(judge.cache_stats().misses, 0u);
}

TEST(JudgePersistenceTest, ConcurrentSaveWhileEvaluating) {
  TempFile file("concurrent");
  JudgeCacheConfig config;
  config.store = make_store(file.path());
  const Llmj judge(make_client(4), llm::PromptStyle::kDirectAnalysis,
                   config);

  std::atomic<bool> stop{false};
  std::thread saver([&config, &stop] {
    while (!stop.load()) {
      ASSERT_TRUE(config.store->save());
    }
  });
  std::vector<std::thread> evaluators;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 3; ++t) {
    evaluators.emplace_back([&judge, &mismatches, t] {
      for (std::uint64_t i = 0; i < 20; ++i) {
        const auto source = sample_file(100 + (t * 20 + i) % 30);
        const auto decision = judge.evaluate(source);
        const auto again = judge.evaluate(source);
        if (again.completion.text != decision.completion.text) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : evaluators) thread.join();
  stop.store(true);
  saver.join();
  EXPECT_EQ(mismatches.load(), 0);

  // The final persisted file must reload cleanly and serve warm hits.
  // (Some generated files can share content, so the unique-key count is
  // what the judge actually computed: its miss counter.)
  ASSERT_TRUE(config.store->save());
  const auto unique_keys = judge.cache_stats().misses;
  EXPECT_GE(unique_keys, 25u);
  JudgeCacheConfig reload;
  reload.store = make_store(file.path());
  EXPECT_FALSE(reload.store->load_report().cold_start);
  EXPECT_EQ(reload.store->load_report().corrupt_records, 0u);
  EXPECT_EQ(reload.store->load_report().loaded, unique_keys);
  const Llmj warm(make_client(), llm::PromptStyle::kDirectAnalysis, reload);
  for (std::uint64_t i = 0; i < 30; ++i) {
    EXPECT_TRUE(warm.evaluate(sample_file(100 + i)).persisted) << i;
  }
  EXPECT_EQ(warm.cache_stats().persisted_hits, 30u);
  EXPECT_EQ(warm.cache_stats().misses, 0u);
}

// persist_cache() is kept as a no-op for source compatibility: with or
// without a store it writes nothing, because write-through already did.
TEST(JudgePersistenceTest, PersistCacheWithoutStoreIsANoOp) {
  const Llmj judge(make_client(), llm::PromptStyle::kDirectAnalysis);
  (void)judge.evaluate(sample_file(1));
  EXPECT_EQ(judge.persist_cache(), 0u);

  JudgeCacheConfig config;
  config.store = make_store("");
  const Llmj stored(make_client(), llm::PromptStyle::kDirectAnalysis, config);
  (void)stored.evaluate(sample_file(1));
  const auto puts = config.store->stats().puts;
  EXPECT_EQ(puts, 1u);
  EXPECT_EQ(stored.persist_cache(), 0u);
  EXPECT_EQ(config.store->stats().puts, puts);
}

// The memo is the first tier, the store the second: a working set three
// times the memo's capacity is written through in full, and a fresh judge
// on the reopened store serves every file from it without a model call.
TEST(JudgePersistenceTest, StoreServesAWorkingSetLargerThanTheMemo) {
  TempFile file("working-set");
  JudgeCacheConfig config;
  config.capacity = 4;
  config.shards = 1;
  std::vector<JudgeDecision> cold;
  {
    config.store = make_store(file.path());
    const Llmj judge(make_client(), llm::PromptStyle::kDirectAnalysis,
                     config);
    for (std::uint64_t i = 0; i < 12; ++i) {
      cold.push_back(judge.evaluate(sample_file(200 + i)));
    }
    ASSERT_EQ(judge.cache_stats().misses, 12u);
    EXPECT_EQ(judge.cache_stats().evictions, 8u);
    ASSERT_TRUE(config.store->save());
  }
  config.store = make_store(file.path());
  EXPECT_EQ(config.store->load_report().loaded, 12u);
  const auto client = make_client();
  const Llmj judge(client, llm::PromptStyle::kDirectAnalysis, config);
  for (std::uint64_t i = 0; i < 12; ++i) {
    const auto warm = judge.evaluate(sample_file(200 + i));
    EXPECT_TRUE(warm.persisted) << i;
    expect_same_decision(warm, cold[i]);
  }
  EXPECT_EQ(judge.cache_stats().persisted_hits, 12u);
  EXPECT_EQ(judge.cache_stats().misses, 0u);
  EXPECT_EQ(client->stats().requests, 0u);
  EXPECT_DOUBLE_EQ(client->stats().gpu_seconds, 0.0);
}

// clear_cache() drops only the memo: the store tier keeps serving.
TEST(JudgePersistenceTest, ClearCacheKeepsTheStoreTier) {
  JudgeCacheConfig config;
  config.store = make_store("");
  Llmj judge(make_client(), llm::PromptStyle::kDirectAnalysis, config);
  const auto source = sample_file(13);
  const auto cold = judge.evaluate(source);
  judge.clear_cache();
  const auto again = judge.evaluate(source);
  EXPECT_TRUE(again.persisted);
  expect_same_decision(again, cold);
  EXPECT_EQ(judge.cache_stats().misses, 1u);
}

// A judge record that also carries a `prompt` field, as the judge wrote
// records before it stopped persisting the prompt, still decodes; the
// prompt is rebuilt, so the warm decision is byte-identical to the cold
// one.
TEST(JudgePersistenceTest, RecordWithOldPromptFieldStillServes) {
  TempFile file("old-format");
  const auto source = sample_file(12);
  JudgeDecision cold;
  std::size_t header_end = 0;
  {
    JudgeCacheConfig config;
    config.store = make_store(file.path());
    ASSERT_TRUE(config.store->save());
    header_end = std::filesystem::file_size(file.path());
    const Llmj judge(make_client(), llm::PromptStyle::kDirectAnalysis,
                     config);
    cold = judge.evaluate(source);
    ASSERT_TRUE(config.store->save());
  }
  // Rewrite the record with the field the older encoder wrote.
  {
    const auto id =
        testutil::read_record_id(testutil::read_bytes(file.path()), header_end);
    auto store = make_store(file.path());
    auto fields = store->get(id.ns, id.key, id.check);
    ASSERT_TRUE(fields.has_value());
    ASSERT_EQ(fields->count("prompt"), 0u);
    (*fields)["prompt"] = cold.prompt;
    store->put(id.ns, id.key, id.check, *fields);
    ASSERT_TRUE(store->save());
  }

  JudgeCacheConfig config;
  config.store = make_store(file.path());
  ASSERT_EQ(config.store->load_report().loaded, 1u);
  const Llmj judge(make_client(), llm::PromptStyle::kDirectAnalysis, config);
  const auto warm = judge.evaluate(source);
  EXPECT_TRUE(warm.persisted);
  expect_same_decision(warm, cold);
}

// ---------------------------------------------------------------------------
// Compile cache
// ---------------------------------------------------------------------------

toolchain::CompilerDriver cached_driver(
    Flavor flavor, const std::shared_ptr<cache::CompileCache>& compile_cache) {
  auto config = flavor == Flavor::kOpenACC ? toolchain::nvc_persona()
                                           : toolchain::clang_persona();
  return toolchain::CompilerDriver(config, compile_cache);
}

TEST(CompileCacheTest, SecondCompileSkipsTheFrontEnd) {
  auto compile_cache =
      std::make_shared<cache::CompileCache>(cache::CompileCacheConfig{},
                                            toolchain::driver_fingerprint(
                                                toolchain::nvc_persona()));
  const auto driver = cached_driver(Flavor::kOpenACC, compile_cache);
  const auto source = sample_file(21);

  const auto first = driver.compile(source);
  EXPECT_FALSE(first.cached);
  const auto second = driver.compile(source);
  EXPECT_TRUE(second.cached);
  EXPECT_FALSE(second.persisted);
  EXPECT_EQ(second.success, first.success);
  EXPECT_EQ(second.return_code, first.return_code);
  EXPECT_EQ(second.stderr_text, first.stderr_text);
  // The lowered module is shared, not recompiled.
  EXPECT_EQ(second.module.get(), first.module.get());
  const auto stats = compile_cache->stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(CompileCacheTest, PersistedCompileSkipsFrontEndAcrossStores) {
  TempFile file("compile");
  const auto source = sample_file(22);
  const auto fingerprint =
      toolchain::driver_fingerprint(toolchain::nvc_persona());
  toolchain::CompileResult cold;
  {
    cache::CompileCacheConfig config;
    config.store = make_store(file.path());
    auto compile_cache =
        std::make_shared<cache::CompileCache>(config, fingerprint);
    const auto driver = cached_driver(Flavor::kOpenACC, compile_cache);
    cold = driver.compile(source);
    // Written through when the result was inserted.
    EXPECT_EQ(config.store->size(), 1u);
    ASSERT_TRUE(config.store->save());
  }
  cache::CompileCacheConfig config;
  config.store = make_store(file.path());
  EXPECT_EQ(config.store->load_report().loaded, 1u);
  auto compile_cache =
      std::make_shared<cache::CompileCache>(config, fingerprint);
  const auto driver = cached_driver(Flavor::kOpenACC, compile_cache);
  const auto warm = driver.compile(source);
  EXPECT_TRUE(warm.cached);
  EXPECT_TRUE(warm.persisted);
  EXPECT_EQ(warm.success, cold.success);
  EXPECT_EQ(warm.return_code, cold.return_code);
  EXPECT_EQ(warm.stderr_text, cold.stderr_text);
  EXPECT_EQ(warm.stdout_text, cold.stdout_text);
  ASSERT_EQ(warm.module != nullptr, cold.module != nullptr);
  if (warm.module != nullptr) {
    // The decoded module must behave exactly like the original.
    const toolchain::Executor executor;
    const auto a = executor.run(warm.module);
    const auto b = executor.run(cold.module);
    EXPECT_EQ(a.return_code, b.return_code);
    EXPECT_EQ(a.stdout_text, b.stdout_text);
    EXPECT_EQ(a.steps, b.steps);
  }
  EXPECT_EQ(compile_cache->stats().persisted_hits, 1u);
  EXPECT_EQ(compile_cache->stats().misses, 0u);
}

// The memo key is the file *identity* (content + name + language), not the
// content alone: persona diagnostics bake the file name into stderr, and
// the language selects the front-end, so byte-identical content under a
// different name or language must never share a cached result.
TEST(CompileCacheTest, SameContentDifferentNameOrLanguageDoesNotCrossServe) {
  auto compile_cache =
      std::make_shared<cache::CompileCache>(cache::CompileCacheConfig{},
                                            toolchain::driver_fingerprint(
                                                toolchain::nvc_persona()));
  const auto driver = cached_driver(Flavor::kOpenACC, compile_cache);

  frontend::SourceFile alpha;
  alpha.name = "alpha.c";
  alpha.content = "int main() { return undeclared_var; }\n";
  frontend::SourceFile beta = alpha;
  beta.name = "beta.c";

  const auto first = driver.compile(alpha);
  const auto second = driver.compile(beta);
  EXPECT_FALSE(second.cached);  // different name: a distinct identity
  EXPECT_NE(second.stderr_text.find("beta.c"), std::string::npos)
      << "cached diagnostics leaked another file's name: "
      << second.stderr_text;
  EXPECT_EQ(first.stderr_text.find("beta.c"), std::string::npos);

  // Same bytes re-labelled as Fortran select a different front-end and
  // must also miss (SourceFile::language is part of the identity).
  frontend::SourceFile fortran = alpha;
  fortran.language = Language::kFortran;
  EXPECT_FALSE(driver.compile(fortran).cached);

  // The true repeat still hits.
  EXPECT_TRUE(driver.compile(alpha).cached);
}

TEST(CompileCacheTest, DifferentPersonaNeverCrossServes) {
  TempFile file("persona");
  const auto source = sample_file(23);
  {
    cache::CompileCacheConfig config;
    config.store = make_store(file.path());
    auto compile_cache = std::make_shared<cache::CompileCache>(
        config, toolchain::driver_fingerprint(toolchain::nvc_persona()));
    const auto driver = cached_driver(Flavor::kOpenACC, compile_cache);
    (void)driver.compile(source);
    ASSERT_TRUE(config.store->save());
  }
  cache::CompileCacheConfig config;
  config.store = make_store(file.path());
  ASSERT_EQ(config.store->size(), 1u);
  // clang persona: different fingerprint, so the nvc record must not serve.
  auto compile_cache = std::make_shared<cache::CompileCache>(
      config, toolchain::driver_fingerprint(toolchain::clang_persona()));
  const auto driver = cached_driver(Flavor::kOpenMP, compile_cache);
  const auto result = driver.compile(source);
  EXPECT_FALSE(result.cached);
  EXPECT_FALSE(result.persisted);
  EXPECT_EQ(compile_cache->stats().misses, 1u);
  EXPECT_EQ(compile_cache->stats().persisted_hits, 0u);
}

TEST(CompileCacheTest, StoreServesAWorkingSetLargerThanTheMemo) {
  TempFile file("compile-working-set");
  const auto fingerprint =
      toolchain::driver_fingerprint(toolchain::nvc_persona());
  cache::CompileCacheConfig config;
  config.capacity = 4;
  std::vector<toolchain::CompileResult> cold;
  {
    config.store = make_store(file.path());
    auto compile_cache =
        std::make_shared<cache::CompileCache>(config, fingerprint);
    const auto driver = cached_driver(Flavor::kOpenACC, compile_cache);
    for (std::uint64_t i = 0; i < 12; ++i) {
      cold.push_back(driver.compile(sample_file(300 + i)));
    }
    ASSERT_EQ(compile_cache->stats().misses, 12u);
    EXPECT_EQ(compile_cache->stats().evictions, 8u);
    ASSERT_TRUE(config.store->save());
  }
  config.store = make_store(file.path());
  EXPECT_EQ(config.store->load_report().loaded, 12u);
  auto compile_cache =
      std::make_shared<cache::CompileCache>(config, fingerprint);
  const auto driver = cached_driver(Flavor::kOpenACC, compile_cache);
  for (std::uint64_t i = 0; i < 12; ++i) {
    const auto warm = driver.compile(sample_file(300 + i));
    EXPECT_TRUE(warm.persisted) << i;
    EXPECT_EQ(cache::encode_compile_result(warm),
              cache::encode_compile_result(cold[i]))
        << i;
  }
  EXPECT_EQ(compile_cache->stats().persisted_hits, 12u);
  EXPECT_EQ(compile_cache->stats().misses, 0u);
}

// ---------------------------------------------------------------------------
// Pipeline integration: warm-start counters
// ---------------------------------------------------------------------------

std::vector<frontend::SourceFile> small_batch(std::size_t count) {
  std::vector<frontend::SourceFile> files;
  for (std::size_t i = 0; i < count; ++i) {
    files.push_back(sample_file(40 + i));
  }
  return files;
}

TEST(PipelinePersistenceTest, WarmRunServesEverythingFromTheStore) {
  TempFile file("pipeline");
  const auto files = small_batch(12);
  const auto fingerprint =
      toolchain::driver_fingerprint(toolchain::nvc_persona());

  pipeline::PipelineConfig pipe_config;
  pipe_config.mode = pipeline::PipelineMode::kRecordAll;
  pipe_config.judge_seed = 3;

  pipeline::PipelineResult cold;
  {
    auto store = make_store(file.path());
    JudgeCacheConfig judge_config;
    judge_config.store = store;
    auto judge = std::make_shared<const Llmj>(
        make_client(), llm::PromptStyle::kAgentDirect, judge_config);
    cache::CompileCacheConfig cc;
    cc.store = store;
    auto compile_cache =
        std::make_shared<cache::CompileCache>(cc, fingerprint);
    const pipeline::ValidationPipeline pipe(
        toolchain::CompilerDriver(toolchain::nvc_persona(), compile_cache),
        toolchain::Executor(), judge, pipe_config);
    cold = pipe.run(files);
    EXPECT_EQ(cold.judge_persisted_hits, 0u);
    EXPECT_GT(cold.judge_gpu_seconds, 0.0);
    ASSERT_TRUE(store->save());
  }

  auto store = make_store(file.path());
  JudgeCacheConfig judge_config;
  judge_config.store = store;
  auto judge = std::make_shared<const Llmj>(
      make_client(), llm::PromptStyle::kAgentDirect, judge_config);
  cache::CompileCacheConfig cc;
  cc.store = store;
  auto compile_cache = std::make_shared<cache::CompileCache>(cc, fingerprint);
  const pipeline::ValidationPipeline pipe(
      toolchain::CompilerDriver(toolchain::nvc_persona(), compile_cache),
      toolchain::Executor(), judge, pipe_config);
  const auto warm = pipe.run(files);

  // Every judged file is a persisted hit; no simulated GPU time is spent.
  EXPECT_EQ(warm.judge_persisted_hits, warm.judge_stage.processed);
  EXPECT_EQ(warm.judge_cache_hits, warm.judge_stage.processed);
  EXPECT_EQ(warm.judge_cache_misses, 0u);
  EXPECT_DOUBLE_EQ(warm.judge_gpu_seconds, 0.0);
  // Every compile was served from the persisted compile cache.
  EXPECT_EQ(warm.compile_cache_hits, files.size());
  EXPECT_EQ(warm.compile_persisted_hits, files.size());

  // Verdicts are byte-identical to the cold run's.
  ASSERT_EQ(warm.records.size(), cold.records.size());
  for (std::size_t i = 0; i < warm.records.size(); ++i) {
    EXPECT_EQ(warm.records[i].verdict, cold.records[i].verdict) << i;
    EXPECT_EQ(warm.records[i].judge_says_valid,
              cold.records[i].judge_says_valid)
        << i;
    EXPECT_EQ(warm.records[i].pipeline_says_valid,
              cold.records[i].pipeline_says_valid)
        << i;
    EXPECT_TRUE(warm.records[i].judge_persisted) << i;
    EXPECT_TRUE(warm.records[i].compile_cached) << i;
  }
}

}  // namespace
}  // namespace llm4vv::judge
