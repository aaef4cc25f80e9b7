#include <gtest/gtest.h>

#include <thread>

#include "corpus/generator.hpp"
#include "judge/prompt.hpp"
#include "llm/client.hpp"
#include "llm/coder_model.hpp"
#include "llm/perception.hpp"
#include "llm/tokenizer.hpp"
#include "probing/mutation.hpp"
#include "tests/test_util.hpp"

namespace llm4vv::llm {
namespace {

using frontend::Flavor;
using frontend::Language;

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

class TokenizerRoundTripTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(TokenizerRoundTripTest, DecodeOfEncodeIsIdentity) {
  const auto& tokenizer = default_tokenizer();
  const std::string& text = GetParam();
  EXPECT_EQ(tokenizer.decode(tokenizer.encode(text)), text);
}

INSTANTIATE_TEST_SUITE_P(
    Texts, TokenizerRoundTripTest,
    ::testing::Values(
        "", "a", "#pragma acc parallel loop copyin(a[0:N])",
        "int main() { return 0; }",
        "non-ascii bytes: \xc3\xa9\xf0\x9f\x98\x80 and \x01\x02",
        "program t\n  !$acc parallel loop\nend program t\n",
        "FINAL JUDGEMENT: valid"));

TEST(TokenizerTest, RoundTripOnGeneratedCorpus) {
  auto gen = testutil::corpus_config(Flavor::kOpenACC, 12, 31);
  gen.fortran_share = 0.3;
  const auto& tokenizer = default_tokenizer();
  for (const auto& tc : corpus::generate_suite(gen).cases) {
    EXPECT_EQ(tokenizer.decode(tokenizer.encode(tc.file.content)),
              tc.file.content)
        << tc.file.name;
  }
}

TEST(TokenizerTest, CountMatchesEncodeSize) {
  const auto& tokenizer = default_tokenizer();
  const auto tc = corpus::generate_one("saxpy_offload", Flavor::kOpenACC,
                                       Language::kC, 3);
  EXPECT_EQ(tokenizer.count_tokens(tc.file.content),
            tokenizer.encode(tc.file.content).size());
}

TEST(TokenizerTest, FragmentsCompressCode) {
  const auto& tokenizer = default_tokenizer();
  const auto tc = corpus::generate_one("saxpy_offload", Flavor::kOpenACC,
                                       Language::kC, 3);
  const double chars_per_token =
      static_cast<double>(tc.file.content.size()) /
      static_cast<double>(tokenizer.count_tokens(tc.file.content));
  EXPECT_GT(chars_per_token, 2.5);  // far better than byte-level
}

TEST(TokenizerTest, VocabIncludesAllBytes) {
  const auto& tokenizer = default_tokenizer();
  EXPECT_GE(tokenizer.vocab_size(), 256u);
  EXPECT_EQ(tokenizer.token_text(65), "A");
  EXPECT_THROW(tokenizer.token_text(-1), std::out_of_range);
  EXPECT_THROW(
      tokenizer.token_text(static_cast<std::int32_t>(
          tokenizer.vocab_size())),
      std::out_of_range);
}

// ---------------------------------------------------------------------------
// Perception
// ---------------------------------------------------------------------------

frontend::SourceFile test_file(Flavor flavor, std::uint64_t seed = 11) {
  return corpus::generate_one("saxpy_offload", flavor, Language::kC, seed)
      .file;
}

TEST(PerceptionTest, DetectsDirectStyle) {
  const auto view =
      perceive(judge::direct_analysis_prompt(test_file(Flavor::kOpenACC)));
  EXPECT_EQ(view.style, PromptStyle::kDirectAnalysis);
  EXPECT_EQ(view.flavor, Flavor::kOpenACC);
  EXPECT_FALSE(view.has_tool_info);
}

TEST(PerceptionTest, DetectsAgentStylesAndToolOutputs) {
  const auto file = test_file(Flavor::kOpenMP);
  const auto driver = testutil::clean_driver(Flavor::kOpenMP);
  const auto compiled = driver.compile(file);
  const auto ran = toolchain::Executor().run(compiled.module);

  const auto direct_view =
      perceive(judge::agent_direct_prompt(file, compiled, ran));
  EXPECT_EQ(direct_view.style, PromptStyle::kAgentDirect);
  EXPECT_TRUE(direct_view.has_tool_info);
  EXPECT_EQ(direct_view.compiler_rc, 0);
  EXPECT_EQ(direct_view.program_rc, 0);
  EXPECT_EQ(direct_view.flavor, Flavor::kOpenMP);

  const auto indirect_view =
      perceive(judge::agent_indirect_prompt(file, compiled, ran));
  EXPECT_EQ(indirect_view.style, PromptStyle::kAgentIndirect);
}

TEST(PerceptionTest, ExtractsEmbeddedCode) {
  const auto file = test_file(Flavor::kOpenACC);
  const auto view = perceive(judge::direct_analysis_prompt(file));
  EXPECT_NE(view.code.find("#pragma acc"), std::string::npos);
  EXPECT_NE(view.code.find("int main()"), std::string::npos);
}

TEST(PerceptionTest, ReadsNonZeroReturnCodes) {
  auto file = test_file(Flavor::kOpenACC);
  file.content = "int main() { return ghost; }";
  const auto driver = testutil::clean_driver(Flavor::kOpenACC);
  const auto compiled = driver.compile(file);
  const auto ran = toolchain::Executor().run(compiled.module);
  const auto view =
      perceive(judge::agent_direct_prompt(file, compiled, ran));
  EXPECT_NE(view.compiler_rc, 0);
  EXPECT_NE(view.program_rc, 0);  // "-1" for could-not-run
}

struct EvidenceCase {
  probing::IssueType issue;
  bool expect_no_directives;
  bool expect_misspell;
  bool expect_brace;
  bool expect_undeclared;
};

class PerceptionEvidenceTest
    : public ::testing::TestWithParam<EvidenceCase> {};

TEST_P(PerceptionEvidenceTest, MutationYieldsExpectedEvidence) {
  const auto& param = GetParam();
  const auto file = test_file(Flavor::kOpenACC, 21);
  probing::MutationConfig config;
  config.swap_directive_share = 1.0;  // issue 0 -> misspell arm
  support::Rng rng(55);
  const auto mutated = probing::apply_mutation(
      file.content, file.language, param.issue, config, rng);
  ASSERT_TRUE(mutated.has_value());

  PromptPerception view;
  analyze_code(*mutated, Flavor::kOpenACC, view);
  EXPECT_EQ(view.no_directives, param.expect_no_directives);
  if (!param.expect_no_directives) {
    EXPECT_EQ(view.misspelled_directive, param.expect_misspell);
    EXPECT_EQ(view.brace_imbalance, param.expect_brace);
    EXPECT_EQ(view.undeclared_identifier, param.expect_undeclared);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Mutations, PerceptionEvidenceTest,
    ::testing::Values(
        EvidenceCase{probing::IssueType::kRemovedAllocOrSwappedDirective,
                     false, true, false, false},
        EvidenceCase{probing::IssueType::kRemovedOpeningBracket, false,
                     false, true, false},
        EvidenceCase{probing::IssueType::kUndeclaredVariable, false, false,
                     false, true},
        EvidenceCase{probing::IssueType::kReplacedWithPlainCode, true,
                     false, false, false}));

TEST(PerceptionTest, ValidFileHasNoEvidence) {
  PromptPerception view;
  analyze_code(test_file(Flavor::kOpenACC).content, Flavor::kOpenACC, view);
  EXPECT_FALSE(view.no_directives);
  EXPECT_FALSE(view.any_code_evidence());
}

TEST(PerceptionTest, UninitPointerDetectedAfterAllocRemoval) {
  const auto file = test_file(Flavor::kOpenACC, 33);
  probing::MutationConfig config;
  config.swap_directive_share = 0.0;  // force allocation removal
  support::Rng rng(66);
  const auto mutated = probing::apply_mutation(
      file.content, file.language,
      probing::IssueType::kRemovedAllocOrSwappedDirective, config, rng);
  ASSERT_TRUE(mutated.has_value());
  PromptPerception view;
  analyze_code(*mutated, Flavor::kOpenACC, view);
  EXPECT_TRUE(view.uninit_pointer);
}

TEST(PerceptionTest, LogicMismatchAfterTrailingBlockRemoval) {
  const auto file = test_file(Flavor::kOpenACC, 44);
  probing::MutationConfig config;
  config.issue4_function_tail_share = 0.0;
  support::Rng rng(77);
  const auto mutated = probing::apply_mutation(
      file.content, file.language,
      probing::IssueType::kRemovedLastBracketedSection, config, rng);
  ASSERT_TRUE(mutated.has_value());
  PromptPerception view;
  analyze_code(*mutated, Flavor::kOpenACC, view);
  EXPECT_TRUE(view.logic_mismatch);
}

TEST(PerceptionTest, MissingReturnAfterFunctionTailRemoval) {
  const auto file = test_file(Flavor::kOpenMP, 44);
  probing::MutationConfig config;
  config.issue4_function_tail_share = 1.0;
  support::Rng rng(88);
  const auto mutated = probing::apply_mutation(
      file.content, file.language,
      probing::IssueType::kRemovedLastBracketedSection, config, rng);
  ASSERT_TRUE(mutated.has_value());
  PromptPerception view;
  analyze_code(*mutated, Flavor::kOpenMP, view);
  EXPECT_TRUE(view.missing_return || view.brace_imbalance);
}

TEST(PerceptionTest, UnspacedAssignmentCountsAsAllocation) {
  // `p=malloc(...)` assigns the pointer as surely as `p = malloc(...)`.
  const std::string code =
      "#include <stdlib.h>\n"
      "int main() {\n"
      "  double *p;\n"
      "  p=(double*)malloc(8 * sizeof(double));\n"
      "#pragma acc parallel loop copyout(p[0:8])\n"
      "  for (int i = 0; i < 8; ++i) p[i] = i;\n"
      "  return 0;\n"
      "}\n";
  PromptPerception view;
  analyze_code(code, Flavor::kOpenACC, view);
  EXPECT_FALSE(view.uninit_pointer);

  std::string unassigned = code;
  unassigned.erase(unassigned.find("  p=("),
                   unassigned.find("\n#pragma") - unassigned.find("  p=("));
  PromptPerception cut;
  analyze_code(unassigned, Flavor::kOpenACC, cut);
  EXPECT_TRUE(cut.uninit_pointer);
}

// ---------------------------------------------------------------------------
// Perception memo: a hit must equal a miss
// ---------------------------------------------------------------------------

void expect_same_completion(const Completion& got, const Completion& want,
                            const std::string& label) {
  EXPECT_EQ(got.text, want.text) << label;
  EXPECT_EQ(got.prompt_tokens, want.prompt_tokens) << label;
  EXPECT_EQ(got.completion_tokens, want.completion_tokens) << label;
  EXPECT_EQ(got.latency_seconds, want.latency_seconds) << label;
}

TEST(PerceptionMemoTest, LlmjPromptsOfOneFileHitEqualsMiss) {
  // LLMJ 1 and LLMJ 2 read the same code: through one model the second
  // prompt is served the first one's code evidence. Every probing class,
  // so the memoized flags vary.
  const SimulatedCoderModel shared;
  const auto driver = testutil::clean_driver(Flavor::kOpenACC);
  probing::MutationConfig config;
  for (int issue = 0; issue <= 5; ++issue) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      auto file = test_file(Flavor::kOpenACC, 100 + seed);
      support::Rng rng(seed);
      const auto mutated =
          probing::apply_mutation(file.content, file.language,
                                  static_cast<probing::IssueType>(issue),
                                  config, rng);
      if (!mutated) continue;
      file.content = *mutated;
      const auto compiled = driver.compile(file);
      const auto ran = toolchain::Executor().run(compiled.module);
      const std::string label = "issue " + std::to_string(issue) +
                                " seed " + std::to_string(seed);
      GenerationParams params;
      params.seed = seed;
      for (const auto& prompt :
           {judge::agent_direct_prompt(file, compiled, ran),
            judge::agent_indirect_prompt(file, compiled, ran)}) {
        expect_same_completion(shared.generate(prompt, params),
                               SimulatedCoderModel().generate(prompt, params),
                               label);
      }
    }
  }
}

TEST(PerceptionMemoTest, FlavorIsPartOfTheKey) {
  // One code block whose evidence depends on the flavor: an unknown
  // OpenACC directive is an error when validated as OpenACC and an
  // ignored foreign pragma when validated as OpenMP.
  frontend::SourceFile acc = test_file(Flavor::kOpenACC);
  acc.content =
      "#include <stdio.h>\n"
      "int main() {\n"
      "  int x = 0;\n"
      "#pragma acc paralel loop\n"
      "  for (int i = 0; i < 4; ++i) x += i;\n"
      "  printf(\"PASSED\\n\");\n"
      "  printf(\"FAILED\\n\");\n"
      "  return 0;\n"
      "}\n";
  frontend::SourceFile omp = acc;
  omp.flavor = Flavor::kOpenMP;
  PromptPerception acc_facts;
  PromptPerception omp_facts;
  analyze_code(acc.content, Flavor::kOpenACC, acc_facts);
  analyze_code(acc.content, Flavor::kOpenMP, omp_facts);
  ASSERT_TRUE(acc_facts.misspelled_directive);
  ASSERT_FALSE(omp_facts.misspelled_directive);

  const std::string acc_prompt = judge::direct_analysis_prompt(acc);
  const std::string omp_prompt = judge::direct_analysis_prompt(omp);
  ASSERT_EQ(perceive(acc_prompt).code, perceive(omp_prompt).code);
  for (const bool acc_first : {true, false}) {
    const SimulatedCoderModel shared;
    const auto& first = acc_first ? acc_prompt : omp_prompt;
    const auto& second = acc_first ? omp_prompt : acc_prompt;
    expect_same_completion(shared.generate(first, {}),
                           SimulatedCoderModel().generate(first, {}),
                           "first");
    expect_same_completion(shared.generate(second, {}),
                           SimulatedCoderModel().generate(second, {}),
                           "second");
  }
}

TEST(PerceptionMemoTest, EvictedCodeIsReanalyzedExactly) {
  // Twice the capacity of distinct code blocks: eviction is FIFO per
  // shard, so this overflows every shard, the first block's included.
  const SimulatedCoderModel shared;
  const auto prompt_for = [](std::size_t i) {
    frontend::SourceFile file = test_file(Flavor::kOpenACC);
    file.content = "int main() {\n  int x = " + std::to_string(i) +
                   ";\n#pragma acc parallel loop\n"
                   "  for (int i = 0; i < 4; ++i) x += i;\n"
                   "  return x;\n}\n";
    return judge::direct_analysis_prompt(file);
  };
  const std::string first = prompt_for(0);
  const Completion first_miss = shared.generate(first, {});
  for (std::size_t i = 1;
       i <= 2 * SimulatedCoderModel::kPerceptionMemoCapacity; ++i) {
    shared.generate(prompt_for(i), {});
  }
  const Completion fresh = SimulatedCoderModel().generate(first, {});
  expect_same_completion(first_miss, fresh, "first miss");
  expect_same_completion(shared.generate(first, {}), fresh, "after eviction");
}

// ---------------------------------------------------------------------------
// Profiles
// ---------------------------------------------------------------------------

TEST(ProfilesTest, AllParametersAreProbabilities) {
  for (const auto flavor : {Flavor::kOpenACC, Flavor::kOpenMP}) {
    for (const auto style :
         {PromptStyle::kDirectAnalysis, PromptStyle::kAgentDirect,
          PromptStyle::kAgentIndirect}) {
      const auto& p = judge_profile(flavor, style);
      for (const double q :
           {p.q_no_directives, p.q_misspelled_directive,
            p.q_brace_imbalance, p.q_undeclared, p.q_uninit_pointer,
            p.q_logic_mismatch, p.q_missing_return,
            p.q_compile_failed_corroborated, p.q_compile_failed_alone,
            p.q_run_failed_corroborated, p.q_run_failed_alone,
            p.false_invalid_rate, p.protocol_violation_rate}) {
        EXPECT_GE(q, 0.0);
        EXPECT_LE(q, 1.0);
      }
    }
  }
}

TEST(ProfilesTest, OmpDirectHasTheNonOmpBlindSpot) {
  // The paper's most striking Part One finding (Table II, issue 3: 4%).
  const auto& p = judge_profile(Flavor::kOpenMP,
                                PromptStyle::kDirectAnalysis);
  EXPECT_LT(p.q_no_directives, 0.10);
  const auto& acc = judge_profile(Flavor::kOpenACC,
                                  PromptStyle::kDirectAnalysis);
  EXPECT_GT(acc.q_no_directives, 0.70);
}

TEST(ProfilesTest, OmpDirectIsHarshOnValidFiles) {
  // Table II, no-issue row: 39% accuracy -> ~0.61 false-invalid rate.
  const auto& p = judge_profile(Flavor::kOpenMP,
                                PromptStyle::kDirectAnalysis);
  EXPECT_GT(p.false_invalid_rate, 0.5);
}

// ---------------------------------------------------------------------------
// SimulatedCoderModel
// ---------------------------------------------------------------------------

TEST(CoderModelTest, DeterministicPerPromptAndSeed) {
  const SimulatedCoderModel model;
  const auto prompt =
      judge::direct_analysis_prompt(test_file(Flavor::kOpenACC));
  GenerationParams params;
  params.seed = 7;
  const auto a = model.generate(prompt, params);
  const auto b = model.generate(prompt, params);
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.prompt_tokens, b.prompt_tokens);
}

TEST(CoderModelTest, SeedChangesCanChangeVerdicts) {
  const SimulatedCoderModel model;
  // A file whose verdict is genuinely stochastic (valid ACC file under the
  // direct prompt has a 12% false-invalid rate).
  int flips = 0;
  for (std::uint64_t file_seed = 0; file_seed < 30; ++file_seed) {
    const auto prompt = judge::direct_analysis_prompt(
        test_file(Flavor::kOpenACC, file_seed));
    GenerationParams pa, pb;
    pa.seed = 1;
    pb.seed = 2;
    if (model.generate(prompt, pa).text != model.generate(prompt, pb).text) {
      ++flips;
    }
  }
  EXPECT_GT(flips, 0);
}

TEST(CoderModelTest, CompletionFollowsProtocolVocabulary) {
  const SimulatedCoderModel model;
  const auto file = test_file(Flavor::kOpenACC);
  const auto direct = model.generate(judge::direct_analysis_prompt(file), {});
  EXPECT_TRUE(direct.text.find("FINAL JUDGEMENT: correct") !=
                  std::string::npos ||
              direct.text.find("FINAL JUDGEMENT: incorrect") !=
                  std::string::npos)
      << direct.text;

  const auto driver = testutil::clean_driver(Flavor::kOpenACC);
  const auto compiled = driver.compile(file);
  const auto ran = toolchain::Executor().run(compiled.module);
  const auto agent =
      model.generate(judge::agent_direct_prompt(file, compiled, ran), {});
  EXPECT_TRUE(agent.text.find("FINAL JUDGEMENT: valid") !=
                  std::string::npos ||
              agent.text.find("FINAL JUDGEMENT: invalid") !=
                  std::string::npos)
      << agent.text;
}

TEST(CoderModelTest, LatencyScalesWithPromptSize) {
  const SimulatedCoderModel model;
  auto small = test_file(Flavor::kOpenACC);
  auto large = small;
  for (int i = 0; i < 200; ++i) {
    large.content += "// extra commentary line for prompt growth\n";
  }
  const auto a = model.generate(judge::direct_analysis_prompt(small), {});
  const auto b = model.generate(judge::direct_analysis_prompt(large), {});
  EXPECT_GT(b.prompt_tokens, a.prompt_tokens);
  EXPECT_GT(b.latency_seconds, a.latency_seconds);
}

TEST(CoderModelTest, InvalidProbabilityReflectsEvidence) {
  const SimulatedCoderModel model;
  PromptPerception clean;
  clean.style = PromptStyle::kAgentDirect;
  clean.flavor = Flavor::kOpenACC;
  clean.has_tool_info = true;
  const double p_clean = model.invalid_probability(clean);

  PromptPerception broken = clean;
  broken.compiler_rc = 2;
  broken.brace_imbalance = true;
  const double p_broken = model.invalid_probability(broken);
  EXPECT_GT(p_broken, p_clean + 0.3);

  PromptPerception plain = clean;
  plain.no_directives = true;
  EXPECT_NEAR(model.invalid_probability(plain),
              judge_profile(Flavor::kOpenACC, PromptStyle::kAgentDirect)
                  .q_no_directives,
              1e-12);
}

TEST(CoderModelTest, NameMentionsTheSimulatedModel) {
  EXPECT_NE(SimulatedCoderModel().name().find("deepseek-coder"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// ModelClient
// ---------------------------------------------------------------------------

TEST(ModelClientTest, AccumulatesStats) {
  auto model = std::make_shared<const SimulatedCoderModel>();
  ModelClient client(model, 2);
  const auto prompt =
      judge::direct_analysis_prompt(test_file(Flavor::kOpenACC));
  client.complete(prompt);
  client.complete(prompt);
  const auto stats = client.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_GT(stats.prompt_tokens, 0u);
  EXPECT_GT(stats.completion_tokens, 0u);
  EXPECT_GT(stats.gpu_seconds, 0.0);
}

TEST(ModelClientTest, NullModelThrows) {
  EXPECT_THROW(ModelClient(nullptr, 1), std::invalid_argument);
}

TEST(ModelClientTest, TranscriptRingKeepsMostRecent) {
  auto model = std::make_shared<const SimulatedCoderModel>();
  ModelClient client(model, 1, /*transcript_capacity=*/2);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    client.complete(
        judge::direct_analysis_prompt(test_file(Flavor::kOpenACC, seed)));
  }
  EXPECT_EQ(client.transcripts().size(), 2u);
}

TEST(ModelClientTest, ConcurrentCallsAllComplete) {
  auto model = std::make_shared<const SimulatedCoderModel>();
  ModelClient client(model, 3);
  const auto prompt =
      judge::direct_analysis_prompt(test_file(Flavor::kOpenACC));
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&client, &prompt] {
      for (int i = 0; i < 10; ++i) client.complete(prompt);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(client.stats().requests, 80u);
}

TEST(PromptStyleTest, NamesMatchPaperTerminology) {
  EXPECT_STREQ(prompt_style_name(PromptStyle::kDirectAnalysis),
               "non-agent LLMJ");
  EXPECT_STREQ(prompt_style_name(PromptStyle::kAgentDirect), "LLMJ 1");
  EXPECT_STREQ(prompt_style_name(PromptStyle::kAgentIndirect), "LLMJ 2");
}

}  // namespace
}  // namespace llm4vv::llm
