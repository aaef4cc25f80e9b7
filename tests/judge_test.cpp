#include <gtest/gtest.h>

#include "corpus/generator.hpp"
#include "judge/judge.hpp"
#include "llm/coder_model.hpp"
#include "probing/mutation.hpp"
#include "support/rng.hpp"
#include "tests/test_util.hpp"

namespace llm4vv::judge {
namespace {

using frontend::Flavor;
using frontend::Language;

frontend::SourceFile sample_file(Flavor flavor = Flavor::kOpenACC) {
  return corpus::generate_one("sum_reduction", flavor, Language::kC, 17)
      .file;
}

// ---------------------------------------------------------------------------
// Prompt builders (Listings 1-4 fidelity)
// ---------------------------------------------------------------------------

TEST(PromptTest, CriteriaBlockListsAllSixCriteria) {
  const auto block = criteria_block(Flavor::kOpenACC);
  for (const char* criterion :
       {"Syntax:", "Directive Appropriateness:", "Clause Correctness:",
        "Memory Management:", "Compliance:", "Logic:"}) {
    EXPECT_NE(block.find(criterion), std::string::npos) << criterion;
  }
  EXPECT_NE(block.find("OpenACC"), std::string::npos);
  EXPECT_EQ(block.find("OpenMP"), std::string::npos);
}

TEST(PromptTest, DirectPromptUsesCorrectIncorrectProtocol) {
  const auto prompt = direct_analysis_prompt(sample_file());
  EXPECT_NE(prompt.find("FINAL JUDGEMENT: correct"), std::string::npos);
  EXPECT_NE(prompt.find("FINAL JUDGEMENT: incorrect"), std::string::npos);
  EXPECT_EQ(prompt.find("Compiler return code"), std::string::npos);
  EXPECT_NE(prompt.find("Here is the code"), std::string::npos);
}

TEST(PromptTest, AgentDirectPromptQuotesToolOutputs) {
  const auto file = sample_file();
  const auto driver = testutil::clean_driver(Flavor::kOpenACC);
  const auto compiled = driver.compile(file);
  const auto ran = toolchain::Executor().run(compiled.module);
  const auto prompt = agent_direct_prompt(file, compiled, ran);
  EXPECT_NE(prompt.find("FINAL JUDGEMENT: valid"), std::string::npos);
  EXPECT_NE(prompt.find("Compiler return code: 0"), std::string::npos);
  EXPECT_NE(prompt.find("Return code: 0"), std::string::npos);
  EXPECT_NE(prompt.find("Think step by step."), std::string::npos);
}

TEST(PromptTest, AgentIndirectPromptAsksForDescription) {
  const auto file = sample_file();
  const auto driver = testutil::clean_driver(Flavor::kOpenACC);
  const auto compiled = driver.compile(file);
  const auto ran = toolchain::Executor().run(compiled.module);
  const auto prompt = agent_indirect_prompt(file, compiled, ran);
  EXPECT_NE(prompt.find("Describe what the below"), std::string::npos);
  EXPECT_NE(prompt.find("valid or invalid compiler test"),
            std::string::npos);
  EXPECT_NE(prompt.find("Here is the code for you to analyze"),
            std::string::npos);
}

TEST(PromptTest, FailedCompileShowsDiagnosticsInPrompt) {
  auto file = sample_file();
  file.content = "int main() { return ghost; }";
  const auto driver = testutil::clean_driver(Flavor::kOpenACC);
  const auto compiled = driver.compile(file);
  const auto ran = toolchain::Executor().run(compiled.module);
  const auto prompt = agent_direct_prompt(file, compiled, ran);
  EXPECT_NE(prompt.find("Compiler return code: 2"), std::string::npos);
  EXPECT_NE(prompt.find("undeclared identifier"), std::string::npos);
  EXPECT_NE(prompt.find("could not be run"), std::string::npos);
}

TEST(PromptTest, BuildPromptDispatchesAndValidates) {
  const auto file = sample_file();
  EXPECT_NO_THROW(
      build_prompt(llm::PromptStyle::kDirectAnalysis, file, nullptr,
                   nullptr));
  EXPECT_THROW(build_prompt(llm::PromptStyle::kAgentDirect, file, nullptr,
                            nullptr),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Verdict parsing
// ---------------------------------------------------------------------------

struct VerdictCase {
  const char* name;
  std::string completion;
  Verdict expected;
};

// Prints the case name. Without it gtest dumps the object's bytes, heap
// pointer included, and the discovered ctest names change on every build.
void PrintTo(const VerdictCase& c, std::ostream* os) { *os << c.name; }

class VerdictParseTest : public ::testing::TestWithParam<VerdictCase> {};

TEST_P(VerdictParseTest, ParsesExpectedVerdict) {
  EXPECT_EQ(parse_verdict(GetParam().completion), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, VerdictParseTest,
    ::testing::Values(
        VerdictCase{"valid_after_preamble",
                    "blah\nFINAL JUDGEMENT: valid\n", Verdict::kValid},
        VerdictCase{"invalid", "FINAL JUDGEMENT: invalid",
                    Verdict::kInvalid},
        VerdictCase{"correct_means_valid", "FINAL JUDGEMENT: correct",
                    Verdict::kValid},
        VerdictCase{"incorrect_means_invalid", "FINAL JUDGEMENT: incorrect",
                    Verdict::kInvalid},
        VerdictCase{"case_and_spacing_ignored", "final judgement:   VALID",
                    Verdict::kValid},
        VerdictCase{"verdict_on_next_line", "Final Judgement:\ninvalid",
                    Verdict::kInvalid},
        VerdictCase{"us_spelling", "FINAL JUDGMENT: valid (US spelling)",
                    Verdict::kValid},
        VerdictCase{"quoted_verdict", "FINAL JUDGEMENT: \"invalid\"",
                    Verdict::kInvalid},
        // The last phrase wins when the model restates itself.
        VerdictCase{"last_phrase_wins",
                    "FINAL JUDGEMENT: valid ... on reflection\n"
                    "FINAL JUDGEMENT: invalid",
                    Verdict::kInvalid},
        VerdictCase{"no_protocol_phrase", "no protocol phrase at all",
                    Verdict::kUnparseable},
        VerdictCase{"unknown_verdict_word", "FINAL JUDGEMENT: maybe?",
                    Verdict::kUnparseable},
        VerdictCase{"empty_completion", "", Verdict::kUnparseable}));

TEST(VerdictTest, FuzzedCompletionsNeverThrow) {
  support::Rng rng(123);
  for (int i = 0; i < 500; ++i) {
    std::string junk;
    const auto len = rng.next_below(200);
    for (std::uint64_t j = 0; j < len; ++j) {
      junk.push_back(static_cast<char>(rng.next_below(256)));
    }
    // Occasionally splice protocol fragments into the junk.
    if (rng.chance(0.3)) junk += "FINAL JUDGEMENT:";
    if (rng.chance(0.3)) junk += " val";
    EXPECT_NO_THROW(parse_verdict(junk));
  }
}

TEST(VerdictTest, SaysValidMapping) {
  EXPECT_TRUE(verdict_says_valid(Verdict::kValid));
  EXPECT_FALSE(verdict_says_valid(Verdict::kInvalid));
  EXPECT_FALSE(verdict_says_valid(Verdict::kUnparseable));
  EXPECT_TRUE(verdict_says_valid(Verdict::kUnparseable, true));
}

TEST(VerdictTest, NamesAreStable) {
  EXPECT_STREQ(verdict_name(Verdict::kValid), "valid");
  EXPECT_STREQ(verdict_name(Verdict::kInvalid), "invalid");
  EXPECT_STREQ(verdict_name(Verdict::kUnparseable), "unparseable");
}

// ---------------------------------------------------------------------------
// Llmj orchestration
// ---------------------------------------------------------------------------

std::shared_ptr<llm::ModelClient> make_client() {
  return std::make_shared<llm::ModelClient>(
      std::make_shared<const llm::SimulatedCoderModel>(), 2);
}

TEST(LlmjTest, NullClientThrows) {
  EXPECT_THROW(Llmj(nullptr, llm::PromptStyle::kDirectAnalysis),
               std::invalid_argument);
}

TEST(LlmjTest, AgentStyleWithoutRecordsThrows) {
  const Llmj judge(make_client(), llm::PromptStyle::kAgentDirect);
  EXPECT_THROW(judge.evaluate(sample_file()), std::invalid_argument);
}

TEST(LlmjTest, EvaluateFillsDecision) {
  const Llmj judge(make_client(), llm::PromptStyle::kDirectAnalysis);
  const auto decision = judge.evaluate(sample_file());
  EXPECT_FALSE(decision.prompt.empty());
  EXPECT_FALSE(decision.completion.text.empty());
  EXPECT_NE(decision.verdict, Verdict::kUnparseable);
}

TEST(LlmjTest, BrokenCompilationUsuallyJudgedInvalidByAgent) {
  auto client = make_client();
  const Llmj judge(client, llm::PromptStyle::kAgentIndirect);
  const auto driver = testutil::clean_driver(Flavor::kOpenACC);
  const toolchain::Executor executor;
  support::Rng rng(19);
  int invalid = 0;
  int total = 0;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    auto file = corpus::generate_one("vec_scale", Flavor::kOpenACC,
                                     Language::kC, seed)
                    .file;
    const auto mutated = probing::apply_mutation(
        file.content, file.language,
        probing::IssueType::kRemovedOpeningBracket, {}, rng);
    ASSERT_TRUE(mutated.has_value());
    file.content = *mutated;
    const auto compiled = driver.compile(file);
    const auto ran = executor.run(compiled.module);
    const auto decision = judge.evaluate(file, &compiled, &ran, seed);
    ++total;
    if (!decision.says_valid) ++invalid;
  }
  // LLMJ 2 catches roughly half of these (Table VII: 55%); well above zero
  // but far below perfect.
  EXPECT_GT(invalid, total / 5);
  EXPECT_LT(invalid, total);
}

TEST(LlmjTest, StyleAccessors) {
  const Llmj judge(make_client(), llm::PromptStyle::kAgentDirect);
  EXPECT_EQ(judge.style(), llm::PromptStyle::kAgentDirect);
  EXPECT_STREQ(judge.name(), "LLMJ 1");
}

}  // namespace
}  // namespace llm4vv::judge
