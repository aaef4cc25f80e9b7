#include <gtest/gtest.h>

#include <array>

#include "corpus/generator.hpp"
#include "probing/prober.hpp"
#include "support/strings.hpp"
#include "tests/test_util.hpp"

namespace llm4vv::probing {
namespace {

using frontend::Flavor;
using frontend::Language;

corpus::Suite base_suite(Flavor flavor, std::size_t count) {
  return corpus::generate_suite(testutil::corpus_config(flavor, count, 4711));
}

// ---------------------------------------------------------------------------
// Mutation invariants, parameterized over the whole base suite
// ---------------------------------------------------------------------------

class MutationInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(MutationInvariantTest, MutatedFileDiffersFromSource) {
  const auto issue = static_cast<IssueType>(GetParam());
  const auto suite = base_suite(Flavor::kOpenACC, 12);
  support::Rng rng(3);
  for (const auto& tc : suite.cases) {
    const auto mutated = apply_mutation(tc.file.content, tc.file.language,
                                        issue, {}, rng);
    if (!mutated) continue;
    EXPECT_NE(*mutated, tc.file.content) << tc.file.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Issues0to4, MutationInvariantTest,
                         ::testing::Range(0, 5));

TEST(MutationTest, NoIssueIsIdentity) {
  const auto suite = base_suite(Flavor::kOpenACC, 4);
  support::Rng rng(3);
  for (const auto& tc : suite.cases) {
    const auto out = apply_mutation(tc.file.content, tc.file.language,
                                    IssueType::kNoIssue, {}, rng);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, tc.file.content);
  }
}

TEST(MutationTest, OpeningBracketRemovesExactlyOneBrace) {
  const auto suite = base_suite(Flavor::kOpenACC, 10);
  support::Rng rng(5);
  for (const auto& tc : suite.cases) {
    const auto mutated =
        apply_mutation(tc.file.content, tc.file.language,
                       IssueType::kRemovedOpeningBracket, {}, rng);
    ASSERT_TRUE(mutated.has_value());
    const auto count = [](const std::string& s, char c) {
      return std::count(s.begin(), s.end(), c);
    };
    EXPECT_EQ(count(*mutated, '{'), count(tc.file.content, '{') - 1);
    EXPECT_EQ(count(*mutated, '}'), count(tc.file.content, '}'));
  }
}

TEST(MutationTest, BracketRemovalBreaksCompilation) {
  const auto suite = base_suite(Flavor::kOpenACC, 12);
  const auto driver = testutil::clean_driver(Flavor::kOpenACC);
  support::Rng rng(6);
  for (const auto& tc : suite.cases) {
    const auto mutated =
        apply_mutation(tc.file.content, tc.file.language,
                       IssueType::kRemovedOpeningBracket, {}, rng);
    ASSERT_TRUE(mutated.has_value());
    frontend::SourceFile file = tc.file;
    file.content = *mutated;
    EXPECT_FALSE(driver.compile(file).success) << file.name;
  }
}

TEST(MutationTest, UndeclaredVariableBreaksCompilation) {
  const auto suite = base_suite(Flavor::kOpenMP, 12);
  const auto driver = testutil::clean_driver(Flavor::kOpenMP);
  support::Rng rng(7);
  for (const auto& tc : suite.cases) {
    const auto mutated =
        apply_mutation(tc.file.content, tc.file.language,
                       IssueType::kUndeclaredVariable, {}, rng);
    ASSERT_TRUE(mutated.has_value());
    EXPECT_NE(mutated->find("undeclared_"), std::string::npos);
    frontend::SourceFile file = tc.file;
    file.content = *mutated;
    EXPECT_FALSE(driver.compile(file).success) << file.name;
  }
}

TEST(MutationTest, SwappedDirectiveBreaksCompilation) {
  const auto suite = base_suite(Flavor::kOpenACC, 12);
  const auto driver = testutil::clean_driver(Flavor::kOpenACC);
  MutationConfig config;
  config.swap_directive_share = 1.0;  // force the swap arm
  support::Rng rng(8);
  for (const auto& tc : suite.cases) {
    const auto mutated = apply_mutation(
        tc.file.content, tc.file.language,
        IssueType::kRemovedAllocOrSwappedDirective, config, rng);
    ASSERT_TRUE(mutated.has_value());
    frontend::SourceFile file = tc.file;
    file.content = *mutated;
    EXPECT_FALSE(driver.compile(file).success) << file.name << *mutated;
  }
}

TEST(MutationTest, RemovedAllocationCompilesButFailsAtRuntime) {
  const auto suite = base_suite(Flavor::kOpenACC, 20);
  const auto driver = testutil::clean_driver(Flavor::kOpenACC);
  const toolchain::Executor executor;
  MutationConfig config;
  config.swap_directive_share = 0.0;  // force the allocation arm
  support::Rng rng(9);
  int runtime_failures = 0;
  int applicable = 0;
  for (const auto& tc : suite.cases) {
    // Templates without a heap allocation fall back to the directive-swap
    // arm even at share 0; only the true allocation-removal arm is under
    // test here.
    if (tc.file.content.find(")malloc(") == std::string::npos) continue;
    const auto mutated = apply_mutation(
        tc.file.content, tc.file.language,
        IssueType::kRemovedAllocOrSwappedDirective, config, rng);
    if (!mutated) continue;
    ++applicable;
    frontend::SourceFile file = tc.file;
    file.content = *mutated;
    const auto compiled = driver.compile(file);
    ASSERT_TRUE(compiled.success) << file.name << compiled.stderr_text;
    if (!executor.run(compiled.module).passed()) ++runtime_failures;
  }
  ASSERT_GT(applicable, 10);
  // The vast majority must fail at run time (a few hit the benign
  // scratch buffer and stay silent, by design).
  EXPECT_GT(runtime_failures, applicable * 7 / 10);
}

TEST(MutationTest, PlainCodeReplacementHasNoDirectivesAndRuns) {
  const auto suite = base_suite(Flavor::kOpenMP, 8);
  const auto driver = testutil::clean_driver(Flavor::kOpenMP);
  const toolchain::Executor executor;
  support::Rng rng(10);
  for (const auto& tc : suite.cases) {
    const auto mutated =
        apply_mutation(tc.file.content, tc.file.language,
                       IssueType::kReplacedWithPlainCode, {}, rng);
    ASSERT_TRUE(mutated.has_value());
    EXPECT_EQ(mutated->find("#pragma"), std::string::npos);
    frontend::SourceFile file = tc.file;
    file.content = *mutated;
    file.language = Language::kC;
    const auto compiled = driver.compile(file);
    ASSERT_TRUE(compiled.success);
    EXPECT_TRUE(executor.run(compiled.module).passed());
  }
}

TEST(MutationTest, InnerTrailingBlockRemovalKeepsBracesBalanced) {
  const auto suite = base_suite(Flavor::kOpenACC, 12);
  MutationConfig config;
  config.issue4_function_tail_share = 0.0;  // force the inner reading
  support::Rng rng(11);
  for (const auto& tc : suite.cases) {
    const auto mutated =
        apply_mutation(tc.file.content, tc.file.language,
                       IssueType::kRemovedLastBracketedSection, config, rng);
    ASSERT_TRUE(mutated.has_value());
    const auto count = [](const std::string& s, char c) {
      return std::count(s.begin(), s.end(), c);
    };
    EXPECT_EQ(count(*mutated, '{'), count(*mutated, '}')) << tc.file.name;
  }
}

TEST(MutationTest, InnerTrailingRemovalUsuallySilent) {
  // The paper's hardest category: the file still compiles and exits 0.
  const auto suite = base_suite(Flavor::kOpenACC, 16);
  const auto driver = testutil::clean_driver(Flavor::kOpenACC);
  const toolchain::Executor executor;
  MutationConfig config;
  config.issue4_function_tail_share = 0.0;
  support::Rng rng(12);
  int silent = 0;
  for (const auto& tc : suite.cases) {
    const auto mutated =
        apply_mutation(tc.file.content, tc.file.language,
                       IssueType::kRemovedLastBracketedSection, config, rng);
    ASSERT_TRUE(mutated.has_value());
    frontend::SourceFile file = tc.file;
    file.content = *mutated;
    const auto compiled = driver.compile(file);
    if (!compiled.success) continue;
    if (executor.run(compiled.module).passed()) ++silent;
  }
  EXPECT_GT(silent, 12);
}

TEST(MutationTest, FunctionTailRemovalIsCaughtByExecutionOnOmp) {
  const auto suite = base_suite(Flavor::kOpenMP, 16);
  const auto driver = testutil::clean_driver(Flavor::kOpenMP);
  const toolchain::Executor executor;
  MutationConfig config;
  config.issue4_function_tail_share = 1.0;  // force the function-tail arm
  support::Rng rng(13);
  int caught = 0;
  int total = 0;
  for (const auto& tc : suite.cases) {
    const auto mutated =
        apply_mutation(tc.file.content, tc.file.language,
                       IssueType::kRemovedLastBracketedSection, config, rng);
    ASSERT_TRUE(mutated.has_value());
    frontend::SourceFile file = tc.file;
    file.content = *mutated;
    ++total;
    const auto compiled = driver.compile(file);
    if (!compiled.success || !executor.run(compiled.module).passed()) {
      ++caught;
    }
  }
  EXPECT_GT(caught, total * 8 / 10);
}

TEST(MutationTest, FortranBracketEquivalentRemovesCloser) {
  const auto tc = corpus::generate_one("saxpy_offload", Flavor::kOpenACC,
                                       Language::kFortran, 21);
  support::Rng rng(14);
  const auto mutated =
      apply_mutation(tc.file.content, tc.file.language,
                     IssueType::kRemovedOpeningBracket, {}, rng);
  ASSERT_TRUE(mutated.has_value());
  const auto driver = testutil::clean_driver(Flavor::kOpenACC);
  frontend::SourceFile file = tc.file;
  file.content = *mutated;
  EXPECT_FALSE(driver.compile(file).success);
}

// ---------------------------------------------------------------------------
// Suite probing
// ---------------------------------------------------------------------------

TEST(ProberTest, ExactPerIssueCounts) {
  const auto suite = base_suite(Flavor::kOpenACC, 160);
  ProbingConfig config;
  config.issue_counts = {20, 15, 10, 5, 25, 60};
  config.seed = 1;
  const auto probed = probe_suite(suite, config);
  EXPECT_EQ(probed.size(), 135u);
  std::array<std::size_t, 6> counts = {0, 0, 0, 0, 0, 0};
  for (const auto& file : probed.files) {
    counts[static_cast<std::size_t>(file.issue)] += 1;
  }
  EXPECT_EQ(counts, config.issue_counts);
}

TEST(ProberTest, GroundTruthMapping) {
  const auto suite = base_suite(Flavor::kOpenACC, 40);
  ProbingConfig config;
  config.issue_counts = {5, 5, 5, 5, 5, 10};
  const auto probed = probe_suite(suite, config);
  for (const auto& pf : probed.files) {
    EXPECT_EQ(pf.ground_truth_valid(), pf.issue == IssueType::kNoIssue);
  }
}

TEST(ProberTest, DeterministicForEqualSeeds) {
  const auto suite = base_suite(Flavor::kOpenMP, 60);
  ProbingConfig config;
  config.issue_counts = {8, 8, 8, 8, 8, 16};
  config.seed = 42;
  const auto a = probe_suite(suite, config);
  const auto b = probe_suite(suite, config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.files[i].file.content, b.files[i].file.content);
    EXPECT_EQ(a.files[i].issue, b.files[i].issue);
  }
}

TEST(ProberTest, InsufficientBaseSuiteThrows) {
  const auto suite = base_suite(Flavor::kOpenACC, 10);
  ProbingConfig config;
  config.issue_counts = {10, 10, 10, 10, 10, 10};
  EXPECT_THROW(probe_suite(suite, config), std::invalid_argument);
}

TEST(ProberTest, PaperConfigsMatchPaperTotals) {
  EXPECT_EQ([] {
    std::size_t total = 0;
    for (const auto c : part_one_acc_config().issue_counts) total += c;
    return total;
  }(), 1335u);
  EXPECT_EQ([] {
    std::size_t total = 0;
    for (const auto c : part_one_omp_config().issue_counts) total += c;
    return total;
  }(), 431u);
  EXPECT_EQ([] {
    std::size_t total = 0;
    for (const auto c : part_two_acc_config().issue_counts) total += c;
    return total;
  }(), 1782u);
  EXPECT_EQ([] {
    std::size_t total = 0;
    for (const auto c : part_two_omp_config().issue_counts) total += c;
    return total;
  }(), 296u);
}

TEST(ProberTest, IssueRowLabelsMatchPaperWording) {
  EXPECT_EQ(issue_row_label(IssueType::kRemovedOpeningBracket,
                            Flavor::kOpenACC),
            "Removed an opening bracket");
  EXPECT_EQ(issue_row_label(IssueType::kReplacedWithPlainCode,
                            Flavor::kOpenMP),
            "Replaced file with randomly-generated non-OpenMP code");
  EXPECT_EQ(issue_row_label(IssueType::kRemovedAllocOrSwappedDirective,
                            Flavor::kOpenACC),
            "Removed ACC memory allocation / swapped ACC directive");
}

TEST(ProberTest, IssueNamesAreStable) {
  for (int id = 0; id <= 5; ++id) {
    EXPECT_STRNE(issue_name(static_cast<IssueType>(id)), "?");
  }
}

}  // namespace
}  // namespace llm4vv::probing
