#pragma once

#include <array>
#include <cstdint>

#include "corpus/testcase.hpp"
#include "probing/mutation.hpp"

namespace llm4vv::probing {

/// One file of a negative-probing benchmark with its ground truth.
struct ProbedFile {
  frontend::SourceFile file;  ///< content after (possible) mutation
  IssueType issue = IssueType::kNoIssue;
  std::string template_name;  ///< provenance (empty for issue-3 files)

  /// The paper's system-of-verification: issues 0-4 are invalid, 5 valid.
  bool ground_truth_valid() const noexcept {
    return issue == IssueType::kNoIssue;
  }
};

/// A probed benchmark suite.
struct ProbedSuite {
  frontend::Flavor flavor = frontend::Flavor::kOpenACC;
  std::vector<ProbedFile> files;

  std::size_t size() const noexcept { return files.size(); }
};

/// Probing parameters: how many files to produce per issue ID (index 0-5)
/// plus the mutation knobs.
struct ProbingConfig {
  std::array<std::size_t, 6> issue_counts = {0, 0, 0, 0, 0, 0};
  MutationConfig mutation;
  std::uint64_t seed = 0x9e6a71e5ULL;
};

/// Turn a suite of *valid* tests into a negative-probing benchmark matching
/// `config.issue_counts` exactly. The base suite must hold at least the
/// total count; files are drawn in shuffled order, mirroring the paper's
/// "split the manually-written test files randomly" protocol. If a mutation
/// has no applicable site in a drawn file, another file is drawn for it
/// (deterministically), so the requested counts always come out exact.
ProbedSuite probe_suite(const corpus::Suite& base,
                        const ProbingConfig& config);

/// Convenience: the paper's per-issue counts for each experiment.
ProbingConfig part_one_acc_config();   ///< Table I   (1335 files)
ProbingConfig part_one_omp_config();   ///< Table II  (431 files)
ProbingConfig part_two_acc_config();   ///< Tables IV/VII (1782 files)
ProbingConfig part_two_omp_config();   ///< Tables V/VIII (296 files)

}  // namespace llm4vv::probing
