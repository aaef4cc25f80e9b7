#pragma once

#include <optional>
#include <string>

#include "frontend/source.hpp"
#include "support/rng.hpp"

namespace llm4vv::probing {

/// The paper's negative-probing issue taxonomy (Section III-A). IDs match
/// the paper's numbering; kNoIssue (5) marks unchanged files.
enum class IssueType {
  kRemovedAllocOrSwappedDirective = 0,
  kRemovedOpeningBracket = 1,
  kUndeclaredVariable = 2,
  kReplacedWithPlainCode = 3,
  kRemovedLastBracketedSection = 4,
  kNoIssue = 5,
};

/// Long row labels as printed in Tables I/II/IV/V/VII/VIII.
std::string issue_row_label(IssueType issue, frontend::Flavor flavor);

/// Per-issue mutation knobs. The paper under-specifies its mutation scripts;
/// these parameters make our reading explicit and calibratable (DESIGN.md
/// §5, §8).
struct MutationConfig {
  /// Issue 0 splits into two arms: with probability `swap_directive_share`
  /// a directive keyword is misspelled (caught at compile time); otherwise
  /// an allocation statement is deleted (caught at run time).
  double swap_directive_share = 0.5;
  /// Issue 4: probability that the removed block is the *tail of the last
  /// function* (taking its return statement with it — the structure of
  /// SOLLVE-style OpenMP tests makes this the common case) rather than the
  /// last self-contained inner block (the OpenACC single-main structure).
  double issue4_function_tail_share = 0.15;
};

/// Apply `issue` to `source`. Returns std::nullopt when the mutation has no
/// applicable site (e.g. no allocation to remove) — callers then pick a
/// different file or issue. kNoIssue returns the source unchanged.
std::optional<std::string> apply_mutation(const std::string& source,
                                          frontend::Language language,
                                          IssueType issue,
                                          const MutationConfig& config,
                                          support::Rng& rng);

}  // namespace llm4vv::probing
