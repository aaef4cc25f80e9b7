#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace llm4vv::support {

/// Plain-text table renderer used by every bench binary to print the paper's
/// tables (Tables I-IX) side by side with measured values.
///
/// Usage:
///   TextTable t({"Issue", "Count", "Accuracy"});
///   t.add_row({"Removed bracket", "125", "12%"});
///   std::cout << t.render();
class TextTable {
 public:
  /// Create a table with the given header row.
  explicit TextTable(std::vector<std::string> header);

  /// Append a data row; must have the same number of cells as the header.
  void add_row(std::vector<std::string> row);

  /// Render with unicode-free ASCII box drawing: the first column
  /// left-aligned, the rest right-aligned.
  std::string render() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Render a one-line section banner, e.g. "== Table I: ... ==".
std::string banner(const std::string& title);

}  // namespace llm4vv::support
