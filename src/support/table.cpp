#include "support/table.hpp"

#include <algorithm>
#include <stdexcept>

namespace llm4vv::support {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  if (header_.empty()) {
    throw std::invalid_argument("TextTable: header must be non-empty");
  }
}

void TextTable::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    throw std::invalid_argument("TextTable: row width mismatch");
  }
  rows_.push_back(std::move(row));
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  const auto rule_line = [&] {
    std::string line = "+";
    for (const auto w : widths) {
      line.append(w + 2, '-');
      line.push_back('+');
    }
    line.push_back('\n');
    return line;
  }();

  const auto render_cells = [&](const std::vector<std::string>& cells) {
    std::string line = "|";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const std::size_t pad = widths[c] - cells[c].size();
      line.push_back(' ');
      if (c > 0) line.append(pad, ' ');
      line.append(cells[c]);
      if (c == 0) line.append(pad, ' ');
      line.append(" |");
    }
    line.push_back('\n');
    return line;
  };

  std::string out = rule_line;
  out += render_cells(header_);
  out += rule_line;
  for (const auto& row : rows_) out += render_cells(row);
  out += rule_line;
  return out;
}

std::string banner(const std::string& title) {
  std::string out = "\n== " + title + " ==\n";
  return out;
}

}  // namespace llm4vv::support
