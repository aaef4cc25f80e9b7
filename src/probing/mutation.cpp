#include "probing/mutation.hpp"

#include <cctype>
#include <map>
#include <set>

#include "corpus/templates.hpp"
#include "support/strings.hpp"

namespace llm4vv::probing {

namespace {

using frontend::Flavor;
using frontend::Language;
using support::Rng;

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Misspell a word: drop, double, or transpose one interior letter.
std::string mangle_word(const std::string& word, Rng& rng) {
  if (word.size() < 3) return word + word;
  std::string out = word;
  const std::size_t i =
      1 + static_cast<std::size_t>(rng.next_below(word.size() - 2));
  switch (rng.next_below(3)) {
    case 0: out.erase(i, 1); break;                       // drop
    case 1: out.insert(i, 1, out[i]); break;              // double
    default: std::swap(out[i], out[i + 1]); break;        // transpose
  }
  return out == word ? word.substr(0, word.size() - 1) : out;
}

/// --- Issue 0a: swap a directive for a misspelled one ----------------------

std::optional<std::string> swap_directive(const std::string& source,
                                          Rng& rng) {
  auto lines = support::split_lines(source);
  std::vector<std::size_t> pragma_lines;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto trimmed = support::trim(lines[i]);
    if (support::starts_with(trimmed, "#pragma acc") ||
        support::starts_with(trimmed, "#pragma omp") ||
        support::starts_with(trimmed, "!$acc") ||
        support::starts_with(trimmed, "!$omp")) {
      pragma_lines.push_back(i);
    }
  }
  if (pragma_lines.empty()) return std::nullopt;
  const std::size_t target = pragma_lines[static_cast<std::size_t>(
      rng.next_below(pragma_lines.size()))];
  std::string& line = lines[target];

  // The word right after the sentinel is the directive head; misspell it.
  const std::string sentinels[] = {"#pragma acc", "#pragma omp", "!$acc",
                                   "!$omp"};
  for (const auto& sentinel : sentinels) {
    const auto at = line.find(sentinel);
    if (at == std::string::npos) continue;
    std::size_t i = at + sentinel.size();
    while (i < line.size() && line[i] == ' ') ++i;
    std::size_t end = i;
    while (end < line.size() && ident_char(line[end])) ++end;
    if (end == i) return std::nullopt;
    const std::string head = line.substr(i, end - i);
    line = line.substr(0, i) + mangle_word(head, rng) + line.substr(end);
    std::string out = support::join(lines, "\n");
    out.push_back('\n');
    return out;
  }
  return std::nullopt;
}

/// --- Issue 0b: remove an allocation statement ------------------------------

std::optional<std::string> remove_allocation(const std::string& source,
                                             Language language, Rng& rng) {
  auto lines = support::split_lines(source);
  std::vector<std::size_t> alloc_lines;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto trimmed = support::trim(lines[i]);
    const bool is_alloc =
        language == Language::kFortran
            ? support::starts_with(trimmed, "allocate(")
            : (support::contains(trimmed, "= (double *)malloc") ||
               support::contains(trimmed, "= (long *)malloc") ||
               support::contains(trimmed, "= (int *)malloc") ||
               support::contains(trimmed, "= (float *)malloc") ||
               support::contains(trimmed, "= malloc("));
    if (is_alloc) alloc_lines.push_back(i);
  }
  if (alloc_lines.empty()) return std::nullopt;
  const std::size_t target = alloc_lines[static_cast<std::size_t>(
      rng.next_below(alloc_lines.size()))];
  lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(target));
  std::string out = support::join(lines, "\n");
  out.push_back('\n');
  return out;
}

/// --- Issue 1: remove an opening bracket ------------------------------------

std::optional<std::string> remove_opening_bracket(const std::string& source,
                                                  Language language,
                                                  Rng& rng) {
  if (language == Language::kFortran) {
    // Fortran has no braces; the structural equivalent is deleting a block
    // closer, which unbalances the construct nesting the same way.
    auto lines = support::split_lines(source);
    std::vector<std::size_t> closers;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const auto trimmed = support::trim(lines[i]);
      if (trimmed == "end do" || trimmed == "end if" || trimmed == "enddo" ||
          trimmed == "endif") {
        closers.push_back(i);
      }
    }
    if (closers.empty()) return std::nullopt;
    const std::size_t target = closers[static_cast<std::size_t>(
        rng.next_below(closers.size()))];
    lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(target));
    std::string out = support::join(lines, "\n");
    out.push_back('\n');
    return out;
  }
  std::vector<std::size_t> opens;
  for (std::size_t i = 0; i < source.size(); ++i) {
    if (source[i] == '{') opens.push_back(i);
  }
  if (opens.empty()) return std::nullopt;
  const std::size_t target =
      opens[static_cast<std::size_t>(rng.next_below(opens.size()))];
  std::string out = source;
  out.erase(target, 1);
  return out;
}

/// --- Issue 2: introduce a use of an undeclared variable --------------------

const std::set<std::string>& skip_words() {
  static const std::set<std::string> words = {
      // keywords & common type names
      "int", "long", "float", "double", "char", "void", "bool", "unsigned",
      "signed", "short", "if", "else", "while", "for", "do", "return",
      "break", "continue", "const", "static", "sizeof", "struct", "true",
      "false", "include", "define", "pragma", "acc", "omp", "main",
      // fortran structure words
      "program", "end", "implicit", "none", "integer", "real", "logical",
      "parameter", "allocatable", "allocate", "deallocate", "then", "call",
      "print", "stop", "exit", "cycle", "and", "or", "not",
  };
  return words;
}

struct WordSite {
  std::size_t pos;
  std::size_t len;
  std::string word;
};

std::optional<std::string> use_undeclared_variable(const std::string& source,
                                                   Rng& rng) {
  // Collect identifier occurrences outside of directive lines.
  std::vector<WordSite> sites;
  std::map<std::string, int> occurrence_count;
  bool in_line_comment = false;
  bool in_string = false;
  bool in_pragma = false;
  for (std::size_t i = 0; i < source.size(); ++i) {
    const char c = source[i];
    if (c == '\n') {
      in_line_comment = false;
      in_string = false;
      in_pragma = false;
      continue;
    }
    if (in_line_comment || in_pragma) continue;
    if (c == '"') {
      in_string = !in_string;
      continue;
    }
    if (in_string) continue;
    if (c == '/' && i + 1 < source.size() && source[i + 1] == '/') {
      in_line_comment = true;
      continue;
    }
    if (c == '!') {
      // Fortran comment / directive line.
      in_line_comment = true;
      continue;
    }
    if (c == '#') {
      in_pragma = true;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t end = i;
      while (end < source.size() && ident_char(source[end])) ++end;
      const std::string word = source.substr(i, end - i);
      // Skip calls (next non-space char is '('): the paper's mutation
      // targets variables, and call sites produce a different diagnostic.
      std::size_t next = end;
      while (next < source.size() && source[next] == ' ') ++next;
      const bool is_call = next < source.size() && source[next] == '(';
      if (!skip_words().count(support::to_lower(word)) && !is_call &&
          word.size() <= 12) {
        ++occurrence_count[word];
        if (occurrence_count[word] >= 2) {
          // A repeat occurrence: very likely a *use*, not the declaration.
          sites.push_back(WordSite{i, end - i, word});
        }
      }
      i = end - 1;
    }
  }
  if (sites.empty()) return std::nullopt;
  const WordSite& site =
      sites[static_cast<std::size_t>(rng.next_below(sites.size()))];
  const std::string fresh =
      "undeclared_" + std::to_string(rng.next_in(100, 999));
  std::string out = source;
  out.replace(site.pos, site.len, fresh);
  return out;
}

/// --- Issue 4: remove the last bracketed section ----------------------------

struct BracePair {
  std::size_t open;
  std::size_t close;
  int depth;  ///< 1 = function body, 2+ = inner blocks
};

std::vector<BracePair> find_brace_pairs(const std::string& source) {
  std::vector<BracePair> pairs;
  std::vector<std::size_t> stack;
  bool in_string = false;
  bool in_comment = false;
  for (std::size_t i = 0; i < source.size(); ++i) {
    const char c = source[i];
    if (c == '\n') {
      in_comment = false;
      in_string = false;
      continue;
    }
    if (in_comment) continue;
    if (c == '"') in_string = !in_string;
    if (in_string) continue;
    if (c == '/' && i + 1 < source.size() && source[i + 1] == '/') {
      in_comment = true;
      continue;
    }
    if (c == '{') stack.push_back(i);
    if (c == '}' && !stack.empty()) {
      pairs.push_back(
          BracePair{stack.back(), i, static_cast<int>(stack.size())});
      stack.pop_back();
    }
  }
  return pairs;
}

/// Walks backward from a '{' to the start of the statement introducing it
/// (the `for (...)` / `if (...)` / `else` / `while (...)` header).
std::size_t statement_start(const std::string& source, std::size_t open) {
  std::size_t i = open;
  const auto skip_space_back = [&] {
    while (i > 0 && std::isspace(static_cast<unsigned char>(source[i - 1]))) {
      --i;
    }
  };
  skip_space_back();
  if (i >= 4 && source.compare(i - 4, 4, "else") == 0) {
    return i - 4;
  }
  if (i > 0 && source[i - 1] == ')') {
    int depth = 0;
    while (i > 0) {
      --i;
      if (source[i] == ')') ++depth;
      if (source[i] == '(') {
        --depth;
        if (depth == 0) break;
      }
    }
    skip_space_back();
    std::size_t word_end = i;
    while (i > 0 && ident_char(source[i - 1])) --i;
    const std::string keyword = source.substr(i, word_end - i);
    if (keyword == "for" || keyword == "if" || keyword == "while" ||
        keyword == "switch") {
      // `else if (...)` pulls the else in too.
      std::size_t j = i;
      while (j > 0 &&
             std::isspace(static_cast<unsigned char>(source[j - 1]))) {
        --j;
      }
      if (j >= 4 && source.compare(j - 4, 4, "else") == 0) return j - 4;
      return i;
    }
    return open;
  }
  return open;
}

std::optional<std::string> remove_last_block_fortran(
    const std::string& source) {
  // Remove the final block if-construct (the PASS/FAIL report block).
  auto lines = support::split_lines(source);
  int end_if_line = -1;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto t = support::trim(lines[i]);
    if (t == "end if" || t == "endif") end_if_line = static_cast<int>(i);
  }
  if (end_if_line < 0) return std::nullopt;
  int if_line = -1;
  int depth = 0;
  for (int i = end_if_line - 1; i >= 0; --i) {
    const auto t = support::trim(lines[static_cast<std::size_t>(i)]);
    if (t == "end if" || t == "endif") ++depth;
    if (support::starts_with(t, "if ") && support::ends_with(t, "then")) {
      if (depth == 0) {
        if_line = i;
        break;
      }
      --depth;
    }
  }
  if (if_line < 0) return std::nullopt;
  lines.erase(lines.begin() + if_line, lines.begin() + end_if_line + 1);
  std::string out = support::join(lines, "\n");
  out.push_back('\n');
  return out;
}

std::optional<std::string> remove_last_block(const std::string& source,
                                             Language language,
                                             const MutationConfig& config,
                                             Rng& rng) {
  if (language == Language::kFortran) {
    return remove_last_block_fortran(source);
  }
  const auto pairs = find_brace_pairs(source);
  const BracePair* last_inner = nullptr;
  for (const auto& pair : pairs) {
    if (pair.depth >= 2 &&
        (last_inner == nullptr || pair.open > last_inner->open)) {
      last_inner = &pair;
    }
  }
  if (last_inner == nullptr) return std::nullopt;

  if (rng.chance(config.issue4_function_tail_share)) {
    // "Function tail" reading: the removal greedily extends from the first
    // function's last inner block to the end of that function's body (the
    // shape SOLLVE-style files induce). Target the first function body.
    const BracePair* first_fn = nullptr;
    for (const auto& pair : pairs) {
      if (pair.depth == 1 &&
          (first_fn == nullptr || pair.open < first_fn->open)) {
        first_fn = &pair;
      }
    }
    if (first_fn != nullptr) {
      // Only direct children of the function body qualify: removing one of
      // those through the end of the body keeps braces balanced while
      // dropping every trailing statement (including the return).
      const BracePair* tail_block = nullptr;
      for (const auto& pair : pairs) {
        if (pair.depth == 2 && pair.open > first_fn->open &&
            pair.close < first_fn->close &&
            (tail_block == nullptr || pair.open > tail_block->open)) {
          tail_block = &pair;
        }
      }
      if (tail_block != nullptr) {
        const std::size_t start = statement_start(source, tail_block->open);
        std::string out = source.substr(0, start);
        out += source.substr(first_fn->close);  // keep the fn's closing '}'
        return out;
      }
    }
    // No inner block in the first function: fall through to the inner-
    // trailing reading below.
  }

  // "Inner trailing" reading: delete the last self-contained inner block
  // together with its header; braces stay balanced and the file usually
  // still compiles and passes (the paper's hardest category).
  const std::size_t start = statement_start(source, last_inner->open);
  std::string out = source.substr(0, start);
  out += source.substr(last_inner->close + 1);
  return out;
}

}  // namespace

std::string issue_row_label(IssueType issue, frontend::Flavor flavor) {
  const std::string model =
      flavor == frontend::Flavor::kOpenACC ? "ACC" : "OMP";
  const std::string full =
      flavor == frontend::Flavor::kOpenACC ? "OpenACC" : "OpenMP";
  switch (issue) {
    case IssueType::kRemovedAllocOrSwappedDirective:
      return "Removed " + model + " memory allocation / swapped " + model +
             " directive";
    case IssueType::kRemovedOpeningBracket:
      return "Removed an opening bracket";
    case IssueType::kUndeclaredVariable:
      return "Added use of undeclared variable";
    case IssueType::kReplacedWithPlainCode:
      return "Replaced file with randomly-generated non-" + full + " code";
    case IssueType::kRemovedLastBracketedSection:
      return "Removed last bracketed section of code";
    case IssueType::kNoIssue:
      return "No issue";
  }
  return "?";
}

std::optional<std::string> apply_mutation(const std::string& source,
                                          Language language, IssueType issue,
                                          const MutationConfig& config,
                                          Rng& rng) {
  switch (issue) {
    case IssueType::kRemovedAllocOrSwappedDirective:
      if (rng.chance(config.swap_directive_share)) {
        if (auto out = swap_directive(source, rng)) return out;
        return remove_allocation(source, language, rng);
      }
      if (auto out = remove_allocation(source, language, rng)) return out;
      return swap_directive(source, rng);
    case IssueType::kRemovedOpeningBracket:
      return remove_opening_bracket(source, language, rng);
    case IssueType::kUndeclaredVariable:
      return use_undeclared_variable(source, rng);
    case IssueType::kReplacedWithPlainCode:
      return corpus::generate_plain_code(rng);
    case IssueType::kRemovedLastBracketedSection:
      return remove_last_block(source, language, config, rng);
    case IssueType::kNoIssue:
      return source;
  }
  return std::nullopt;
}

}  // namespace llm4vv::probing
