#include "llm/perception.hpp"

#include <cctype>

#include "directive/validator.hpp"
#include "frontend/fortran.hpp"
#include "frontend/lexer.hpp"
#include "frontend/parser.hpp"
#include "frontend/sema.hpp"
#include "support/strings.hpp"

namespace llm4vv::llm {

namespace {

using frontend::DiagCode;
using frontend::Flavor;

int parse_rc_after(const std::string& prompt, const std::string& marker) {
  const auto at = prompt.find(marker);
  if (at == std::string::npos) return 0;
  std::size_t i = at + marker.size();
  while (i < prompt.size() && (prompt[i] == ' ' || prompt[i] == ':')) ++i;
  bool negative = false;
  if (i < prompt.size() && prompt[i] == '-') {
    negative = true;
    ++i;
  }
  int value = 0;
  while (i < prompt.size() &&
         std::isdigit(static_cast<unsigned char>(prompt[i]))) {
    value = value * 10 + (prompt[i] - '0');
    ++i;
  }
  return negative ? -value : value;
}

bool looks_like_fortran(const std::string& code) {
  return support::contains(code, "implicit none") ||
         support::contains(code, "end program") ||
         support::starts_with(support::trim(code), "program ") ||
         support::starts_with(support::trim(code), "! ");
}

/// Pointer declarations that are never assigned anywhere in the file: the
/// textual shadow of a deleted allocation.
bool find_uninit_pointer(const std::string& code, bool fortran) {
  const auto lines = support::split_lines(code);
  if (fortran) {
    // allocatable arrays with no matching allocate().
    for (const auto& line : lines) {
      const auto trimmed = support::trim(line);
      if (!support::contains(trimmed, "allocatable")) continue;
      const auto names_at = trimmed.find("::");
      if (names_at == std::string::npos) continue;
      for (auto name : support::split(std::string(
               trimmed.substr(names_at + 2)), ',')) {
        std::string bare(support::trim(name));
        const auto paren = bare.find('(');
        if (paren != std::string::npos) bare = bare.substr(0, paren);
        if (bare.empty()) continue;
        if (!support::contains(code, "allocate(" + bare)) return true;
      }
    }
    return false;
  }
  for (const auto& line : lines) {
    const auto trimmed = support::trim(line);
    // Pointer declaration without an initializer: "double *name;".
    if (trimmed.find('*') == std::string::npos) continue;
    if (support::contains(trimmed, "=")) continue;
    if (!support::ends_with(trimmed, ";")) continue;
    const auto star = trimmed.rfind('*');
    std::string name(
        support::trim(trimmed.substr(star + 1,
                                     trimmed.size() - star - 2)));
    if (name.empty() ||
        !std::isalpha(static_cast<unsigned char>(name[0]))) {
      continue;
    }
    if (!support::contains(code, name + " =") &&
        !support::contains(code, name + "=")) {
      return true;
    }
  }
  return false;
}

bool has_return_somewhere(const frontend::Stmt* stmt) {
  if (stmt == nullptr) return false;
  if (stmt->kind == frontend::StmtKind::kReturn) return true;
  for (const auto& child : stmt->body) {
    if (has_return_somewhere(child.get())) return true;
  }
  return has_return_somewhere(stmt->then_branch.get()) ||
         has_return_somewhere(stmt->else_branch.get()) ||
         has_return_somewhere(stmt->init_stmt.get());
}

}  // namespace

void analyze_code(const std::string& code, Flavor flavor,
                  PromptPerception& out) {
  const bool fortran = looks_like_fortran(code);

  const bool has_any_directive =
      support::contains(code, "#pragma acc") ||
      support::contains(code, "#pragma omp") ||
      support::contains(code, "!$acc") || support::contains(code, "!$omp");
  out.no_directives = !has_any_directive;
  if (out.no_directives) return;  // nothing else matters for the verdict

  frontend::DiagnosticEngine diags;
  frontend::ParserOptions popts;
  popts.pragma_takes_statement = directive::pragma_takes_statement;
  frontend::Program program;
  if (fortran) {
    program = frontend::parse_fortran(code, diags, popts);
  } else {
    const auto lexed = frontend::lex(code, diags);
    program = frontend::parse(lexed.tokens, diags, popts);
  }
  const bool parse_broken = diags.has_errors();
  if (!parse_broken) {
    frontend::analyze(program, diags);
    directive::ValidatorOptions vopts;
    vopts.flavor = flavor;
    vopts.supported_version = 99;  // the judge reads specs, not a compiler
    directive::validate_program(program, vopts, diags);
  }

  for (const auto& diag : diags.diagnostics()) {
    if (diag.severity != frontend::Severity::kError) continue;
    switch (diag.code) {
      case DiagCode::kMismatchedBrace:
      case DiagCode::kUnexpectedToken:
      case DiagCode::kUnterminated:
        out.brace_imbalance = true;
        break;
      case DiagCode::kUndeclaredIdentifier:
        out.undeclared_identifier = true;
        break;
      case DiagCode::kBadDirective:
      case DiagCode::kBadClause:
        out.misspelled_directive = true;
        break;
      default:
        break;
    }
  }

  out.uninit_pointer = find_uninit_pointer(code, fortran);

  if (!parse_broken) {
    for (std::size_t i = 0; i < program.functions.size(); ++i) {
      const auto& fn = program.functions[i];
      if (fn.name == "main") continue;
      if (fn.return_type.base == frontend::BaseType::kVoid) continue;
      if (!has_return_somewhere(fn.body.get())) {
        out.missing_return = true;
        break;
      }
    }
  }

  // Report/verify structure: V&V tests print both outcomes; a file missing
  // either looks truncated.
  const bool has_fail = support::icontains(code, "FAILED");
  const bool has_pass = support::icontains(code, "PASSED");
  out.logic_mismatch = !(has_fail && has_pass);
}

PromptPerception perceive(const std::string& prompt) {
  PromptPerception out = parse_prompt(prompt);
  analyze_code(out.code, out.flavor, out);
  return out;
}

PromptPerception parse_prompt(const std::string& prompt) {
  PromptPerception out;

  if (support::contains(prompt, "Describe what the below")) {
    out.style = PromptStyle::kAgentIndirect;
  } else if (support::contains(prompt, "Compiler return code")) {
    out.style = PromptStyle::kAgentDirect;
  } else {
    out.style = PromptStyle::kDirectAnalysis;
  }

  const auto acc_at = prompt.find("OpenACC");
  const auto omp_at = prompt.find("OpenMP");
  if (acc_at == std::string::npos) {
    out.flavor = Flavor::kOpenMP;
  } else if (omp_at == std::string::npos) {
    out.flavor = Flavor::kOpenACC;
  } else {
    out.flavor = acc_at < omp_at ? Flavor::kOpenACC : Flavor::kOpenMP;
  }

  if (out.style != PromptStyle::kDirectAnalysis) {
    out.has_tool_info =
        support::contains(prompt, "Compiler return code");
    out.compiler_rc = parse_rc_after(prompt, "Compiler return code:");
    out.program_rc = parse_rc_after(prompt, "\nReturn code:");
  }

  // The code block follows the "Here is the code" marker in all prompt
  // shapes (Listings 2-4).
  const auto marker = prompt.find("Here is the code");
  if (marker != std::string::npos) {
    const auto colon = prompt.find(':', marker);
    if (colon != std::string::npos) {
      out.code = prompt.substr(colon + 1);
      while (!out.code.empty() &&
             (out.code.front() == '\n' || out.code.front() == ' ')) {
        out.code.erase(0, 1);
      }
    }
  } else {
    out.code = prompt;  // degenerate prompt: treat everything as code
  }
  return out;
}

}  // namespace llm4vv::llm
