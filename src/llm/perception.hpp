#pragma once

#include <string>

#include "frontend/source.hpp"
#include "llm/model.hpp"

namespace llm4vv::llm {

/// What the simulated judge extracts from a prompt. Everything here is
/// derived from the prompt text alone — the model never sees ground truth.
/// The code-evidence flags come from running a real lexer / parser / sema /
/// directive-validation pass over the code block embedded in the prompt
/// (the machine analogue of the LLM "reading" the code); the profile then
/// decides how reliably each piece of evidence is acted upon.
struct PromptPerception {
  PromptStyle style = PromptStyle::kDirectAnalysis;
  frontend::Flavor flavor = frontend::Flavor::kOpenACC;
  std::string code;

  // Tool outputs quoted in agent prompts.
  bool has_tool_info = false;
  int compiler_rc = 0;
  int program_rc = 0;

  // Code-level evidence.
  bool no_directives = false;       ///< not a directive test at all
  bool misspelled_directive = false;
  bool brace_imbalance = false;     ///< structural parse break
  bool undeclared_identifier = false;
  bool uninit_pointer = false;      ///< pointer/allocatable never allocated
  bool missing_return = false;      ///< value fn with no return statement
  bool logic_mismatch = false;      ///< verify/report structure looks cut

  bool any_code_evidence() const noexcept {
    return misspelled_directive || brace_imbalance ||
           undeclared_identifier || uninit_pointer || missing_return ||
           logic_mismatch;
  }
};

/// Parse a judge prompt (any of the Listings 1-4 shapes built by
/// judge/prompt.cpp) into a PromptPerception: parse_prompt() followed by
/// analyze_code() on the embedded code.
PromptPerception perceive(const std::string& prompt);

/// Everything perceive() reads off the prompt text itself (style, flavor,
/// quoted tool outputs, the embedded code), with the code-evidence flags
/// left unset. The simulated model pairs this with a memo of
/// analyze_code()'s flags, which depend only on (code, flavor).
PromptPerception parse_prompt(const std::string& prompt);

/// Evidence extraction on a bare code string (exposed for unit tests).
void analyze_code(const std::string& code, frontend::Flavor flavor,
                  PromptPerception& out);

}  // namespace llm4vv::llm
