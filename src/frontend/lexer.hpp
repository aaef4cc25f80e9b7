#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "frontend/diagnostics.hpp"
#include "frontend/token.hpp"

namespace llm4vv::frontend {

/// Result of lexing one translation unit.
struct LexOutput {
  std::vector<Token> tokens;  ///< ends with a kEof token
  /// Object-like macros collected from `#define NAME value` lines; the lexer
  /// substitutes them into subsequent identifier tokens (one level, which is
  /// all the V&V corpus uses).
  std::map<std::string, std::string> defines;
};

/// Table-driven C/C++ lexer for the V&V test subset: one pass over the
/// bytes, dispatching on a 256-entry character-class table, with the
/// keyword and punctuator tables generated from the lists in token.hpp.
/// tests/lexer_reference.hpp keeps the previous lexer as its oracle.
///
/// Properties that matter to the reproduction:
///  - `#pragma` lines are captured verbatim as single kPragma tokens
///    (with `\` line continuations folded) so negative-probing mutations and
///    the directive validator both see the exact source spelling;
///  - `#include` lines become kHashInclude tokens and are otherwise ignored
///    (the VM's runtime library is implicitly available);
///  - `#define NAME token` object-like macros are substituted; each
///    replacement is lexed once, when it is defined;
///  - unterminated strings/comments produce kUnterminated diagnostics.
LexOutput lex(std::string_view source, DiagnosticEngine& diags);

/// True if `word` is a keyword of the C/C++ subset.
bool is_keyword(std::string_view word) noexcept;

}  // namespace llm4vv::frontend
