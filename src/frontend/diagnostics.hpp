#pragma once

#include <string>
#include <vector>

namespace llm4vv::frontend {

/// Diagnostic severity; errors make the compile stage fail.
enum class Severity { kNote, kWarning, kError };

/// Stable machine-readable diagnostic categories. The toolchain's compiler
/// personas key their message formatting off these, and tests assert on them
/// instead of on free-form message text.
enum class DiagCode {
  kUnexpectedToken,       ///< parser: token does not fit the grammar
  kUnterminated,          ///< lexer: unterminated string/char/comment
  kMismatchedBrace,       ///< parser: missing '{' '}' '(' ')' pairing
  kUndeclaredIdentifier,  ///< sema: use of an undeclared identifier
  kRedefinition,          ///< sema: identifier redefined in the same scope
  kNotCallable,           ///< sema: call of a non-function
  kBadArity,              ///< sema: wrong number of call arguments
  kBadDirective,          ///< directive: unknown directive name
  kBadClause,             ///< directive: unknown or inapplicable clause
  kBadClauseArg,          ///< directive: malformed clause argument
  kVersionGate,           ///< directive: feature newer than supported spec
  kMissingMain,           ///< sema: no main function/program entry
  kInvalidBreak,          ///< sema: break/continue outside a loop
  kTypeMismatch,          ///< sema: operation on incompatible type
  kStrictness,            ///< toolchain persona strictness quirk
};

/// One compiler diagnostic with source position (1-based line/column).
struct Diagnostic {
  Severity severity = Severity::kError;
  DiagCode code = DiagCode::kUnexpectedToken;
  int line = 0;
  int column = 0;
  std::string message;
};

/// Collects diagnostics across lexing, parsing, sema, and directive
/// validation for one file. Passed by reference down the front-end; the
/// toolchain driver renders the result in a compiler persona's style.
class DiagnosticEngine {
 public:
  /// Append a diagnostic.
  void report(Severity severity, DiagCode code, int line, int column,
              std::string message);

  /// Convenience: error-severity report.
  void error(DiagCode code, int line, int column, std::string message);

  /// Convenience: warning-severity report.
  void warning(DiagCode code, int line, int column, std::string message);

  /// All diagnostics in report order.
  const std::vector<Diagnostic>& diagnostics() const noexcept {
    return diags_;
  }

  /// Number of error-severity diagnostics.
  std::size_t error_count() const noexcept;

  /// True when at least one error was reported.
  bool has_errors() const noexcept { return error_count() > 0; }

  /// True when any diagnostic carries the given code.
  bool has_code(DiagCode code) const noexcept;

 private:
  std::vector<Diagnostic> diags_;
};

}  // namespace llm4vv::frontend
