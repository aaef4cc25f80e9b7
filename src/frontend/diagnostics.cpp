#include "frontend/diagnostics.hpp"

namespace llm4vv::frontend {

void DiagnosticEngine::report(Severity severity, DiagCode code, int line,
                              int column, std::string message) {
  diags_.push_back(
      Diagnostic{severity, code, line, column, std::move(message)});
}

void DiagnosticEngine::error(DiagCode code, int line, int column,
                             std::string message) {
  report(Severity::kError, code, line, column, std::move(message));
}

void DiagnosticEngine::warning(DiagCode code, int line, int column,
                               std::string message) {
  report(Severity::kWarning, code, line, column, std::move(message));
}

std::size_t DiagnosticEngine::error_count() const noexcept {
  std::size_t n = 0;
  for (const auto& d : diags_) {
    if (d.severity == Severity::kError) ++n;
  }
  return n;
}

bool DiagnosticEngine::has_code(DiagCode code) const noexcept {
  for (const auto& d : diags_) {
    if (d.code == code) return true;
  }
  return false;
}

}  // namespace llm4vv::frontend
