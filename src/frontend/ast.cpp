#include "frontend/ast.hpp"

namespace llm4vv::frontend {

ExprPtr make_int_literal(long value, int line, int column) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kIntLit;
  e->int_value = value;
  e->line = line;
  e->column = column;
  return e;
}

ExprPtr make_ident(std::string name, int line, int column) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kIdent;
  e->text = std::move(name);
  e->line = line;
  e->column = column;
  return e;
}

}  // namespace llm4vv::frontend
