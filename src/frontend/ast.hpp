#pragma once

#include <memory>
#include <string>
#include <vector>

namespace llm4vv::frontend {

/// Scalar base types of the V&V subset. `long`/`int`/`char`/`bool` all map
/// to a 64-bit integer at run time; `float`/`double` map to binary64.
enum class BaseType { kVoid, kInt, kLong, kChar, kBool, kFloat, kDouble };

/// A (base, pointer-depth, optional array extent) type. The subset has no
/// structs or multi-dimensional arrays: V&V tests overwhelmingly use flat
/// scalar/array/pointer data, and linearize 2-D work manually.
struct Type {
  BaseType base = BaseType::kInt;
  int pointer_depth = 0;  ///< e.g. `int*` -> 1, `int**` -> 2
  bool is_array = false;  ///< declared as `T name[extent]`
  /// Array extent expression is kept in the declaration (not here) because
  /// extents may reference macros/consts; after sema this holds the folded
  /// constant extent (0 when not an array or not foldable).
  long array_extent = 0;

  bool is_pointer() const noexcept { return pointer_depth > 0; }
  bool is_float() const noexcept {
    return !is_pointer() &&
           (base == BaseType::kFloat || base == BaseType::kDouble);
  }
};

// --------------------------------------------------------------------------
// Expressions
// --------------------------------------------------------------------------

enum class ExprKind {
  kIntLit, kFloatLit, kStringLit, kCharLit,
  kIdent,
  kUnary,     ///< op in {-, !, ~, *, &, ++pre, --pre}
  kPostfix,   ///< op in {++, --}
  kBinary,
  kAssign,    ///< op in {=, +=, -=, *=, /=}
  kTernary,
  kCall,
  kIndex,
  kCast,
  kSizeof,
};

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// One expression node. A single struct with a kind tag keeps lowering and
/// printing simple; unused fields stay empty.
struct Expr {
  ExprKind kind = ExprKind::kIntLit;
  int line = 0;
  int column = 0;

  long int_value = 0;         ///< kIntLit / kCharLit
  double float_value = 0.0;   ///< kFloatLit
  std::string text;           ///< kStringLit text, kIdent name, op spelling,
                              ///< kCall callee name
  Type cast_type;             ///< kCast target, kSizeof operand type

  ExprPtr lhs;                ///< unary/binary/assign/index/ternary-cond/cast
  ExprPtr rhs;                ///< binary/assign/index/ternary-then
  ExprPtr third;              ///< ternary-else
  std::vector<ExprPtr> args;  ///< kCall arguments

  /// Filled by sema for kIdent: index into the enclosing Program's symbol
  /// table (-1 when unresolved).
  int symbol_id = -1;
};

// --------------------------------------------------------------------------
// Statements
// --------------------------------------------------------------------------

enum class StmtKind {
  kDecl,
  kExpr,
  kCompound,
  kIf,
  kWhile,
  kDoWhile,
  kFor,
  kReturn,
  kBreak,
  kContinue,
  kPragma,  ///< a directive, optionally owning the statement it applies to
  kEmpty,
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

/// One variable declarator within a declaration statement.
struct Declarator {
  std::string name;
  Type type;
  ExprPtr array_extent;  ///< null unless declared `T name[expr]`
  ExprPtr init;          ///< null when uninitialized
  int symbol_id = -1;    ///< filled by sema
  int line = 0;
  int column = 0;
};

/// One statement node (kind-tagged like Expr).
struct Stmt {
  StmtKind kind = StmtKind::kEmpty;
  int line = 0;
  int column = 0;

  std::vector<Declarator> decls;   ///< kDecl
  ExprPtr expr;                    ///< kExpr / kReturn value / condition
  std::vector<StmtPtr> body;       ///< kCompound children
  StmtPtr then_branch;             ///< kIf then / loop body / pragma target
  StmtPtr else_branch;             ///< kIf else
  StmtPtr init_stmt;               ///< kFor init (decl or expr stmt)
  ExprPtr step_expr;               ///< kFor increment

  std::string pragma_text;         ///< kPragma: the raw "#pragma ..." line
};

// --------------------------------------------------------------------------
// Top level
// --------------------------------------------------------------------------

/// One function parameter.
struct Param {
  std::string name;
  Type type;
  int symbol_id = -1;
};

/// A function definition (the subset has no separate prototypes; forward
/// calls resolve in a pre-pass).
struct FunctionDecl {
  std::string name;
  Type return_type;
  std::vector<Param> params;
  StmtPtr body;  ///< always a kCompound
  int line = 0;
  int column = 0;
};

/// Symbol classes tracked by sema.
enum class SymbolKind { kGlobal, kLocal, kParam, kFunction, kBuiltin };

/// One entry of the program-wide symbol table built by sema.
struct Symbol {
  SymbolKind kind = SymbolKind::kLocal;
  std::string name;
  Type type;
  int function_index = -1;  ///< kFunction: index into Program::functions
};

/// A parsed translation unit plus (after sema) its symbol table.
struct Program {
  std::vector<Declarator> globals;
  std::vector<FunctionDecl> functions;
  /// Pragmas appearing at file scope (e.g. `#pragma acc routine`).
  std::vector<StmtPtr> top_level_pragmas;
  std::vector<Symbol> symbols;  ///< filled by sema
  int main_index = -1;          ///< index of `main` in functions, -1 if none

  /// All pragma statements in source order (non-owning pointers into the
  /// function bodies / top_level_pragmas above), collected by the parser for
  /// the directive validator and the judge's perception layer.
  std::vector<const Stmt*> pragmas;
};

/// Construct helpers used by the parser and by tests building ASTs by hand.
ExprPtr make_int_literal(long value, int line = 0, int column = 0);
ExprPtr make_ident(std::string name, int line = 0, int column = 0);

}  // namespace llm4vv::frontend
