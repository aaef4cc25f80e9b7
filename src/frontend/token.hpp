#pragma once

#include <string>
#include <vector>

/// The token vocabulary of the C/C++ V&V subset as higher-order macros:
/// each applies `apply` (itself usually a macro) to every entry. This one
/// list generates the punctuator TokenKinds, their token_kind_name()
/// spellings, and the lexer's keyword and longest-match punctuator tables,
/// so the enum, the names and the scanner cannot drift apart.
///
/// Keywords, as spellings.
#define LLM4VV_FORALL_KEYWORDS(apply)                                      \
  apply("int") apply("long") apply("float") apply("double") apply("char") \
  apply("void") apply("unsigned") apply("signed") apply("short")          \
  apply("bool") apply("if") apply("else") apply("while") apply("for")     \
  apply("do") apply("return") apply("break") apply("continue")            \
  apply("const") apply("static") apply("sizeof") apply("struct")          \
  apply("true") apply("false") apply("switch") apply("case")              \
  apply("default") apply("goto") apply("extern") apply("inline")          \
  apply("restrict") apply("new") apply("delete") apply("auto")

/// Punctuators as (TokenKind enumerator, spelling), in enum order. The
/// lexer takes the longest listed spelling at each position, so `<<=`
/// lexes as `<<` `=` and `&=` as `&` `=`.
#define LLM4VV_FORALL_PUNCTUATORS(apply)                                   \
  apply(kLParen, "(") apply(kRParen, ")") apply(kLBrace, "{")             \
  apply(kRBrace, "}") apply(kLBracket, "[") apply(kRBracket, "]")         \
  apply(kSemicolon, ";") apply(kComma, ",") apply(kColon, ":")            \
  apply(kQuestion, "?")                                                    \
  apply(kPlus, "+") apply(kMinus, "-") apply(kStar, "*")                  \
  apply(kSlash, "/") apply(kPercent, "%")                                 \
  apply(kAmp, "&") apply(kPipe, "|") apply(kCaret, "^") apply(kTilde, "~") \
  apply(kBang, "!")                                                        \
  apply(kLess, "<") apply(kGreater, ">") apply(kLessEq, "<=")             \
  apply(kGreaterEq, ">=") apply(kEqEq, "==") apply(kBangEq, "!=")         \
  apply(kAmpAmp, "&&") apply(kPipePipe, "||")                             \
  apply(kShl, "<<") apply(kShr, ">>")                                     \
  apply(kAssign, "=") apply(kPlusEq, "+=") apply(kMinusEq, "-=")          \
  apply(kStarEq, "*=") apply(kSlashEq, "/=")                              \
  apply(kPlusPlus, "++") apply(kMinusMinus, "--")                         \
  apply(kArrow, "->") apply(kDot, ".")

namespace llm4vv::frontend {

/// Token kinds for the C/C++ V&V subset. Punctuators get individual kinds so
/// the parser can switch on them without string comparisons.
enum class TokenKind {
  kEof,
  kIdentifier,
  kKeyword,
  kIntLiteral,
  kFloatLiteral,
  kStringLiteral,
  kCharLiteral,
  kPragma,       ///< one whole `#pragma ...` line (continuations folded in)
  kHashInclude,  ///< an `#include ...` line (ignored by later phases)
#define LLM4VV_PUNCTUATOR_KIND(kind, spelling) kind,
  LLM4VV_FORALL_PUNCTUATORS(LLM4VV_PUNCTUATOR_KIND)
#undef LLM4VV_PUNCTUATOR_KIND
};

/// One lexed token with its 1-based source position.
struct Token {
  TokenKind kind = TokenKind::kEof;
  std::string text;  ///< raw spelling (pragmas: the full directive line)
  int line = 1;
  int column = 1;

  /// True for an identifier or keyword spelled exactly `s`.
  bool is(const char* s) const { return text == s; }
};

/// Name of a token kind for diagnostics ("identifier", "'{'", ...).
const char* token_kind_name(TokenKind kind) noexcept;

}  // namespace llm4vv::frontend
