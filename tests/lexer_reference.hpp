// The lexer `frontend::lex` replaced, kept as the oracle its table-driven
// successor is diffed against (tests/lexer_test.cpp), the way
// `Tokenizer::encode_reference` pins the trie tokenizer and the reference
// switch pins the VM's table core. The code is the old src/frontend/lexer.cpp
// verbatim, with one fix: hex digits are accepted only after a `0x`/`0X`
// prefix (it took any literal starting with `0` for hex, so `0.5e-3` split
// into `0.5e` `-` `3`). Do not optimize it: being obviously the old
// behaviour is its job.
#pragma once

#include <array>
#include <cctype>
#include <string>
#include <string_view>

#include "frontend/lexer.hpp"
#include "support/strings.hpp"

namespace llm4vv::frontend::reference {

namespace {

constexpr std::array kKeywords = {
    "int",      "long",   "float",    "double", "char",   "void",
    "unsigned", "signed", "short",    "bool",   "if",     "else",
    "while",    "for",    "do",       "return", "break",  "continue",
    "const",    "static", "sizeof",   "struct", "true",   "false",
    "switch",   "case",   "default",  "goto",   "extern", "inline",
    "restrict", "new",    "delete",   "auto",
};

class Cursor {
 public:
  Cursor(std::string_view src, DiagnosticEngine& diags)
      : src_(src), diags_(diags) {}

  bool at_end() const { return pos_ >= src_.size(); }
  char peek(std::size_t ahead = 0) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }
  char advance() {
    const char c = src_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }
  bool match(char expected) {
    if (at_end() || src_[pos_] != expected) return false;
    advance();
    return true;
  }

  int line() const { return line_; }
  int column() const { return column_; }
  DiagnosticEngine& diags() { return diags_; }

 private:
  std::string_view src_;
  DiagnosticEngine& diags_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

/// Reads to end of line, folding `\`-continuations; cursor ends after the
/// newline. Returns the collected text without the trailing newline.
std::string read_logical_line(Cursor& cur) {
  std::string text;
  while (!cur.at_end()) {
    const char c = cur.peek();
    if (c == '\\' && (cur.peek(1) == '\n' ||
                      (cur.peek(1) == '\r' && cur.peek(2) == '\n'))) {
      cur.advance();  // backslash
      if (cur.peek() == '\r') cur.advance();
      cur.advance();  // newline
      text.push_back(' ');
      continue;
    }
    if (c == '\n') {
      cur.advance();
      break;
    }
    if (c == '\r') {
      cur.advance();
      continue;
    }
    text.push_back(cur.advance());
  }
  return text;
}

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

inline bool is_keyword(std::string_view word) noexcept {
  for (const char* kw : kKeywords) {
    if (word == kw) return true;
  }
  return false;
}

inline LexOutput lex(std::string_view source, DiagnosticEngine& diags) {
  LexOutput out;
  Cursor cur(source, diags);
  // Stray-character reporting is capped so pathological inputs (binary
  // garbage, heavily mutated files) cannot flood the diagnostic engine.
  int stray_reports = 0;
  constexpr int kMaxStrayReports = 20;

  const auto push = [&](TokenKind kind, std::string text, int line, int col) {
    out.tokens.push_back(Token{kind, std::move(text), line, col});
  };

  while (!cur.at_end()) {
    const int line = cur.line();
    const int col = cur.column();
    const char c = cur.peek();

    if (c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' ||
        c == '\f') {
      cur.advance();
      continue;
    }

    // Comments.
    if (c == '/' && cur.peek(1) == '/') {
      while (!cur.at_end() && cur.peek() != '\n') cur.advance();
      continue;
    }
    if (c == '/' && cur.peek(1) == '*') {
      cur.advance();
      cur.advance();
      bool closed = false;
      while (!cur.at_end()) {
        if (cur.peek() == '*' && cur.peek(1) == '/') {
          cur.advance();
          cur.advance();
          closed = true;
          break;
        }
        cur.advance();
      }
      if (!closed) {
        diags.error(DiagCode::kUnterminated, line, col,
                    "unterminated /* comment");
      }
      continue;
    }

    // Preprocessor-ish lines.
    if (c == '#') {
      const std::string text = read_logical_line(cur);
      const auto words = support::split_whitespace(text);
      if (words.empty()) continue;
      if (support::starts_with(support::trim(text), "#pragma") ||
          (words[0] == "#" && words.size() > 1 && words[1] == "pragma")) {
        push(TokenKind::kPragma, text, line, col);
      } else if (support::starts_with(support::trim(text), "#include")) {
        push(TokenKind::kHashInclude, text, line, col);
      } else if (support::starts_with(support::trim(text), "#define")) {
        // Object-like macro: "#define NAME replacement...".
        if (words.size() >= 3) {
          std::string value;
          for (std::size_t i = 2; i < words.size(); ++i) {
            if (i > 2) value += ' ';
            value += words[i];
          }
          out.defines[words[1]] = value;
        }
      }
      // #ifdef/#endif/#undef etc. are skipped: the corpus never emits them,
      // and skipping matches "preprocess then compile" for trivial guards.
      continue;
    }

    // Identifiers / keywords (with macro substitution).
    if (ident_start(c)) {
      std::string word;
      while (!cur.at_end() && ident_char(cur.peek())) word += cur.advance();
      const auto macro = out.defines.find(word);
      if (macro != out.defines.end()) {
        // One-level substitution: re-lex the replacement in isolation.
        DiagnosticEngine sub_diags;
        LexOutput sub = reference::lex(macro->second, sub_diags);
        for (auto& tok : sub.tokens) {
          if (tok.kind == TokenKind::kEof) break;
          tok.line = line;
          tok.column = col;
          out.tokens.push_back(std::move(tok));
        }
        continue;
      }
      const bool keyword = is_keyword(word);
      push(keyword ? TokenKind::kKeyword : TokenKind::kIdentifier,
           std::move(word), line, col);
      continue;
    }

    // Numbers.
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(cur.peek(1))))) {
      std::string num;
      bool is_float = false;
      while (!cur.at_end()) {
        const char d = cur.peek();
        if (std::isdigit(static_cast<unsigned char>(d)) || d == 'x' ||
            d == 'X' ||
            (num.size() >= 2 && num[0] == '0' &&
             (num[1] == 'x' || num[1] == 'X') &&
             std::isxdigit(static_cast<unsigned char>(d)))) {
          num += cur.advance();
        } else if (d == '.') {
          is_float = true;
          num += cur.advance();
        } else if ((d == 'e' || d == 'E') && num.find('x') == std::string::npos) {
          is_float = true;
          num += cur.advance();
          if (cur.peek() == '+' || cur.peek() == '-') num += cur.advance();
        } else if (d == 'f' || d == 'F') {
          is_float = true;
          cur.advance();
          break;
        } else if (d == 'l' || d == 'L' || d == 'u' || d == 'U') {
          cur.advance();  // integer suffix, dropped
        } else {
          break;
        }
      }
      push(is_float ? TokenKind::kFloatLiteral : TokenKind::kIntLiteral,
           std::move(num), line, col);
      continue;
    }

    // String literal.
    if (c == '"') {
      cur.advance();
      std::string text;
      bool closed = false;
      while (!cur.at_end()) {
        const char d = cur.advance();
        if (d == '\\' && !cur.at_end()) {
          const char e = cur.advance();
          switch (e) {
            case 'n': text.push_back('\n'); break;
            case 't': text.push_back('\t'); break;
            case 'r': text.push_back('\r'); break;
            case '0': text.push_back('\0'); break;
            case '\\': text.push_back('\\'); break;
            case '"': text.push_back('"'); break;
            default: text.push_back(e); break;
          }
          continue;
        }
        if (d == '"') {
          closed = true;
          break;
        }
        if (d == '\n') break;
        text.push_back(d);
      }
      if (!closed) {
        diags.error(DiagCode::kUnterminated, line, col,
                    "unterminated string literal");
      }
      push(TokenKind::kStringLiteral, std::move(text), line, col);
      continue;
    }

    // Char literal.
    if (c == '\'') {
      cur.advance();
      std::string text;
      bool closed = false;
      while (!cur.at_end()) {
        const char d = cur.advance();
        if (d == '\\' && !cur.at_end()) {
          const char e = cur.advance();
          switch (e) {
            case 'n': text.push_back('\n'); break;
            case 't': text.push_back('\t'); break;
            case '0': text.push_back('\0'); break;
            default: text.push_back(e); break;
          }
          continue;
        }
        if (d == '\'') {
          closed = true;
          break;
        }
        if (d == '\n') break;
        text.push_back(d);
      }
      if (!closed) {
        diags.error(DiagCode::kUnterminated, line, col,
                    "unterminated character literal");
      }
      push(TokenKind::kCharLiteral, std::move(text), line, col);
      continue;
    }

    // Punctuators.
    cur.advance();
    TokenKind kind;
    std::string text(1, c);
    switch (c) {
      case '(': kind = TokenKind::kLParen; break;
      case ')': kind = TokenKind::kRParen; break;
      case '{': kind = TokenKind::kLBrace; break;
      case '}': kind = TokenKind::kRBrace; break;
      case '[': kind = TokenKind::kLBracket; break;
      case ']': kind = TokenKind::kRBracket; break;
      case ';': kind = TokenKind::kSemicolon; break;
      case ',': kind = TokenKind::kComma; break;
      case ':': kind = TokenKind::kColon; break;
      case '?': kind = TokenKind::kQuestion; break;
      case '~': kind = TokenKind::kTilde; break;
      case '.': kind = TokenKind::kDot; break;
      case '+':
        if (cur.match('+')) { kind = TokenKind::kPlusPlus; text = "++"; }
        else if (cur.match('=')) { kind = TokenKind::kPlusEq; text = "+="; }
        else kind = TokenKind::kPlus;
        break;
      case '-':
        if (cur.match('-')) { kind = TokenKind::kMinusMinus; text = "--"; }
        else if (cur.match('=')) { kind = TokenKind::kMinusEq; text = "-="; }
        else if (cur.match('>')) { kind = TokenKind::kArrow; text = "->"; }
        else kind = TokenKind::kMinus;
        break;
      case '*':
        if (cur.match('=')) { kind = TokenKind::kStarEq; text = "*="; }
        else kind = TokenKind::kStar;
        break;
      case '/':
        if (cur.match('=')) { kind = TokenKind::kSlashEq; text = "/="; }
        else kind = TokenKind::kSlash;
        break;
      case '%': kind = TokenKind::kPercent; break;
      case '&':
        if (cur.match('&')) { kind = TokenKind::kAmpAmp; text = "&&"; }
        else kind = TokenKind::kAmp;
        break;
      case '|':
        if (cur.match('|')) { kind = TokenKind::kPipePipe; text = "||"; }
        else kind = TokenKind::kPipe;
        break;
      case '^': kind = TokenKind::kCaret; break;
      case '!':
        if (cur.match('=')) { kind = TokenKind::kBangEq; text = "!="; }
        else kind = TokenKind::kBang;
        break;
      case '<':
        if (cur.match('=')) { kind = TokenKind::kLessEq; text = "<="; }
        else if (cur.match('<')) { kind = TokenKind::kShl; text = "<<"; }
        else kind = TokenKind::kLess;
        break;
      case '>':
        if (cur.match('=')) { kind = TokenKind::kGreaterEq; text = ">="; }
        else if (cur.match('>')) { kind = TokenKind::kShr; text = ">>"; }
        else kind = TokenKind::kGreater;
        break;
      case '=':
        if (cur.match('=')) { kind = TokenKind::kEqEq; text = "=="; }
        else kind = TokenKind::kAssign;
        break;
      default:
        if (stray_reports < kMaxStrayReports) {
          ++stray_reports;
          diags.error(DiagCode::kUnexpectedToken, line, col,
                      std::string("stray character '") + c + "' in program");
        }
        continue;
    }
    push(kind, std::move(text), line, col);
  }

  push(TokenKind::kEof, "", cur.line(), cur.column());
  return out;
}

}  // namespace llm4vv::frontend::reference
