#include "frontend/lexer.hpp"

#include <array>
#include <cstdint>
#include <cstring>
#include <utility>

#include "support/strings.hpp"

namespace llm4vv::frontend {

namespace {

// ---------------------------------------------------------------------------
// Tables. Everything the scanner asks of a byte is one load from a 256-entry
// table; the keyword and punctuator tables are built at compile time from
// the LLM4VV_FORALL_* lists in token.hpp.
// ---------------------------------------------------------------------------

/// What a byte starts; the main loop dispatches on it.
enum class CharClass : std::uint8_t {
  kStray,       ///< outside the subset: reported, then skipped
  kSpace,       ///< ' ' '\t' '\r' '\v' '\f'
  kNewline,
  kIdentStart,  ///< [A-Za-z_]
  kDigit,
  kDot,         ///< a number when a digit follows, else '.'
  kSlash,       ///< a comment or a punctuator
  kHash,        ///< a preprocessor line
  kQuote,
  kApostrophe,
  kPunct,       ///< first byte of a listed punctuator
};

/// Membership bits the scanning loops test.
enum : std::uint8_t {
  kIdentBit = 1 << 0,  ///< [A-Za-z0-9_]
  kDigitBit = 1 << 1,  ///< [0-9]
  kHexBit = 1 << 2,    ///< [0-9A-Fa-f]
  kSpaceBit = 1 << 3,  ///< std::isspace in the C locale
};

struct CharTables {
  std::array<CharClass, 256> cls{};
  std::array<std::uint8_t, 256> bits{};
};

/// Longest-match entry for one first byte: its one-byte kind and up to
/// three two-byte continuations.
struct PunctEntry {
  TokenKind one = TokenKind::kEof;
  std::array<char, 3> second{};
  std::array<TokenKind, 3> two{};
};

struct Spelling {
  TokenKind kind;
  std::string_view text;
};

constexpr Spelling kPunctuators[] = {
#define LLM4VV_PUNCTUATOR_SPELLING(kind, spelling) \
  {TokenKind::kind, spelling},
    LLM4VV_FORALL_PUNCTUATORS(LLM4VV_PUNCTUATOR_SPELLING)
#undef LLM4VV_PUNCTUATOR_SPELLING
};

constexpr std::string_view kKeywords[] = {
#define LLM4VV_KEYWORD_SPELLING(spelling) spelling,
    LLM4VV_FORALL_KEYWORDS(LLM4VV_KEYWORD_SPELLING)
#undef LLM4VV_KEYWORD_SPELLING
};

constexpr CharTables make_char_tables() {
  CharTables t;
  for (int c = 0; c < 256; ++c) {
    const bool lower = c >= 'a' && c <= 'z';
    const bool upper = c >= 'A' && c <= 'Z';
    const bool digit = c >= '0' && c <= '9';
    std::uint8_t bits = 0;
    if (lower || upper || digit || c == '_') bits |= kIdentBit;
    if (digit) bits |= kDigitBit;
    if (digit || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')) {
      bits |= kHexBit;
    }
    t.bits[c] = bits;
    if (lower || upper || c == '_') t.cls[c] = CharClass::kIdentStart;
    if (digit) t.cls[c] = CharClass::kDigit;
  }
  for (const Spelling& p : kPunctuators) {
    t.cls[static_cast<unsigned char>(p.text[0])] = CharClass::kPunct;
  }
  for (const char c : {' ', '\t', '\r', '\v', '\f'}) {
    t.cls[static_cast<unsigned char>(c)] = CharClass::kSpace;
  }
  for (const char c : {' ', '\t', '\n', '\r', '\v', '\f'}) {
    t.bits[static_cast<unsigned char>(c)] |= kSpaceBit;
  }
  t.cls['\n'] = CharClass::kNewline;
  t.cls['.'] = CharClass::kDot;
  t.cls['/'] = CharClass::kSlash;
  t.cls['#'] = CharClass::kHash;
  t.cls['"'] = CharClass::kQuote;
  t.cls['\''] = CharClass::kApostrophe;
  return t;
}

constexpr std::array<PunctEntry, 128> make_punct_table() {
  std::array<PunctEntry, 128> table{};
  for (const Spelling& p : kPunctuators) {
    PunctEntry& entry = table[static_cast<unsigned char>(p.text[0])];
    if (p.text.size() == 1) {
      entry.one = p.kind;
      continue;
    }
    std::size_t slot = 0;
    while (entry.second[slot] != '\0') ++slot;  // out of range: not constant
    entry.second[slot] = p.text[1];
    entry.two[slot] = p.kind;
  }
  return table;
}

/// Open-addressed keyword set: slot = hash, linear probing, -1 empty.
constexpr std::size_t kKeywordSlots = 128;

constexpr std::size_t keyword_hash(std::string_view word) {
  return (static_cast<unsigned char>(word.front()) * 31u +
          static_cast<unsigned char>(word.back()) * 7u + word.size()) &
         (kKeywordSlots - 1);
}

constexpr std::array<std::int8_t, kKeywordSlots> make_keyword_table() {
  std::array<std::int8_t, kKeywordSlots> table{};
  for (auto& slot : table) slot = -1;
  for (std::size_t k = 0; k < std::size(kKeywords); ++k) {
    std::size_t slot = keyword_hash(kKeywords[k]);
    while (table[slot] >= 0) slot = (slot + 1) & (kKeywordSlots - 1);
    table[slot] = static_cast<std::int8_t>(k);
  }
  return table;
}

constexpr CharTables kChars = make_char_tables();
constexpr std::array<PunctEntry, 128> kPunct = make_punct_table();
constexpr std::array<std::int8_t, kKeywordSlots> kKeywordTable =
    make_keyword_table();

inline CharClass char_class(char c) {
  return kChars.cls[static_cast<unsigned char>(c)];
}
inline bool has_bit(char c, std::uint8_t bit) {
  return (kChars.bits[static_cast<unsigned char>(c)] & bit) != 0;
}

/// Decoded value of the escape `\e` (strings also decode `\r`; every
/// other unlisted escape stands for itself).
char unescape(char e, bool in_string) {
  switch (e) {
    case 'n': return '\n';
    case 't': return '\t';
    case '0': return '\0';
    case 'r': return in_string ? '\r' : 'r';
    default: return e;
  }
}

// ---------------------------------------------------------------------------
// Scanner
// ---------------------------------------------------------------------------

class Lexer {
 public:
  Lexer(std::string_view source, DiagnosticEngine& diags)
      : p_(source.data()),
        end_(source.data() + source.size()),
        line_start_(source.data()),
        diags_(diags) {}

  LexOutput run();

 private:
  int column(const char* at) const {
    return static_cast<int>(at - line_start_) + 1;
  }
  /// Bookkeeping for the newline at `nl`.
  void newline(const char* nl) {
    ++line_;
    line_start_ = nl + 1;
  }
  /// Appends a token built in place: its text is copied once, from the
  /// source span (or moved in when it had to be assembled).
  template <typename Text>
  void push(TokenKind kind, Text&& text, int line, int col) {
    Token& tok = out_.tokens.emplace_back();
    tok.kind = kind;
    tok.text = std::forward<Text>(text);
    tok.line = line;
    tok.column = col;
  }

  void block_comment();
  std::string logical_line();
  void hash_line();
  void define(std::string_view text);
  void identifier();
  void number();
  void quoted(char quote);
  void punctuator();
  void stray();

  const char* p_;
  const char* const end_;
  int line_ = 1;
  const char* line_start_;
  DiagnosticEngine& diags_;
  LexOutput out_;
  /// Each macro's replacement, lexed once when defined (positions are
  /// overwritten with those of each use).
  std::map<std::string, std::vector<Token>, std::less<>> macros_;
  // Stray-character reporting is capped so pathological inputs (binary
  // garbage, heavily mutated files) cannot flood the diagnostic engine.
  int stray_reports_ = 0;
  static constexpr int kMaxStrayReports = 20;
};

LexOutput Lexer::run() {
  // About one token per four source bytes in the V&V corpus.
  out_.tokens.reserve(static_cast<std::size_t>(end_ - p_) / 4 + 16);
  while (p_ < end_) {
    switch (char_class(*p_)) {
      case CharClass::kSpace:
        ++p_;
        break;
      case CharClass::kNewline:
        newline(p_++);
        break;
      case CharClass::kIdentStart:
        identifier();
        break;
      case CharClass::kDigit:
        number();
        break;
      case CharClass::kDot:
        if (p_ + 1 < end_ && has_bit(p_[1], kDigitBit)) {
          number();
        } else {
          punctuator();
        }
        break;
      case CharClass::kSlash:
        if (p_ + 1 < end_ && p_[1] == '/') {
          const void* nl =
              std::memchr(p_, '\n', static_cast<std::size_t>(end_ - p_));
          p_ = nl != nullptr ? static_cast<const char*>(nl) : end_;
        } else if (p_ + 1 < end_ && p_[1] == '*') {
          block_comment();
        } else {
          punctuator();
        }
        break;
      case CharClass::kHash:
        hash_line();
        break;
      case CharClass::kQuote:
        quoted('"');
        break;
      case CharClass::kApostrophe:
        quoted('\'');
        break;
      case CharClass::kPunct:
        punctuator();
        break;
      case CharClass::kStray:
        stray();
        break;
    }
  }
  push(TokenKind::kEof, "", line_, column(p_));
  return std::move(out_);
}

void Lexer::block_comment() {
  const int line = line_;
  const int col = column(p_);
  for (const char* q = p_ + 2; q < end_; ++q) {
    if (*q == '*' && q + 1 < end_ && q[1] == '/') {
      p_ = q + 2;
      return;
    }
    if (*q == '\n') newline(q);
  }
  p_ = end_;
  diags_.error(DiagCode::kUnterminated, line, col, "unterminated /* comment");
}

/// Reads a `#` line to its end, folding `\`-continuations into one space
/// and dropping '\r'; p_ ends after the newline. Returns the text without
/// the newline.
std::string Lexer::logical_line() {
  const void* nl_at =
      std::memchr(p_, '\n', static_cast<std::size_t>(end_ - p_));
  const char* nl = nl_at != nullptr ? static_cast<const char*>(nl_at) : end_;
  const std::size_t span = static_cast<std::size_t>(nl - p_);
  if (std::memchr(p_, '\\', span) == nullptr &&
      std::memchr(p_, '\r', span) == nullptr) {
    std::string text(p_, span);
    p_ = nl;
    if (p_ < end_) newline(p_++);
    return text;
  }
  std::string text;
  while (p_ < end_) {
    const char c = *p_;
    if (c == '\\' && p_ + 1 < end_ &&
        (p_[1] == '\n' || (p_[1] == '\r' && p_ + 2 < end_ && p_[2] == '\n'))) {
      p_ += p_[1] == '\r' ? 2 : 1;
      newline(p_++);
      text.push_back(' ');
      continue;
    }
    ++p_;
    if (c == '\n') {
      newline(p_ - 1);
      break;
    }
    if (c != '\r') text.push_back(c);
  }
  return text;
}

void Lexer::hash_line() {
  const int line = line_;
  const int col = column(p_);
  std::string text = logical_line();
  const std::string_view t = text;
  // "#pragma..." or "#", whitespace, then the word "pragma".
  bool pragma = support::starts_with(t, "#pragma");
  if (!pragma && t.size() > 1 && has_bit(t[1], kSpaceBit)) {
    std::size_t i = 1;
    while (i < t.size() && has_bit(t[i], kSpaceBit)) ++i;
    const std::string_view rest = t.substr(i);
    pragma = support::starts_with(rest, "pragma") &&
             (rest.size() == 6 || has_bit(rest[6], kSpaceBit));
  }
  if (pragma) {
    push(TokenKind::kPragma, std::move(text), line, col);
  } else if (support::starts_with(t, "#include")) {
    push(TokenKind::kHashInclude, std::move(text), line, col);
  } else if (support::starts_with(t, "#define")) {
    define(t);
  }
  // #ifdef/#endif/#undef etc. are skipped: the corpus never emits them,
  // and skipping matches "preprocess then compile" for trivial guards.
}

/// Object-like macro "#define NAME replacement...": the replacement's
/// words are joined by single spaces and lexed once, in isolation (one
/// level of substitution, discarding its diagnostics).
void Lexer::define(std::string_view text) {
  const auto words = support::split_whitespace(text);
  if (words.size() < 3) return;
  std::string value = support::join(
      std::vector<std::string>(words.begin() + 2, words.end()), " ");
  DiagnosticEngine discarded;
  LexOutput replacement = Lexer(value, discarded).run();
  replacement.tokens.pop_back();  // kEof
  macros_[words[1]] = std::move(replacement.tokens);
  out_.defines[words[1]] = std::move(value);
}

void Lexer::identifier() {
  const char* const start = p_;
  const int col = column(p_);
  const char* q = p_ + 1;
  while (q < end_ && has_bit(*q, kIdentBit)) ++q;
  p_ = q;
  const std::string_view word(start, static_cast<std::size_t>(q - start));
  if (!macros_.empty()) {
    const auto macro = macros_.find(word);
    if (macro != macros_.end()) {
      for (const Token& tok : macro->second) {
        push(tok.kind, tok.text, line_, col);
      }
      return;
    }
  }
  push(is_keyword(word) ? TokenKind::kKeyword : TokenKind::kIdentifier, word,
       line_, col);
}

void Lexer::number() {
  // The spelling drops integer suffixes (l L u U, wherever they occur) and
  // a float suffix (f F, which ends the literal). Hex digits count only
  // after a 0x/0X prefix; 'x' and 'X' are taken anywhere, and an exponent
  // is refused once the spelling holds a lowercase 'x'.
  const int col = column(p_);
  std::string text;
  const char* segment = p_;
  std::size_t length = 0;  // spelled characters so far
  bool zero_x = false;     // the spelling starts with 0x or 0X
  bool lower_x = false;
  bool is_float = false;
  char first = '\0';
  const auto take = [&](char c) {
    if (length == 0) first = c;
    if (length == 1) zero_x = first == '0' && (c == 'x' || c == 'X');
    lower_x = lower_x || c == 'x';
    ++length;
    ++p_;
  };
  const auto drop = [&] {
    text.append(segment, p_);
    segment = ++p_;
  };
  while (p_ < end_) {
    const char d = *p_;
    if (has_bit(d, kDigitBit) || d == 'x' || d == 'X' ||
        (zero_x && has_bit(d, kHexBit))) {
      take(d);
    } else if (d == '.') {
      is_float = true;
      take(d);
    } else if ((d == 'e' || d == 'E') && !lower_x) {
      is_float = true;
      take(d);
      if (p_ < end_ && (*p_ == '+' || *p_ == '-')) take(*p_);
    } else if (d == 'f' || d == 'F') {
      is_float = true;
      drop();
      break;
    } else if (d == 'l' || d == 'L' || d == 'u' || d == 'U') {
      drop();
    } else {
      break;
    }
  }
  text.append(segment, p_);
  push(is_float ? TokenKind::kFloatLiteral : TokenKind::kIntLiteral,
       std::move(text), line_, col);
}

/// String ('"') or character ('\'') literal; the text is the decoded
/// contents. A newline ends an unterminated literal.
void Lexer::quoted(char quote) {
  const int line = line_;
  const int col = column(p_);
  const bool in_string = quote == '"';
  std::string text;
  const char* segment = ++p_;
  bool closed = false;
  while (p_ < end_) {
    const char d = *p_;
    if (d == '\\' && p_ + 1 < end_) {
      text.append(segment, p_);
      const char e = p_[1];
      text.push_back(unescape(e, in_string));
      if (e == '\n') newline(p_ + 1);
      p_ += 2;
      segment = p_;
    } else if (d == quote) {
      text.append(segment, p_);
      segment = ++p_;
      closed = true;
      break;
    } else if (d == '\n') {
      text.append(segment, p_);
      newline(p_);
      segment = ++p_;
      break;
    } else {
      ++p_;
    }
  }
  if (segment < p_) text.append(segment, p_);
  if (!closed) {
    diags_.error(DiagCode::kUnterminated, line, col,
                 in_string ? "unterminated string literal"
                           : "unterminated character literal");
  }
  push(in_string ? TokenKind::kStringLiteral : TokenKind::kCharLiteral,
       std::move(text), line, col);
}

void Lexer::punctuator() {
  const PunctEntry& entry = kPunct[static_cast<unsigned char>(*p_)];
  TokenKind kind = entry.one;
  std::size_t length = 1;
  if (p_ + 1 < end_) {
    for (std::size_t i = 0; i < entry.second.size(); ++i) {
      if (entry.second[i] != '\0' && entry.second[i] == p_[1]) {
        kind = entry.two[i];
        length = 2;
        break;
      }
    }
  }
  const int col = column(p_);
  push(kind, std::string_view(p_, length), line_, col);
  p_ += length;
}

void Lexer::stray() {
  const char c = *p_;
  if (stray_reports_ < kMaxStrayReports) {
    ++stray_reports_;
    diags_.error(DiagCode::kUnexpectedToken, line_, column(p_),
                 std::string("stray character '") + c + "' in program");
  }
  ++p_;
}

}  // namespace

bool is_keyword(std::string_view word) noexcept {
  if (word.empty()) return false;
  for (std::size_t slot = keyword_hash(word);;
       slot = (slot + 1) & (kKeywordSlots - 1)) {
    const int k = kKeywordTable[slot];
    if (k < 0) return false;
    if (kKeywords[k] == word) return true;
  }
}

LexOutput lex(std::string_view source, DiagnosticEngine& diags) {
  return Lexer(source, diags).run();
}

const char* token_kind_name(TokenKind kind) noexcept {
  switch (kind) {
    case TokenKind::kEof: return "end of file";
    case TokenKind::kIdentifier: return "identifier";
    case TokenKind::kKeyword: return "keyword";
    case TokenKind::kIntLiteral: return "integer literal";
    case TokenKind::kFloatLiteral: return "floating literal";
    case TokenKind::kStringLiteral: return "string literal";
    case TokenKind::kCharLiteral: return "character literal";
    case TokenKind::kPragma: return "#pragma";
    case TokenKind::kHashInclude: return "#include";
#define LLM4VV_PUNCTUATOR_NAME(kind, spelling) \
  case TokenKind::kind: return "'" spelling "'";
    LLM4VV_FORALL_PUNCTUATORS(LLM4VV_PUNCTUATOR_NAME)
#undef LLM4VV_PUNCTUATOR_NAME
  }
  return "?";
}

}  // namespace llm4vv::frontend
