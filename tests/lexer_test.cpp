#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "corpus/generator.hpp"
#include "frontend/lexer.hpp"
#include "probing/candidates.hpp"
#include "probing/mutation.hpp"
#include "support/rng.hpp"
#include "tests/lexer_reference.hpp"
#include "tests/test_util.hpp"

namespace llm4vv::frontend {
namespace {

LexOutput lex_ok(const std::string& source) {
  DiagnosticEngine diags;
  auto out = lex(source, diags);
  EXPECT_FALSE(diags.has_errors()) << source;
  return out;
}

TEST(LexerTest, EmptySourceYieldsEof) {
  const auto out = lex_ok("");
  ASSERT_EQ(out.tokens.size(), 1u);
  EXPECT_EQ(out.tokens[0].kind, TokenKind::kEof);
}

TEST(LexerTest, KeywordsVsIdentifiers) {
  const auto out = lex_ok("int main foo double");
  EXPECT_EQ(out.tokens[0].kind, TokenKind::kKeyword);
  EXPECT_EQ(out.tokens[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ(out.tokens[2].kind, TokenKind::kIdentifier);
  EXPECT_EQ(out.tokens[3].kind, TokenKind::kKeyword);
}

TEST(LexerTest, PositionsAreOneBased) {
  const auto out = lex_ok("a\n  b");
  EXPECT_EQ(out.tokens[0].line, 1);
  EXPECT_EQ(out.tokens[0].column, 1);
  EXPECT_EQ(out.tokens[1].line, 2);
  EXPECT_EQ(out.tokens[1].column, 3);
}

TEST(LexerTest, IntAndFloatLiterals) {
  const auto out = lex_ok("42 3.5 1e-8 0x1F 2.0f 7L");
  EXPECT_EQ(out.tokens[0].kind, TokenKind::kIntLiteral);
  EXPECT_EQ(out.tokens[1].kind, TokenKind::kFloatLiteral);
  EXPECT_EQ(out.tokens[2].kind, TokenKind::kFloatLiteral);
  EXPECT_EQ(out.tokens[3].kind, TokenKind::kIntLiteral);
  EXPECT_EQ(out.tokens[4].kind, TokenKind::kFloatLiteral);
  EXPECT_EQ(out.tokens[5].kind, TokenKind::kIntLiteral);
}

TEST(LexerTest, ZeroPrefixedLiteralsAreDecimalUnlessHex) {
  // Hex digits count only after 0x/0X; a leading 0 alone is decimal, so
  // exponents and float suffixes work as on any other literal.
  const auto out = lex_ok("0.5e-3 0.5E+2 0e1 0.25f 0x1F 0XaBcDeF 0x1e5 007");
  const std::vector<std::pair<TokenKind, std::string>> want = {
      {TokenKind::kFloatLiteral, "0.5e-3"},
      {TokenKind::kFloatLiteral, "0.5E+2"},
      {TokenKind::kFloatLiteral, "0e1"},
      {TokenKind::kFloatLiteral, "0.25"},
      {TokenKind::kIntLiteral, "0x1F"},
      {TokenKind::kIntLiteral, "0XaBcDeF"},
      {TokenKind::kIntLiteral, "0x1e5"},
      {TokenKind::kIntLiteral, "007"},
      {TokenKind::kEof, ""}};
  ASSERT_EQ(out.tokens.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(out.tokens[i].kind, want[i].first) << i;
    EXPECT_EQ(out.tokens[i].text, want[i].second) << i;
  }
}

TEST(LexerTest, StringEscapes) {
  const auto out = lex_ok(R"("a\nb\t\"q\"")");
  ASSERT_EQ(out.tokens[0].kind, TokenKind::kStringLiteral);
  EXPECT_EQ(out.tokens[0].text, "a\nb\t\"q\"");
}

TEST(LexerTest, CharLiteral) {
  const auto out = lex_ok("'x' '\\n'");
  EXPECT_EQ(out.tokens[0].kind, TokenKind::kCharLiteral);
  EXPECT_EQ(out.tokens[0].text, "x");
  EXPECT_EQ(out.tokens[1].text, "\n");
}

TEST(LexerTest, UnterminatedStringReported) {
  DiagnosticEngine diags;
  lex("\"never closed\n", diags);
  EXPECT_TRUE(diags.has_code(DiagCode::kUnterminated));
}

TEST(LexerTest, UnterminatedBlockCommentReported) {
  DiagnosticEngine diags;
  lex("/* open forever", diags);
  EXPECT_TRUE(diags.has_code(DiagCode::kUnterminated));
}

TEST(LexerTest, CommentsAreSkipped) {
  const auto out = lex_ok("a // line comment\nb /* block */ c");
  ASSERT_GE(out.tokens.size(), 4u);
  EXPECT_EQ(out.tokens[0].text, "a");
  EXPECT_EQ(out.tokens[1].text, "b");
  EXPECT_EQ(out.tokens[2].text, "c");
}

TEST(LexerTest, PragmaCapturedAsOneToken) {
  const auto out =
      lex_ok("#pragma acc parallel loop copyin(a[0:n])\nint x;");
  ASSERT_EQ(out.tokens[0].kind, TokenKind::kPragma);
  EXPECT_EQ(out.tokens[0].text, "#pragma acc parallel loop copyin(a[0:n])");
  EXPECT_EQ(out.tokens[1].kind, TokenKind::kKeyword);
}

TEST(LexerTest, PragmaLineContinuationFolded) {
  const auto out = lex_ok("#pragma omp target \\\n  map(to: a)\nx");
  ASSERT_EQ(out.tokens[0].kind, TokenKind::kPragma);
  EXPECT_NE(out.tokens[0].text.find("map(to: a)"), std::string::npos);
  EXPECT_EQ(out.tokens[1].line, 3);
}

TEST(LexerTest, IncludeBecomesToken) {
  const auto out = lex_ok("#include <stdio.h>\nint x;");
  EXPECT_EQ(out.tokens[0].kind, TokenKind::kHashInclude);
}

TEST(LexerTest, DefineSubstitutesIntoIdentifiers) {
  const auto out = lex_ok("#define N 256\nint a[N];");
  bool found = false;
  for (const auto& tok : out.tokens) {
    if (tok.kind == TokenKind::kIntLiteral && tok.text == "256") found = true;
    EXPECT_NE(tok.text, "N");
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(out.defines.at("N"), "256");
}

TEST(LexerTest, DefineWithExpressionBody) {
  const auto out = lex_ok("#define SZ 16 * 4\nint a = SZ;");
  // The substitution should produce 16, *, 4 tokens in place of SZ.
  std::vector<std::string> texts;
  for (const auto& tok : out.tokens) texts.push_back(tok.text);
  EXPECT_NE(std::find(texts.begin(), texts.end(), "16"), texts.end());
  EXPECT_NE(std::find(texts.begin(), texts.end(), "4"), texts.end());
}

TEST(LexerTest, MultiCharOperators) {
  const auto out = lex_ok("== != <= >= && || << >> += -= *= /= ++ -- ->");
  const TokenKind kinds[] = {
      TokenKind::kEqEq, TokenKind::kBangEq, TokenKind::kLessEq,
      TokenKind::kGreaterEq, TokenKind::kAmpAmp, TokenKind::kPipePipe,
      TokenKind::kShl, TokenKind::kShr, TokenKind::kPlusEq,
      TokenKind::kMinusEq, TokenKind::kStarEq, TokenKind::kSlashEq,
      TokenKind::kPlusPlus, TokenKind::kMinusMinus, TokenKind::kArrow};
  for (std::size_t i = 0; i < std::size(kinds); ++i) {
    EXPECT_EQ(out.tokens[i].kind, kinds[i]) << i;
  }
}

TEST(LexerTest, StrayCharacterReported) {
  DiagnosticEngine diags;
  lex("int a @ b;", diags);
  EXPECT_TRUE(diags.has_code(DiagCode::kUnexpectedToken));
}

TEST(LexerTest, IsKeywordTable) {
  EXPECT_TRUE(is_keyword("for"));
  EXPECT_TRUE(is_keyword("sizeof"));
  EXPECT_FALSE(is_keyword("pragma"));
  EXPECT_FALSE(is_keyword("main"));
}

TEST(LexerTest, TokenKindNamesAreNonEmpty) {
  for (int k = 0; k <= static_cast<int>(TokenKind::kDot); ++k) {
    EXPECT_STRNE(token_kind_name(static_cast<TokenKind>(k)), "?");
  }
}

TEST(LexerTest, MacroTokensTakeEachUsePosition) {
  const auto out = lex_ok("#define N 8\nint a[N];\nint b = N +\n  N;");
  std::vector<std::pair<int, int>> uses;
  for (const auto& tok : out.tokens) {
    if (tok.kind == TokenKind::kIntLiteral && tok.text == "8") {
      uses.emplace_back(tok.line, tok.column);
    }
  }
  const std::vector<std::pair<int, int>> want = {{2, 7}, {3, 9}, {4, 3}};
  EXPECT_EQ(uses, want);
}

// ---------------------------------------------------------------------------
// Differential test against the previous lexer (tests/lexer_reference.hpp):
// token kind, text, line and column, every diagnostic, and the defines map
// must be identical on every input.
// ---------------------------------------------------------------------------

/// Empty when `lex` and `reference::lex` agree on `source`; otherwise a
/// description of the first difference.
std::string first_difference(const std::string& source) {
  DiagnosticEngine got_diags;
  DiagnosticEngine want_diags;
  const LexOutput got = lex(source, got_diags);
  const LexOutput want = reference::lex(source, want_diags);
  const auto show = [](const Token& t) {
    return std::string(token_kind_name(t.kind)) + " \"" + t.text + "\" at " +
           std::to_string(t.line) + ":" + std::to_string(t.column);
  };
  const std::size_t n = std::min(got.tokens.size(), want.tokens.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Token& g = got.tokens[i];
    const Token& w = want.tokens[i];
    if (g.kind != w.kind || g.text != w.text || g.line != w.line ||
        g.column != w.column) {
      return "token " + std::to_string(i) + ": got " + show(g) +
             ", reference " + show(w);
    }
  }
  if (got.tokens.size() != want.tokens.size()) {
    return "token count " + std::to_string(got.tokens.size()) +
           ", reference " + std::to_string(want.tokens.size());
  }
  if (got.defines != want.defines) return "defines differ";
  const auto& gd = got_diags.diagnostics();
  const auto& wd = want_diags.diagnostics();
  if (gd.size() != wd.size()) {
    return "diagnostic count " + std::to_string(gd.size()) + ", reference " +
           std::to_string(wd.size());
  }
  for (std::size_t i = 0; i < gd.size(); ++i) {
    if (gd[i].severity != wd[i].severity || gd[i].code != wd[i].code ||
        gd[i].line != wd[i].line || gd[i].column != wd[i].column ||
        gd[i].message != wd[i].message) {
      return "diagnostic " + std::to_string(i) + ": got \"" + gd[i].message +
             "\" at " + std::to_string(gd[i].line) + ":" +
             std::to_string(gd[i].column) + ", reference \"" +
             wd[i].message + "\" at " + std::to_string(wd[i].line) + ":" +
             std::to_string(wd[i].column);
    }
  }
  return "";
}

/// The source quoted for a failure message (C-escaped, cut at 400 bytes),
/// so a mismatch can be pasted back as a reproducer.
std::string quoted(const std::string& source) {
  std::string out = "\"";
  for (const char c : source.substr(0, 400)) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (u < 0x20 || u >= 0x7f) {
      const char* hex = "0123456789abcdef";
      out += "\\x";
      out += hex[u >> 4];
      out += hex[u & 15];
      out += "\"\"";  // end the escape before a following hex digit
    } else {
      out += c;
    }
  }
  return out + (source.size() > 400 ? "\"..." : "\"");
}

void expect_same_as_reference(const std::string& source,
                              const std::string& label) {
  const std::string diff = first_difference(source);
  EXPECT_EQ(diff, "") << label << "\nsource: " << quoted(source);
}

TEST(LexerDifferentialTest, PartTwoSuitesOfSeveralSeeds) {
  for (const std::uint64_t seed : {0u, 1u, 2u}) {
    core::ExperimentOptions options;
    options.corpus_seed += seed * 0x9E3779B97F4A7C15ULL;
    options.probe_seed_offset = seed;
    for (const Flavor flavor : {Flavor::kOpenACC, Flavor::kOpenMP}) {
      for (const auto& probed :
           core::build_part_two_suite(flavor, options).files) {
        expect_same_as_reference(probed.file.content,
                                 "seed " + std::to_string(seed) + " " +
                                     probed.file.name);
      }
    }
  }
}

TEST(LexerDifferentialTest, GeneratedSuites) {
  for (const std::uint64_t seed : {5u, 77u, 901u}) {
    for (const Flavor flavor : {Flavor::kOpenACC, Flavor::kOpenMP}) {
      auto gen = testutil::corpus_config(flavor, 120, seed);
      gen.max_version = 99;
      gen.cpp_share = 0.5;
      if (flavor == Flavor::kOpenACC) gen.fortran_share = 0.2;
      for (const auto& tc : corpus::generate_suite(gen).cases) {
        expect_same_as_reference(tc.file.content, tc.file.name);
      }
    }
  }
}

TEST(LexerDifferentialTest, EveryProbingMutationClass) {
  const probing::MutationConfig config;
  for (const Flavor flavor : {Flavor::kOpenACC, Flavor::kOpenMP}) {
    auto gen = testutil::corpus_config(flavor, 60, 4242);
    gen.cpp_share = 0.5;
    const auto suite = corpus::generate_suite(gen);
    for (int issue = 0; issue <= 5; ++issue) {
      support::Rng rng(1000 + static_cast<std::uint64_t>(issue));
      for (const auto& tc : suite.cases) {
        const auto mutated = probing::apply_mutation(
            tc.file.content, tc.file.language,
            static_cast<probing::IssueType>(issue), config, rng);
        if (!mutated) continue;
        expect_same_as_reference(
            *mutated, tc.file.name + " issue " + std::to_string(issue));
      }
    }
  }
  probing::CandidateConfig candidates;
  candidates.count = 300;
  candidates.defect_rate = 0.8;
  for (const auto& candidate : probing::generate_candidates(candidates)) {
    expect_same_as_reference(candidate.file.content, candidate.file.name);
  }
}

TEST(LexerDifferentialTest, HostileEdges) {
  const std::vector<std::string> cases = {
      // Line continuations: \n and \r\n, inside and at the end of # lines,
      // stray backslashes, and continuations that end the input.
      "#pragma acc parallel \\\n loop \\\r\n gang\nint x;",
      "#pragma omp target \\\r\n map(to: a)\r\nx\r\ny",
      "#pragma acc kernels\\",
      "#pragma acc kernels \\\r",
      "#define A 1 \\\n + 2\nint a = A;",
      "int a = 1; \\\n int b;",
      "#  pragma acc loop\n#\tpragma omp simd\n# pragmas\n#\n#pragma",
      "# pragma\n#\tpragma\n# pragma",
      "#include <stdio.h>\\\n#include <x.h>\n# include <y.h>\n#includes",
      "#pragma acc loop\r\r\n#pragma acc\rloop\n",
      // Unterminated strings, chars and comments, at every kind of end.
      "\"never closed", "\"ends at newline\nint x;", "\"esc at end\\",
      "'a", "'\\", "'ab\nc'", "/* open forever", "/* open\n\n forever *",
      "/*/ x", "// no newline at end", "\"a\\\nb\" c",
      "\"\\r\\n\\t\\0\\q\\\\\\\"\" '\\r' '\\t' '\\0' '\\''",
      // Stray characters, past the 20-report cap.
      std::string(30, '@') + "\nint x; $ ` \\ \x01 \x7f \x80 \xff",
      std::string("a\0b\0c", 5),
      // Redefined macros, macros expanding to #-text, nested defines.
      "#define N 4\nint a = N;\n#define N 8 + 1\nint b = N;\n#define N\nN;",
      "#define P #pragma acc parallel loop\nP\nint x;",
      "#define D #define Q 1\nD Q",
      "#define int long long\nint x;",
      "#define S \"str\nint s = S;",
      "#define C /* open\nint c = C; C",
      "#define X @ $ 1\nX X X X X X X X X X X X X X X X X X X X X X",
      "#define   W\t a  \t b   c  \nW",
      "#defineZ 1 2\n1 Z",
      // Numbers.
      "0.5e-3 0.5E+2 0e1 0.25f 0x1F 0X1E 1x2e5 7L5 12ul .5 1.2.3 0x 1e 1e+",
      "00x1F 0xfF.5p3 9f 0LL 1uU 3.f .e1 0.5e-",
      // Punctuators, longest match.
      "<<= >>= &= |= ^= %= -> ->* ... ++= --- a-->b !== ===",
      "",
      "\n\n\n",
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    expect_same_as_reference(cases[i], "case " + std::to_string(i));
  }
}

TEST(LexerDifferentialTest, RandomBytesAndSplicedCorpus) {
  // Random bytes over an alphabet dense in the lexer's special characters,
  // and corpus files with random hostile fragments spliced in.
  const std::string alphabet =
      "ab_Z09xXeEfFlLuU.+-*/%&|^~!<>=()[]{};:,?#\"'\\\r\n\t @$pragma ";
  auto gen = testutil::corpus_config(Flavor::kOpenACC, 40, 31);
  gen.cpp_share = 0.5;
  const auto suite = corpus::generate_suite(gen);
  support::Rng rng(0x1E4E5ULL);
  for (int round = 0; round < 400; ++round) {
    std::string text;
    const auto length = rng.next_below(200);
    for (std::uint64_t i = 0; i < length; ++i) {
      text += rng.chance(0.05)
                  ? static_cast<char>(rng.next_below(256))
                  : alphabet[rng.next_below(alphabet.size())];
    }
    expect_same_as_reference(text, "random round " + std::to_string(round));

    std::string spliced =
        suite.cases[rng.next_below(suite.cases.size())].file.content;
    for (int cut = 0; cut < 3; ++cut) {
      const auto at = rng.next_below(spliced.size() + 1);
      const auto fragment = text.substr(0, rng.next_below(12));
      spliced.insert(at, fragment);
    }
    expect_same_as_reference(spliced,
                             "spliced round " + std::to_string(round));
  }
}

}  // namespace
}  // namespace llm4vv::frontend
