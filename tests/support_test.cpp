#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <thread>

#include "support/cli.hpp"
#include "support/jsonl.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace llm4vv::support {
namespace {

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(RngTest, NextBelowOneIsZero) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(RngTest, NextBelowZeroThrows) {
  Rng rng(7);
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(RngTest, NextInInclusiveBounds) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.next_in(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values reachable
}

TEST(RngTest, NextInReversedThrows) {
  Rng rng(3);
  EXPECT_THROW(rng.next_in(1, 0), std::invalid_argument);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-1.0));
    EXPECT_TRUE(rng.chance(2.0));
  }
}

TEST(RngTest, ChanceApproximatesProbability) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ForkIndependentOfParentContinuation) {
  Rng a(21);
  Rng fork = a.fork();
  // The fork and the parent's subsequent stream should differ.
  EXPECT_NE(fork.next_u64(), a.next_u64());
}

TEST(RngTest, PickThrowsOnEmpty) {
  Rng rng(1);
  std::vector<int> empty;
  EXPECT_THROW(rng.pick(empty), std::invalid_argument);
}

TEST(RngTest, PickReturnsMember) {
  Rng rng(1);
  const std::vector<int> v{10, 20, 30};
  for (int i = 0; i < 50; ++i) {
    const int p = rng.pick(v);
    EXPECT_TRUE(p == 10 || p == 20 || p == 30);
  }
}

TEST(HashTest, Fnv1aMatchesKnownVector) {
  // FNV-1a 64 of empty string is the offset basis.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
}

// ---------------------------------------------------------------------------
// strings
// ---------------------------------------------------------------------------

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringsTest, SplitSingleField) {
  EXPECT_EQ(split("abc", ',').size(), 1u);
}

TEST(StringsTest, SplitLinesHandlesCrLf) {
  const auto lines = split_lines("a\r\nb\nc\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[2], "c");
}

TEST(StringsTest, SplitLinesNoTrailingEmpty) {
  EXPECT_EQ(split_lines("x\n").size(), 1u);
  EXPECT_EQ(split_lines("x").size(), 1u);
  EXPECT_EQ(split_lines("").size(), 0u);
}

TEST(StringsTest, SplitWhitespaceCollapsesRuns) {
  const auto words = split_whitespace("  a\t\tb  c ");
  ASSERT_EQ(words.size(), 3u);
  EXPECT_EQ(words[0], "a");
  EXPECT_EQ(words[2], "c");
}

TEST(StringsTest, TrimBothEnds) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim(""), "");
}

TEST(StringsTest, JoinWithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(starts_with("#pragma acc", "#pragma"));
  EXPECT_FALSE(starts_with("#prag", "#pragma"));
  EXPECT_TRUE(ends_with("file.c", ".c"));
  EXPECT_FALSE(ends_with("c", ".c"));
}

TEST(StringsTest, ContainsAndIcontains) {
  EXPECT_TRUE(contains("Hello World", "o W"));
  EXPECT_FALSE(contains("abc", "x"));
  EXPECT_TRUE(icontains("Test PASSED", "passed"));
  EXPECT_TRUE(icontains("FAILED", "failed"));
  EXPECT_FALSE(icontains("short", "longer-needle"));
  EXPECT_TRUE(icontains("anything", ""));
}

TEST(StringsTest, ReplaceAllEveryOccurrence) {
  EXPECT_EQ(replace_all("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(replace_all("no hits", "x", "y"), "no hits");
  EXPECT_EQ(replace_all("{V} + {V}", "{V}", "sum"), "sum + sum");
}

TEST(StringsTest, IndentEachLine) {
  EXPECT_EQ(indent("a\nb", 2), "  a\n  b");
  EXPECT_EQ(indent("a\n\nb", 2), "  a\n\n  b");  // empty lines untouched
}

TEST(StringsTest, FormatFixedAndPercent) {
  EXPECT_EQ(format_fixed(0.5666, 2), "0.57");
  EXPECT_EQ(format_percent(0.5663), "57%");
  EXPECT_EQ(format_percent(1.0), "100%");
  EXPECT_EQ(format_percent(0.0), "0%");
}

// ---------------------------------------------------------------------------
// TextTable
// ---------------------------------------------------------------------------

TEST(TableTest, RendersHeaderAndRows) {
  TextTable t({"k", "v"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TableTest, RowWidthMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TableTest, EmptyHeaderThrows) {
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(TableTest, AlignmentMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.set_alignments({Align::kLeft}), std::invalid_argument);
}

TEST(TableTest, RuleDoesNotCountAsRow) {
  TextTable t({"a"});
  t.add_row({"x"});
  t.add_rule();
  t.add_row({"y"});
  EXPECT_EQ(t.row_count(), 2u);
}

// ---------------------------------------------------------------------------
// JSONL
// ---------------------------------------------------------------------------

TEST(JsonTest, EscapesControlCharacters) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonTest, BuildsObjectInOrder) {
  JsonObject obj;
  obj.field("name", std::string("x")).field("count", std::int64_t{3})
      .field("ok", true).field("ratio", 0.5);
  EXPECT_EQ(obj.str(),
            "{\"name\":\"x\",\"count\":3,\"ok\":true,\"ratio\":0.5}");
}

TEST(JsonTest, NonFiniteBecomesNull) {
  JsonObject obj;
  obj.field("bad", std::nan(""));
  EXPECT_EQ(obj.str(), "{\"bad\":null}");
}

// ---------------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------------

TEST(CliTest, ParsesFlagForms) {
  // Note: a bare `--flag` followed by a non-flag word consumes the word as
  // its value, so the boolean form must be last or followed by a flag.
  const char* argv[] = {"prog", "positional", "--name", "value", "--num=7",
                        "--flag"};
  CliArgs args(6, argv);
  EXPECT_EQ(args.get("name", ""), "value");
  EXPECT_EQ(args.get_int("num", 0), 7);
  EXPECT_TRUE(args.has("flag"));
  EXPECT_EQ(args.get("flag", ""), "true");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
}

TEST(CliTest, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_EQ(args.get("missing", "default"), "default");
  EXPECT_EQ(args.get_int("missing", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.5), 1.5);
}

TEST(CliTest, BadIntegerThrows) {
  const char* argv[] = {"prog", "--n=abc"};
  CliArgs args(2, argv);
  EXPECT_THROW(args.get_int("n", 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Stopwatch
// ---------------------------------------------------------------------------

TEST(StopwatchTest, TimeAdvancesMonotonically) {
  Stopwatch w;
  const double t1 = w.seconds();
  const double t2 = w.seconds();
  EXPECT_GE(t2, t1);
  EXPECT_GE(t1, 0.0);
}

}  // namespace
}  // namespace llm4vv::support
