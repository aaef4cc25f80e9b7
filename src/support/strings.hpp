#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace llm4vv::support {

/// Split `text` on a single-character separator. Empty fields are kept, so
/// `split("a,,b", ',')` yields {"a", "", "b"}.
std::vector<std::string> split(std::string_view text, char sep);

/// Split `text` into lines; accepts both "\n" and "\r\n" endings. A trailing
/// newline does not produce a final empty line.
std::vector<std::string> split_lines(std::string_view text);

/// Split on any run of ASCII whitespace; no empty fields are produced.
std::vector<std::string> split_whitespace(std::string_view text);

/// Strip leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text) noexcept;

/// Join the range with a separator: join({"a","b"}, ", ") == "a, b".
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `text` begins with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix) noexcept;

/// True if `text` ends with `suffix`.
bool ends_with(std::string_view text, std::string_view suffix) noexcept;

/// True if `haystack` contains `needle`.
bool contains(std::string_view haystack, std::string_view needle) noexcept;

/// Case-insensitive containment test (ASCII only).
bool icontains(std::string_view haystack, std::string_view needle) noexcept;

/// ASCII lowercase copy.
std::string to_lower(std::string_view text);

/// Replace every occurrence of `from` with `to`. `from` must be non-empty.
std::string replace_all(std::string_view text, std::string_view from,
                        std::string_view to);

/// Value of one hex digit (accepts both cases), or -1 when `c` is not a
/// hex digit. The single nibble decoder shared by the JSONL reader and the
/// module codec.
int hex_digit_value(char c) noexcept;

/// Format a double with fixed decimals, e.g. format_fixed(0.5666, 2) == "0.57".
std::string format_fixed(double value, int decimals);

/// Render a fraction as a percentage string the way the paper prints them:
/// format_percent(0.5663) == "57%" (rounded to the nearest integer).
std::string format_percent(double fraction);

}  // namespace llm4vv::support
