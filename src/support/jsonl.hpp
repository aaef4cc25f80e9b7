#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace llm4vv::support {

/// Incremental builder for one JSON object, emitted as a single line
/// (JSON Lines). Experiment runners use it to persist per-file records:
/// every value is escaped, keys are emitted in insertion order, and the
/// output is valid standalone JSON.
class JsonObject {
 public:
  /// Add a string field.
  JsonObject& field(const std::string& key, const std::string& value);

  /// String-literal values must land on the string overload — without this
  /// the `const char*` -> bool standard conversion outranks constructing a
  /// std::string, and field("k", "v") silently emits "k":true.
  JsonObject& field(const std::string& key, const char* value) {
    return field(key, std::string(value));
  }

  /// Add an integer field.
  JsonObject& field(const std::string& key, std::int64_t value);

  /// Add a boolean field.
  JsonObject& field(const std::string& key, bool value);

  /// Add a floating-point field (formatted with up to 6 significant digits;
  /// NaN/inf are emitted as null per strict JSON).
  JsonObject& field(const std::string& key, double value);

  /// Serialize as a single JSON object line (no trailing newline).
  std::string str() const;

 private:
  std::vector<std::string> parts_;
};

/// Escape a string for inclusion in JSON output (quotes not included).
std::string json_escape(const std::string& text);

/// %.17g rendering of a double: the single definition of the exact
/// round-trip rule used wherever a persisted double must survive a
/// save/parse cycle bit-identically (the judge's artifact-store codec
/// embeds latencies through this). Non-finite values render as "null".
std::string format_double_roundtrip(double value);

/// One parsed JSON scalar. The JSONL dialect this library writes (and the
/// artifact store persists) only ever puts scalars in object values, so the
/// reader models exactly that: strings, numbers, booleans, and null.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;

  bool is_string() const noexcept { return kind == Kind::kString; }
  bool is_number() const noexcept { return kind == Kind::kNumber; }
};

/// Parse one JSON object line (the complement of JsonObject::str). Returns
/// std::nullopt on any syntax error — a truncated line parses as "not an
/// object" rather than throwing, so a reader can reject it and go on.
/// Duplicate keys keep
/// the last value. Nested objects/arrays are rejected (the writer never
/// produces them).
std::optional<std::map<std::string, JsonValue>> parse_json_object_line(
    std::string_view line);

}  // namespace llm4vv::support
