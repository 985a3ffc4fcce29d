#pragma once

// Minimal JSON support for the telemetry subsystem: string/number emission
// helpers for the writers, and a small recursive-descent DOM parser used by
// the validators and tests. No external dependencies.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace insta::telemetry {

/// Escapes a string for embedding between JSON double quotes (quotes,
/// backslashes, control characters).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Formats a double as a JSON number. Non-finite values (which JSON cannot
/// represent) are emitted as null.
[[nodiscard]] std::string json_number(double v);

/// One parsed JSON value. Object member order is preserved.
class JsonValue {
 public:
  enum class Type : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] bool is_object() const { return type == Type::kObject; }
  [[nodiscard]] bool is_array() const { return type == Type::kArray; }
  [[nodiscard]] bool is_number() const { return type == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type == Type::kString; }

  /// Object member lookup; nullptr if absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
};

/// Parses a complete JSON document (with trailing whitespace allowed).
/// Returns false and fills `error` with a position-tagged message on
/// malformed input.
bool json_parse(std::string_view text, JsonValue& out, std::string& error);

}  // namespace insta::telemetry
