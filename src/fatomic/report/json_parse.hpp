// Minimal JSON reader — the inverse of report/json.cpp's emitters.  Exists
// so exported artifacts (campaign_json, Chrome traces, metrics) can be
// round-trip-validated by the test suite and post-processed by tools without
// an external dependency.  Accepts strict RFC 8259 JSON; objects preserve
// insertion order so dump() round-trips our own emitters byte-for-byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace fatomic::report {

class JsonValue;

/// Parsed JSON value.  Object members keep document order (vector of pairs,
/// not a map) — our emitters rely on ordering, and dump() must reproduce it.
class JsonValue {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;
  explicit JsonValue(Type t) : type_(t) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_bool() const { return type_ == Type::Bool; }
  bool is_number() const { return type_ == Type::Number; }
  bool is_string() const { return type_ == Type::String; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_object() const { return type_ == Type::Object; }

  bool boolean = false;
  /// Numbers are kept as doubles plus the original lexeme; dump() re-emits
  /// the lexeme so integer-valued numbers round-trip without float noise.
  double number = 0.0;
  std::string lexeme;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;
  /// Byte offset of the value's first character in the parsed document.
  std::size_t offset = 0;

  /// First member with the given key, or null when absent / not an object.
  const JsonValue* find(const std::string& key) const;
  /// find() that throws std::runtime_error naming the missing key.
  const JsonValue& at(const std::string& key) const;

  std::int64_t as_int() const { return static_cast<std::int64_t>(number); }

  /// Serializes back to compact JSON (no added whitespace).
  std::string dump() const;

 private:
  Type type_ = Type::Null;
};

/// Parses a complete JSON document.  Throws std::runtime_error with a byte
/// offset on malformed input, trailing garbage, or arrays and objects
/// nested deeper than 256 levels.
JsonValue json_parse(const std::string& text);

}  // namespace fatomic::report
