// The serve-mode wire protocol: one flat JSON object per line.
//
// A request is a single line holding one JSON object whose values are
// strings, numbers, booleans, or null — never nested objects or arrays.
// That restriction is deliberate: requests stay greppable, the parser
// stays small enough to audit, and a malformed line can always be rejected
// with a precise diagnostic before any work is scheduled. Multi-line
// payloads (a serialized instance, for example) travel as JSON strings
// with escaped newlines.
//
// Parsing is strict: duplicate keys, trailing bytes after the closing
// brace, nested containers, and unknown fields are all errors
// (InvalidArgument with a position diagnostic). Field access goes through
// FlatRequest's take_* accessors, which mark fields consumed;
// expect_exhausted() then rejects any field the handler did not recognize,
// so a typo'd option fails loudly instead of being silently ignored.
//
// Responses are emitted through the project's one JsonWriter
// (common/json.hpp), whose output is locale-free and bit-stable — the
// response byte stream is part of the determinism contract
// (tests/test_serve.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace streamflow {

/// One parsed request value. Numbers keep their raw token text so integer
/// fields can be range-checked without a double round-trip.
struct JsonValue {
  enum class Kind { kString, kNumber, kBool, kNull };
  Kind kind = Kind::kNull;
  std::string text;   ///< decoded string, or the raw number token
  bool flag = false;  ///< kBool only
};

/// One parsed request line. Accessors consume fields; expect_exhausted()
/// rejects leftovers. All throws are InvalidArgument.
class FlatRequest {
 public:
  /// Parses one line. Throws InvalidArgument("request ...") on anything
  /// but a single strict flat JSON object spanning the whole line.
  static FlatRequest parse(const std::string& line);

  /// Consumes the optional "id" field and returns it re-encoded as a raw
  /// JSON token ("\"name\"" or the number text), or "" when absent. Taken
  /// first by the dispatcher so error responses can echo it.
  std::string take_id();

  /// Consumes a required string field.
  std::string take_string(const std::string& key);
  /// Consumes an optional string field.
  std::string take_string_or(const std::string& key, std::string fallback);
  /// Consumes an optional nonnegative-integer field. Rejects negative,
  /// fractional, and out-of-range numbers.
  std::uint64_t take_u64_or(const std::string& key, std::uint64_t fallback);

  /// Throws listing every field no take_* call consumed.
  void expect_exhausted() const;

 private:
  const JsonValue* take(const std::string& key, JsonValue::Kind kind,
                        const char* kind_name);

  std::vector<std::pair<std::string, JsonValue>> fields_;
  std::vector<bool> taken_;
};

}  // namespace streamflow
