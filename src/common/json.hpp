// The one JSON writer: serve responses, the bench --json summaries and the
// fuzz report are all emitted through JsonWriter.
//
// Output is locale-free and bit-stable, because the serve response byte
// stream is part of the determinism contract (tests/test_serve.cpp).
// Doubles print with %.17g, which round-trips every finite double exactly.
// JSON has no literal for infinities or NaN, so a non-finite double is
// written as null and the output always parses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace streamflow {

/// `text` with JSON string escaping applied (quotes not included).
std::string json_escape(const std::string& text);

/// Ordered single-line JSON object emitter; field order is insertion order.
/// Every field call returns the writer, so fields chain.
class JsonWriter {
 public:
  JsonWriter& string_field(const std::string& key, const std::string& value);
  /// %.17g, or null when `value` is not finite.
  JsonWriter& number_field(const std::string& key, double value);
  JsonWriter& integer_field(const std::string& key, std::uint64_t value);
  JsonWriter& bool_field(const std::string& key, bool value);
  /// Appends `json` verbatim as the field's value (for nested writers and
  /// echoed ids).
  JsonWriter& raw_field(const std::string& key, const std::string& json);
  /// Appends an array whose elements are the complete JSON values
  /// `elements`, in order.
  JsonWriter& array_field(const std::string& key,
                          const std::vector<std::string>& elements);

  /// The complete object, braces included.
  std::string str() const;

 private:
  void begin_field(const std::string& key);
  std::string body_;
};

}  // namespace streamflow
