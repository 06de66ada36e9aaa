#include "serve/protocol.hpp"

#include "common/error.hpp"
#include "common/text_reader.hpp"

namespace streamflow {

namespace {

/// Cursor over one request line with position-stamped failures.
struct Cursor {
  const std::string& line;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw InvalidArgument("request byte " + std::to_string(pos + 1) + ": " +
                          what);
  }
  bool done() const { return pos >= line.size(); }
  char peek() const { return done() ? '\0' : line[pos]; }
  void skip_space() {
    while (!done() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
  }
  void expect(char c, const char* what) {
    skip_space();
    if (done() || line[pos] != c) fail(what);
    ++pos;
  }
};

std::string parse_string_token(Cursor& cursor) {
  // Opening quote already consumed.
  std::string out;
  for (;;) {
    if (cursor.done()) cursor.fail("unterminated string");
    const char c = cursor.line[cursor.pos++];
    if (c == '"') return out;
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (cursor.done()) cursor.fail("unterminated escape");
    const char escape = cursor.line[cursor.pos++];
    switch (escape) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'n': out.push_back('\n'); break;
      case 't': out.push_back('\t'); break;
      case 'r': out.push_back('\r'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      default:
        cursor.fail(std::string("unsupported escape '\\") + escape +
                    "' (the protocol is ASCII; \\u is not accepted)");
    }
  }
}

std::string parse_number_token(Cursor& cursor) {
  const std::size_t start = cursor.pos;
  if (cursor.peek() == '-') ++cursor.pos;
  const auto digits = [&cursor] {
    std::size_t n = 0;
    while (cursor.peek() >= '0' && cursor.peek() <= '9') {
      ++cursor.pos;
      ++n;
    }
    return n;
  };
  // JSON's integer part is a lone 0 or starts with 1-9: 007 is no number.
  const bool leading_zero = cursor.peek() == '0';
  const std::size_t integer_digits = digits();
  if (integer_digits == 0) cursor.fail("malformed number");
  if (leading_zero && integer_digits > 1)
    cursor.fail("malformed number (leading zero)");
  if (cursor.peek() == '.') {
    ++cursor.pos;
    if (digits() == 0) cursor.fail("malformed number (bare trailing dot)");
  }
  if (cursor.peek() == 'e' || cursor.peek() == 'E') {
    ++cursor.pos;
    if (cursor.peek() == '+' || cursor.peek() == '-') ++cursor.pos;
    if (digits() == 0) cursor.fail("malformed number (empty exponent)");
  }
  return cursor.line.substr(start, cursor.pos - start);
}

bool consume_keyword(Cursor& cursor, const char* word) {
  const std::size_t len = std::char_traits<char>::length(word);
  if (cursor.line.compare(cursor.pos, len, word) != 0) return false;
  cursor.pos += len;
  return true;
}

JsonValue parse_value(Cursor& cursor) {
  cursor.skip_space();
  if (cursor.done()) cursor.fail("missing value");
  JsonValue value;
  const char c = cursor.peek();
  if (c == '"') {
    ++cursor.pos;
    value.kind = JsonValue::Kind::kString;
    value.text = parse_string_token(cursor);
  } else if (c == '{' || c == '[') {
    cursor.fail("nested objects/arrays are not part of the flat protocol");
  } else if (consume_keyword(cursor, "true")) {
    value.kind = JsonValue::Kind::kBool;
    value.flag = true;
  } else if (consume_keyword(cursor, "false")) {
    value.kind = JsonValue::Kind::kBool;
  } else if (consume_keyword(cursor, "null")) {
    value.kind = JsonValue::Kind::kNull;
  } else {
    value.kind = JsonValue::Kind::kNumber;
    value.text = parse_number_token(cursor);
  }
  return value;
}

const char* kind_name(JsonValue::Kind kind) {
  switch (kind) {
    case JsonValue::Kind::kString: return "string";
    case JsonValue::Kind::kNumber: return "number";
    case JsonValue::Kind::kBool: return "boolean";
    case JsonValue::Kind::kNull: return "null";
  }
  return "?";
}

}  // namespace

FlatRequest FlatRequest::parse(const std::string& line) {
  Cursor cursor{line};
  cursor.expect('{', "expected '{' opening the request object");
  FlatRequest request;
  cursor.skip_space();
  if (cursor.peek() != '}') {
    for (;;) {
      cursor.expect('"', "expected a quoted field name");
      std::string key = parse_string_token(cursor);
      for (const auto& [seen, value] : request.fields_) {
        (void)value;
        if (seen == key) cursor.fail("duplicate field \"" + key + "\"");
      }
      cursor.expect(':', "expected ':' after field name");
      request.fields_.emplace_back(std::move(key), parse_value(cursor));
      cursor.skip_space();
      if (cursor.peek() == ',') {
        ++cursor.pos;
        continue;
      }
      break;
    }
  }
  cursor.expect('}', "expected ',' or '}' (truncated request?)");
  cursor.skip_space();
  if (!cursor.done()) cursor.fail("trailing bytes after the request object");
  request.taken_.assign(request.fields_.size(), false);
  return request;
}

const JsonValue* FlatRequest::take(const std::string& key,
                                   JsonValue::Kind kind,
                                   const char* kind_name_text) {
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].first != key) continue;
    taken_[i] = true;
    if (fields_[i].second.kind != kind) {
      throw InvalidArgument("field \"" + key + "\" must be a " +
                            kind_name_text + " (got " +
                            kind_name(fields_[i].second.kind) + ")");
    }
    return &fields_[i].second;
  }
  return nullptr;
}

std::string FlatRequest::take_id() {
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].first != "id") continue;
    taken_[i] = true;
    const JsonValue& value = fields_[i].second;
    if (value.kind == JsonValue::Kind::kString) {
      return std::string("\"").append(json_escape(value.text)).append("\"");
    }
    if (value.kind == JsonValue::Kind::kNumber) return value.text;
    throw InvalidArgument("field \"id\" must be a string or a number");
  }
  return "";
}

std::string FlatRequest::take_string(const std::string& key) {
  const JsonValue* value = take(key, JsonValue::Kind::kString, "string");
  if (value == nullptr) {
    throw InvalidArgument("missing required field \"" + key + "\"");
  }
  return value->text;
}

std::string FlatRequest::take_string_or(const std::string& key,
                                        std::string fallback) {
  const JsonValue* value = take(key, JsonValue::Kind::kString, "string");
  return value == nullptr ? std::move(fallback) : value->text;
}

std::uint64_t FlatRequest::take_u64_or(const std::string& key,
                                       std::uint64_t fallback) {
  const JsonValue* value = take(key, JsonValue::Kind::kNumber, "number");
  if (value == nullptr) return fallback;
  std::uint64_t parsed = 0;
  if (const char* why = parse_number(value->text, parsed)) {
    throw InvalidArgument("field \"" + key + "\" must be a nonnegative "
                          "integer (got '" + value->text + "': " + why + ")");
  }
  return parsed;
}

void FlatRequest::expect_exhausted() const {
  std::string unknown;
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (taken_[i]) continue;
    if (!unknown.empty()) unknown += ", ";
    unknown += "\"" + fields_[i].first + "\"";
  }
  if (!unknown.empty()) {
    throw InvalidArgument("unknown field(s) for this op: " + unknown);
  }
}

}  // namespace streamflow
