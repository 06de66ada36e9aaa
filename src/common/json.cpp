#include "common/json.hpp"

#include <cmath>
#include <cstdio>

namespace streamflow {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void JsonWriter::begin_field(const std::string& key) {
  if (!body_.empty()) body_ += ",";
  body_.append("\"").append(json_escape(key)).append("\":");
}

JsonWriter& JsonWriter::string_field(const std::string& key,
                                     const std::string& value) {
  begin_field(key);
  body_.append("\"").append(json_escape(value)).append("\"");
  return *this;
}

JsonWriter& JsonWriter::number_field(const std::string& key, double value) {
  if (!std::isfinite(value)) return raw_field(key, "null");
  begin_field(key);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  body_ += buf;
  return *this;
}

JsonWriter& JsonWriter::integer_field(const std::string& key,
                                      std::uint64_t value) {
  begin_field(key);
  body_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::bool_field(const std::string& key, bool value) {
  begin_field(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::raw_field(const std::string& key,
                                  const std::string& json) {
  begin_field(key);
  body_ += json;
  return *this;
}

JsonWriter& JsonWriter::array_field(const std::string& key,
                                    const std::vector<std::string>& elements) {
  begin_field(key);
  body_ += "[";
  for (std::size_t i = 0; i < elements.size(); ++i) {
    if (i > 0) body_ += ",";
    body_ += elements[i];
  }
  body_ += "]";
  return *this;
}

std::string JsonWriter::str() const { return "{" + body_ + "}"; }

}  // namespace streamflow
