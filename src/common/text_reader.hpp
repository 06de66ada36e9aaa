// The one reader for every text format in src/ and the CLI. Lines: '#'
// starts a comment, blank lines are skipped, tokens split on spaces, tabs,
// '\r', '\v' and '\f'. Numbers: parse_number reads the whole token with
// std::from_chars, so a leading space or '+', a '-' on an unsigned, hex,
// inf/nan and any out-of-range value (a decimal that underflows to 0
// included) are rejected, and every accepted decimal rounds correctly.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace streamflow {

/// Reads all of `token` into `out`. Returns nullptr, or why the token is
/// not a T: "negative", "not an integer", "not a number", "out of range"
/// or "not finite".
template <typename T>
const char* parse_number(std::string_view token, T& out) {
  if (std::is_unsigned_v<T> && token.starts_with('-')) return "negative";
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, out);
  if (error == std::errc::invalid_argument || stop != end)
    return std::is_integral_v<T> ? "not an integer" : "not a number";
  if (error == std::errc::result_out_of_range) return "out of range";
  if constexpr (std::is_floating_point_v<T>)
    if (!std::isfinite(out)) return "not finite";
  return nullptr;
}

/// Reads 1-16 hex digits (no sign, no 0x) as a 64-bit pattern; same
/// contract as parse_number.
const char* parse_hex(std::string_view token, std::uint64_t& out);

/// The whole file; throws InvalidArgument "cannot open <what> '<path>'".
std::string read_text_file(const std::string& path, std::string_view what);

/// Cursor over the content lines of a text and the tokens of each line.
/// fail() throws InvalidArgument "<format> parse error at line L, column
/// C: <what>", where C is the column of the last token read.
class TextReader {
 public:
  TextReader(std::string_view text, std::string_view format)
      : text_(text), format_(format) {}

  /// Moves to the next content line; false, with an empty line, at the end.
  bool next_line();
  /// The current line, without its comment and surrounding whitespace.
  std::string_view line() const { return line_; }
  /// Byte offset of the first line next_line() has not read.
  std::size_t offset() const { return next_; }
  /// The next token of the current line; empty at the end of the line.
  std::string_view token();
  bool at_line_end() const;
  /// Fails with "trailing token '<t>' on <what> line" unless at_line_end().
  void expect_line_end(std::string_view what);
  [[noreturn]] void fail(const std::string& what) const;

  /// The next token as a T; fails naming `what` when it is missing or bad.
  template <typename T>
  T number(std::string_view what) {
    const std::string_view text = token();
    T value{};
    const char* why = text.empty() ? "missing" : parse_number(text, value);
    if (why != nullptr) {
      fail("bad " + std::string(what) + " '" + std::string(text) + "' (" +
           why + ")");
    }
    return value;
  }

 private:
  std::string_view text_, format_, line_;
  std::size_t next_ = 0, line_number_ = 0, pos_ = 0, column_ = 1;
  const char* raw_line_ = nullptr;  // first byte of the current raw line
};

}  // namespace streamflow
