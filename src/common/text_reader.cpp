#include "common/text_reader.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>

#include "common/error.hpp"

namespace streamflow {

namespace {

// A character test, not find_first_of over a set: the set scan costs a
// memchr per byte, which made it most of an instance parse. '\t' through
// '\r' are '\t' '\n' '\v' '\f' '\r'; a line holds no '\n'.
bool is_space(char c) {
  return c == ' ' || static_cast<unsigned char>(c - '\t') <= '\r' - '\t';
}

/// The first index at or after `pos` whose is_space() is not `space`.
std::size_t skip(std::string_view text, std::size_t pos, bool space) {
  while (pos < text.size() && is_space(text[pos]) == space) ++pos;
  return pos;
}

}  // namespace

const char* parse_hex(std::string_view token, std::uint64_t& out) {
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, out, 16);
  const bool ok = !token.empty() && token.size() <= 16 &&
                  error == std::errc() && stop == end;
  return ok ? nullptr : "not 1-16 hex digits";
}

std::string read_text_file(const std::string& path, std::string_view what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw InvalidArgument("cannot open " + std::string(what) + " '" + path +
                          "'");
  }
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

bool TextReader::next_line() {
  pos_ = 0;
  while (next_ < text_.size()) {
    const std::size_t end = std::min(text_.find('\n', next_), text_.size());
    std::string_view raw = text_.substr(next_, end - next_);
    next_ = std::min(end + 1, text_.size());
    ++line_number_;
    raw = raw.substr(0, raw.find('#'));
    const std::size_t first = skip(raw, 0, true);
    if (first == raw.size()) continue;
    std::size_t last = raw.size();
    while (is_space(raw[last - 1])) --last;
    raw_line_ = raw.data();
    line_ = raw.substr(first, last - first);
    column_ = first + 1;
    return true;
  }
  line_ = {};
  return false;
}

std::string_view TextReader::token() {
  const std::size_t begin = skip(line_, pos_, true);
  pos_ = skip(line_, begin, false);
  if (begin < pos_) column_ = line_.data() + begin - raw_line_ + 1;
  return line_.substr(begin, pos_ - begin);
}

bool TextReader::at_line_end() const {
  return skip(line_, pos_, true) == line_.size();
}

void TextReader::expect_line_end(std::string_view what) {
  if (at_line_end()) return;
  const std::string extra(token());
  fail("trailing token '" + extra + "' on " + std::string(what) + " line");
}

void TextReader::fail(const std::string& what) const {
  throw InvalidArgument(std::string(format_) + " parse error at line " +
                        std::to_string(line_number_) + ", column " +
                        std::to_string(column_) + ": " + what);
}

}  // namespace streamflow
