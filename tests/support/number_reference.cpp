#include "support/number_reference.hpp"

#include <cerrno>
#include <cstdlib>
#include <sstream>

namespace streamflow::reference {

namespace {

/// Runs `read` over all of `token`: the stream must not fail and must
/// reach the end of the token.
template <typename T, typename Read>
std::optional<T> whole_stream(const std::string& token, Read read) {
  std::istringstream in(token);
  T value{};
  read(in, value);
  if (in.fail() || in.peek() != std::char_traits<char>::eof()) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

std::optional<double> strtod_double(const std::string& token) {
  if (token.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) return std::nullopt;
  return value;
}

std::optional<double> stream_double(const std::string& token) {
  return whole_stream<double>(token,
                              [](std::istream& in, double& v) { in >> v; });
}

std::optional<std::uint64_t> stream_u64(const std::string& token) {
  return whole_stream<std::uint64_t>(
      token, [](std::istream& in, std::uint64_t& v) { in >> v; });
}

std::optional<std::uint64_t> strtoull_hex(const std::string& token) {
  if (token.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 16);
  if (end != token.c_str() + token.size() || errno == ERANGE) {
    return std::nullopt;
  }
  return value;
}

}  // namespace streamflow::reference
