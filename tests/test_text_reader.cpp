// The common/ text reader: the number grammar every parser shares, the
// line cursor's comments, columns and diagnostics, and the bit identity of
// every number in the committed fixtures against the strtod / stream /
// strtoull reads the parsers used before (tests/support/number_reference).
#include "common/text_reader.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "serve/protocol.hpp"
#include "support/number_reference.hpp"

#ifndef STREAMFLOW_FIXTURE_DIR
#define STREAMFLOW_FIXTURE_DIR "tests/fixtures"
#endif

namespace streamflow {
namespace {

template <typename T>
bool accepts(std::string_view token) {
  T value{};
  return parse_number(token, value) == nullptr;
}

TEST(TextReader, DoubleGrammar) {
  for (const char* good :
       {"1", "-0.5", ".5", "2.", "1e-3", "6.02E23", "-0",
        "4.9406564584124654e-324", "1.7976931348623157e308"}) {
    EXPECT_TRUE(accepts<double>(good)) << good;
  }
  for (const char* bad : {"", " 1", "1 ", "+1", "0x10", "0x1p3", "inf", "-inf",
                          "infinity", "nan", "NaN", "1e999", "-1e999",
                          "1e-400", "1e", "--1", "1,", "1.5.2"}) {
    EXPECT_FALSE(accepts<double>(bad)) << bad;
  }
  double value = 0.0;
  EXPECT_STREQ(parse_number("1e999", value), "out of range");
  EXPECT_STREQ(parse_number("1e-400", value), "out of range");
  EXPECT_STREQ(parse_number("nan", value), "not finite");
  EXPECT_STREQ(parse_number("0x10", value), "not a number");
}

TEST(TextReader, UnsignedGrammar) {
  std::uint64_t value = 0;
  EXPECT_EQ(parse_number("18446744073709551615", value), nullptr);
  EXPECT_EQ(value, UINT64_MAX);
  EXPECT_STREQ(parse_number("18446744073709551616", value), "out of range");
  EXPECT_STREQ(parse_number("-18446744073709551615", value), "negative");
  EXPECT_STREQ(parse_number("-0", value), "negative");
  for (const char* bad : {"", "+1", " 1", "1.0", "1e3", "0x10", "1 "}) {
    EXPECT_STREQ(parse_number(bad, value), "not an integer") << bad;
  }
  std::int64_t signed_value = 0;
  EXPECT_EQ(parse_number("-5", signed_value), nullptr);
  EXPECT_EQ(signed_value, -5);
  EXPECT_STREQ(parse_number("9223372036854775808", signed_value),
               "out of range");
}

TEST(TextReader, HexGrammar) {
  std::uint64_t bits = 0;
  EXPECT_EQ(parse_hex("3FF0000000000000", bits), nullptr);
  EXPECT_EQ(bits, std::bit_cast<std::uint64_t>(1.0));
  EXPECT_EQ(parse_hex("ffffffffffffffff", bits), nullptr);
  EXPECT_EQ(bits, UINT64_MAX);
  EXPECT_EQ(parse_hex("0", bits), nullptr);
  for (const char* bad : {"", "-1", "+5", "0x12", "10000000000000000", "g",
                          " 1", "1 "}) {
    EXPECT_NE(parse_hex(bad, bits), nullptr) << bad;
  }
}

TEST(TextReader, LinesCommentsAndColumns) {
  TextReader reader("# header comment\n\n  stages 2 # tail\r\nworks 1\tx",
                    "demo");
  ASSERT_TRUE(reader.next_line());
  EXPECT_EQ(reader.line(), "stages 2");
  EXPECT_EQ(reader.token(), "stages");
  EXPECT_EQ(reader.number<std::size_t>("count"), 2u);
  EXPECT_TRUE(reader.at_line_end());
  EXPECT_EQ(reader.offset(), 37u);  // the start of "works"
  ASSERT_TRUE(reader.next_line());
  EXPECT_EQ(reader.token(), "works");
  EXPECT_EQ(reader.number<double>("work"), 1.0);
  try {
    reader.number<double>("work");
    ADD_FAILURE() << "no throw";
  } catch (const InvalidArgument& error) {
    EXPECT_STREQ(error.what(),
                 "demo parse error at line 4, column 9: bad work 'x' (not a "
                 "number)");
  }
  EXPECT_FALSE(reader.next_line());
  EXPECT_EQ(reader.line(), "");
  EXPECT_EQ(reader.token(), "");
}

TEST(TextReader, MissingAndTrailingTokensAreNamed) {
  TextReader reader("link 0 1\nstages 2 3\n", "demo");
  ASSERT_TRUE(reader.next_line());
  reader.token();
  reader.number<std::size_t>("p");
  reader.number<std::size_t>("q");
  EXPECT_THROW(reader.number<double>("bandwidth"), InvalidArgument);
  ASSERT_TRUE(reader.next_line());
  reader.token();
  reader.number<std::size_t>("count");
  try {
    reader.expect_line_end("stages");
    ADD_FAILURE() << "no throw";
  } catch (const InvalidArgument& error) {
    EXPECT_STREQ(error.what(),
                 "demo parse error at line 2, column 10: trailing token '3' "
                 "on stages line");
  }
}

// ---- Fixture bit identity -----------------------------------------------

/// Checks every numeric token of the committed fixtures: the reader must
/// accept it and give the reference's exact bits.
class FixtureNumbers {
 public:
  void real(std::string_view token, bool stream_reference) {
    ++count_;
    double value = 0.0;
    ASSERT_EQ(parse_number(token, value), nullptr) << token;
    const std::string text(token);
    const auto c_library = reference::strtod_double(text);
    ASSERT_TRUE(c_library.has_value()) << token;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(value),
              std::bit_cast<std::uint64_t>(*c_library))
        << token;
    if (!stream_reference) return;
    const auto stream = reference::stream_double(text);
    ASSERT_TRUE(stream.has_value()) << token;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(value),
              std::bit_cast<std::uint64_t>(*stream))
        << token;
  }
  void integer(std::string_view token) {
    ++count_;
    std::uint64_t value = 0;
    ASSERT_EQ(parse_number(token, value), nullptr) << token;
    EXPECT_EQ(std::optional(value), reference::stream_u64(std::string(token)))
        << token;
  }
  void hex(std::string_view token) {
    ++count_;
    std::uint64_t value = 0;
    ASSERT_EQ(parse_hex(token, value), nullptr) << token;
    EXPECT_EQ(std::optional(value),
              reference::strtoull_hex(std::string(token)))
        << token;
  }
  void law(std::string_view spec) {
    spec.remove_prefix(spec.find(':') + 1);
    for (;;) {
      const std::size_t comma = spec.find(',');
      real(spec.substr(0, comma), false);
      if (comma == std::string_view::npos) return;
      spec.remove_prefix(comma + 1);
    }
  }

  /// Instance and scenario lines (the instance block of a scenario is
  /// walked in place).
  void model_text(std::string_view text) {
    TextReader reader(text, "fixture");
    while (reader.next_line()) {
      const std::string_view keyword = reader.token();
      if (keyword == "law") {
        law(reader.token());
      } else if (keyword == "works" || keyword == "files" ||
                 keyword == "speeds") {
        while (!reader.at_line_end()) real(reader.token(), true);
      } else if (keyword == "link") {
        integer(reader.token());
        integer(reader.token());
        real(reader.token(), true);
      } else if (keyword == "id" || keyword == "stages" ||
                 keyword == "processors" || keyword == "team") {
        while (!reader.at_line_end()) integer(reader.token());
      }
    }
  }

  void snapshot(std::string_view text) {
    TextReader reader(text, "fixture");
    while (reader.next_line()) {
      const std::string_view keyword = reader.token();
      if (keyword == "entries") {
        integer(reader.token());
      } else if (keyword == "entry") {
        for (int k = 0; k < 3; ++k) integer(reader.token());
        while (!reader.at_line_end()) {
          const std::string_view token = reader.token();
          if (token != "rate") hex(token);
        }
      } else if (keyword == "digest") {
        hex(reader.token());
      }
    }
  }

  std::size_t count() const { return count_; }

 private:
  std::size_t count_ = 0;
};

std::filesystem::path fixtures() { return STREAMFLOW_FIXTURE_DIR; }

TEST(TextReader, FixtureNumbersKeepTheirBits) {
  FixtureNumbers numbers;
  std::size_t scenarios = 0;
  for (const auto& entry : std::filesystem::directory_iterator(fixtures())) {
    if (entry.path().extension() != ".scenario") continue;
    ++scenarios;
    numbers.model_text(read_text_file(entry.path().string(), "fixture"));
  }
  EXPECT_EQ(scenarios, 15u);
  const std::size_t after_scenarios = numbers.count();
  EXPECT_GT(after_scenarios, 800u);

  numbers.model_text(
      read_text_file((fixtures() / "serve" / "het.inst").string(), "fixture"));
  const std::string requests = read_text_file(
      (fixtures() / "serve" / "requests.jsonl").string(), "fixture");
  std::size_t instances = 0;
  for (std::string_view rest = requests; !rest.empty();) {
    const std::size_t newline = rest.find('\n');
    FlatRequest request =
        FlatRequest::parse(std::string(rest.substr(0, newline)));
    const std::string instance = request.take_string_or("instance", "");
    if (!instance.empty()) ++instances;
    numbers.model_text(instance);
    const std::string law = request.take_string_or("law", "");
    if (!law.empty()) numbers.law(law);
    rest.remove_prefix(newline == std::string_view::npos ? rest.size()
                                                         : newline + 1);
  }
  EXPECT_EQ(instances, 5u);
  const std::size_t after_serve = numbers.count();
  EXPECT_GT(after_serve, after_scenarios + 100);

  for (const char* name : {"bad_version.snapshot", "corrupt_digest.snapshot",
                           "truncated.snapshot"}) {
    numbers.snapshot(read_text_file(
        (fixtures() / "pattern_store" / name).string(), "fixture"));
  }
  EXPECT_GT(numbers.count(), after_serve + 10);
}

}  // namespace
}  // namespace streamflow
