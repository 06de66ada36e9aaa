// Protocol battery for streamflow serve (serve/server.hpp).
//
// What is pinned here:
//  * the golden transcript: the checked-in request fixture replayed through
//    run_serve_loop must reproduce the checked-in response bytes exactly —
//    in every build configuration, for every thread count and batch size,
//    warm or cold pattern store;
//  * malformed-request rejection: truncated JSON, unknown ops, bad field
//    types, duplicate keys, and nested values each produce an "ok":false
//    diagnostic WITHOUT stopping the loop;
//  * cross-request determinism: the same request line yields byte-identical
//    responses no matter how often or in what interleaving it is served
//    (Debug builds additionally assert this inside the loop itself);
//  * graceful shutdown: the shutdown request's batch is drained and
//    answered, lines after it are never read;
//  * the JSON writer every response goes through (common/json.hpp):
//    non-finite numbers as null, escaping, nesting, and bit-exact double
//    round-trips through FlatRequest::parse.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/pattern_store.hpp"
#include "serve/protocol.hpp"

#ifndef STREAMFLOW_FIXTURE_DIR
#define STREAMFLOW_FIXTURE_DIR "tests/fixtures"
#endif

namespace streamflow {
namespace {

std::string read_fixture(const std::string& name) {
  const std::string path =
      std::string(STREAMFLOW_FIXTURE_DIR) + "/serve/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The analyze request of the golden transcript, re-usable standalone.
std::string analyze_request_line() {
  const std::string requests = read_fixture("requests.jsonl");
  std::istringstream in(requests);
  std::string line;
  std::getline(in, line);  // ping
  std::getline(in, line);  // analyze
  EXPECT_NE(line.find("\"analyze\""), std::string::npos);
  return line;
}

TEST(Serve, GoldenTranscript) {
  PatternStore store;
  ServeOptions options;
  options.threads = 2;
  options.store = &store;

  std::istringstream in(read_fixture("requests.jsonl"));
  std::ostringstream out;
  const ServeResult result = run_serve_loop(in, out, options);

  EXPECT_EQ(out.str(), read_fixture("responses.golden.jsonl"));
  EXPECT_EQ(result.requests, 7u);
  EXPECT_EQ(result.responses, 7u);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_TRUE(result.shutdown_requested);
}

TEST(Serve, BytesInvariantAcrossThreadsBatchingAndWarmth) {
  const std::string requests = read_fixture("requests.jsonl");
  const std::string golden = read_fixture("responses.golden.jsonl");

  PatternStore shared;
  struct Config {
    std::size_t threads;
    std::size_t max_batch;
    PatternStore* store;
  };
  // The last two configs reuse `shared`: the second of them serves every
  // analyze/search request from a warm store and must still emit the same
  // bytes as the cold run (its shutdown happens to reset nothing).
  const Config configs[] = {{1, 1, nullptr},
                            {4, 8, nullptr},
                            {2, 16, &shared},
                            {3, 5, &shared}};
  for (const Config& config : configs) {
    ServeOptions options;
    options.threads = config.threads;
    options.max_batch = config.max_batch;
    options.store = config.store;
    std::istringstream in(requests);
    std::ostringstream out;
    run_serve_loop(in, out, options);
    EXPECT_EQ(out.str(), golden)
        << config.threads << " threads, batch " << config.max_batch
        << (config.store ? ", shared store" : ", no store");
  }
  EXPECT_GT(shared.stats().entries, 0u);
}

TEST(Serve, MalformedRequestsAreRejectedWithDiagnostics) {
  ServeOptions options;
  options.threads = 1;
  const std::string analyze = analyze_request_line();
  const std::string instance_field =
      analyze.substr(analyze.find("\"instance\""));

  struct Case {
    const char* label;
    std::string line;
    const char* expect;  // substring of the error diagnostic
  };
  const Case cases[] = {
      {"truncated JSON", "{\"op\":\"analyze\"", "truncated request?"},
      {"unknown op", "{\"op\":\"frobnicate\"}", "unknown op 'frobnicate'"},
      {"bad seed", "{\"op\":\"simulate\",\"seed\":-1," + instance_field,
       "must be a nonnegative integer"},
      {"missing instance", "{\"op\":\"analyze\"}", "instance"},
      {"unknown field", "{\"op\":\"ping\",\"volume\":11}",
       "unknown field(s) for this op"},
      {"duplicate key", "{\"op\":\"ping\",\"op\":\"ping\"}",
       "duplicate field"},
      {"nested value", "{\"op\":\"analyze\",\"instance\":[1,2]}",
       "not part of the flat protocol"},
      {"bad model",
       "{\"op\":\"analyze\",\"model\":\"fast\"," + instance_field,
       "must be "},
      {"zero max_paths",
       "{\"op\":\"search\",\"max_paths\":0," + instance_field,
       "max_paths must be at least 1"},
      {"restarts above the cap",
       "{\"op\":\"search\",\"restarts\":1000000," + instance_field,
       "restarts must be at most 4096"},
      {"max_paths above INT64_MAX",
       "{\"op\":\"search\",\"max_paths\":9223372036854775808," +
           instance_field,
       "max_paths\\\" must be at most 9223372036854775807"},
      {"max_paths at UINT64_MAX",
       "{\"op\":\"search\",\"max_paths\":18446744073709551615," +
           instance_field,
       "max_paths\\\" must be at most 9223372036854775807"},
      {"seed one above UINT64_MAX",
       "{\"op\":\"simulate\",\"seed\":18446744073709551616," +
           instance_field,
       "seed\\\" must be a nonnegative integer (got "
       "'18446744073709551616': out of range)"},
      {"seed with leading zeros",
       "{\"op\":\"simulate\",\"seed\":007," + instance_field,
       "malformed number (leading zero)"},
      {"negative seed with a leading zero",
       "{\"op\":\"simulate\",\"seed\":-01," + instance_field,
       "malformed number (leading zero)"},
      {"double zero seed",
       "{\"op\":\"simulate\",\"seed\":00," + instance_field,
       "malformed number (leading zero)"},
  };
  for (const Case& test_case : cases) {
    const HandledRequest handled = handle_request(test_case.line, options);
    EXPECT_TRUE(handled.is_error) << test_case.label;
    EXPECT_FALSE(handled.is_shutdown) << test_case.label;
    EXPECT_NE(handled.response.find("\"ok\":false"), std::string::npos)
        << test_case.label;
    EXPECT_NE(handled.response.find(test_case.expect), std::string::npos)
        << test_case.label << ": " << handled.response;
  }

  // UINT64_MAX itself is a valid seed.
  const HandledRequest max_seed = handle_request(
      "{\"op\":\"simulate\",\"seed\":18446744073709551615,"
      "\"data_sets\":50," + instance_field, options);
  EXPECT_FALSE(max_seed.is_error) << max_seed.response;

  // A lone 0 integer part, or one starting with 1-9, is a JSON number.
  for (const char* number : {"0", "0.5", "10"}) {
    EXPECT_NO_THROW(FlatRequest::parse(std::string("{\"n\":") + number + "}"))
        << number;
  }

  // The loop survives every rejection and keeps serving.
  std::ostringstream stream_text;
  for (const Case& test_case : cases) stream_text << test_case.line << "\n";
  stream_text << "{\"id\":99,\"op\":\"ping\"}\n";
  std::istringstream in(stream_text.str());
  std::ostringstream out;
  const ServeResult result = run_serve_loop(in, out, options);
  EXPECT_EQ(result.requests, 17u);
  EXPECT_EQ(result.errors, 16u);
  EXPECT_FALSE(result.shutdown_requested);
  EXPECT_NE(out.str().find("{\"id\":99,\"ok\":true,\"result\":{\"pong\":true}}"),
            std::string::npos);
}

TEST(Serve, ErrorResponsesNameNoBuildDirectory) {
  // A failed library precondition is reported from the request alone: no
  // source file, line or build directory, so the error bytes move only
  // when the check's meaning does.
  const std::string analyze = analyze_request_line();
  const HandledRequest handled = handle_request(
      "{\"op\":\"search\",\"max_paths\":0," +
          analyze.substr(analyze.find("\"instance\"")),
      ServeOptions{});
  EXPECT_TRUE(handled.is_error);
  EXPECT_EQ(handled.response,
            "{\"ok\":false,\"error\":\"precondition failed: max_paths must "
            "be at least 1\"}");
}

TEST(Serve, RepeatedAndInterleavedRequestsAreByteIdentical) {
  PatternStore store;
  ServeOptions options;
  options.threads = 2;
  options.store = &store;
  const std::string analyze = analyze_request_line();

  // Point evaluation: the same line handled repeatedly — cold, then against
  // a progressively warmer store — produces one byte string.
  const std::string first = handle_request(analyze, options).response;
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(handle_request(analyze, options).response, first);
  }

  // Interleaved inside one stream: every repetition of a request line must
  // emit the identical response line. (Debug builds re-assert this inside
  // the loop's replay map; this test keeps Release honest too.)
  std::ostringstream stream_text;
  for (int k = 0; k < 3; ++k) {
    stream_text << analyze << "\n";
    stream_text << "{\"op\":\"ping\"}\n";
  }
  std::istringstream in(stream_text.str());
  std::ostringstream out;
  run_serve_loop(in, out, options);

  std::istringstream lines(out.str());
  std::vector<std::string> responses;
  std::string line;
  while (std::getline(lines, line)) responses.push_back(line);
  ASSERT_EQ(responses.size(), 6u);
  for (std::size_t k = 0; k < 6; k += 2) {
    EXPECT_EQ(responses[k], first);
    EXPECT_EQ(responses[k + 1], "{\"ok\":true,\"result\":{\"pong\":true}}");
  }
}

TEST(Serve, ShutdownDrainsItsBatchAndStopsReading) {
  ServeOptions options;
  options.threads = 1;
  options.max_batch = 1;  // one request per batch: lines after shutdown
                          // must never be read
  std::istringstream in(
      "{\"id\":1,\"op\":\"ping\"}\n"
      "{\"id\":2,\"op\":\"shutdown\"}\n"
      "{\"id\":3,\"op\":\"ping\"}\n");
  std::ostringstream out;
  const ServeResult result = run_serve_loop(in, out, options);
  EXPECT_EQ(result.requests, 2u);
  EXPECT_EQ(result.responses, 2u);
  EXPECT_TRUE(result.shutdown_requested);
  EXPECT_EQ(out.str(),
            "{\"id\":1,\"ok\":true,\"result\":{\"pong\":true}}\n"
            "{\"id\":2,\"ok\":true,\"result\":{\"stopping\":true}}\n");
  // The post-shutdown line is still sitting in the stream, unread.
  std::string leftover;
  EXPECT_TRUE(std::getline(in, leftover).good());
  EXPECT_EQ(leftover, "{\"id\":3,\"op\":\"ping\"}");
}

TEST(Serve, StatsReportsLiveStoreCounters) {
  // stats is the one op excluded from the determinism contract: it reports
  // live store state.
  ServeOptions storeless;
  storeless.threads = 1;
  EXPECT_EQ(handle_request("{\"op\":\"stats\"}", storeless).response,
            "{\"ok\":true,\"result\":{\"store\":false}}");

  PatternStore store;
  ServeOptions options;
  options.threads = 1;
  options.store = &store;
  EXPECT_EQ(handle_request("{\"op\":\"stats\"}", options).response,
            "{\"ok\":true,\"result\":{\"store\":true,\"entries\":0,"
            "\"hits\":0,\"misses\":0,\"publishes\":0,\"duplicates\":0}}");

  (void)handle_request(analyze_request_line(), options);
  const std::string warm = handle_request("{\"op\":\"stats\"}", options).response;
  EXPECT_EQ(warm.find("\"entries\":0"), std::string::npos)
      << "analyze should have published patterns: " << warm;
}

TEST(Serve, ResponseIdEchoPreservesRawToken) {
  ServeOptions options;
  options.threads = 1;
  // String, integer, and fractional ids echo back in their original form;
  // a request without an id omits the field entirely.
  EXPECT_EQ(handle_request("{\"id\":\"a-7\",\"op\":\"ping\"}", options).response,
            "{\"id\":\"a-7\",\"ok\":true,\"result\":{\"pong\":true}}");
  EXPECT_EQ(handle_request("{\"id\":42,\"op\":\"ping\"}", options).response,
            "{\"id\":42,\"ok\":true,\"result\":{\"pong\":true}}");
  EXPECT_EQ(handle_request("{\"op\":\"ping\"}", options).response,
            "{\"ok\":true,\"result\":{\"pong\":true}}");
  // The id survives into error responses when it parsed before the failure.
  const std::string error =
      handle_request("{\"id\":13,\"op\":\"frobnicate\"}", options).response;
  EXPECT_NE(error.find("\"id\":13"), std::string::npos);
  EXPECT_NE(error.find("\"ok\":false"), std::string::npos);
}

TEST(JsonWriter, NonFiniteNumbersAreNull) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(JsonWriter()
                .number_field("a", kInf)
                .number_field("b", -kInf)
                .number_field("c", std::numeric_limits<double>::quiet_NaN())
                .str(),
            "{\"a\":null,\"b\":null,\"c\":null}");
}

TEST(JsonWriter, ControlCharactersAreEscaped) {
  EXPECT_EQ(JsonWriter().string_field("k\n", "q\"b\\\t\r\b\f\x01\x1f").str(),
            "{\"k\\n\":\"q\\\"b\\\\\\t\\r\\b\\f\\u0001\\u001f\"}");
}

TEST(JsonWriter, NestedObjectGoesThroughRawField) {
  const std::string inner =
      JsonWriter().integer_field("n", 7).bool_field("ok", false).str();
  EXPECT_EQ(JsonWriter()
                .string_field("name", "x")
                .raw_field("inner", inner)
                .array_field("list", {inner, "1"})
                .str(),
            "{\"name\":\"x\",\"inner\":{\"n\":7,\"ok\":false},"
            "\"list\":[{\"n\":7,\"ok\":false},1]}");
}

TEST(JsonWriter, DoublesRoundTripBitExactlyThroughTheParser) {
  const double smallest_denormal = std::numeric_limits<double>::denorm_min();
  for (const double value : {0.1, 1.0 / 3, -0.0, DBL_MAX, smallest_denormal}) {
    // take_id() hands back the raw number token of the "id" field.
    FlatRequest request =
        FlatRequest::parse(JsonWriter().number_field("id", value).str());
    const std::string token = request.take_id();
    const double parsed = std::strtod(token.c_str(), nullptr);
    EXPECT_EQ(std::memcmp(&parsed, &value, sizeof(double)), 0)
        << token << " does not read back as " << value;
  }
}

}  // namespace
}  // namespace streamflow
