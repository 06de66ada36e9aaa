// Byte-mutation fuzzer over the four text formats the library parses:
// instance text, `.scenario` files, `streamflow-pattern-store v1`
// snapshots and serve request lines.
//
// Case k is a pure function of (kSeed, k): its mutations are drawn from
// Prng(kSeed).split(k), so a failing case replays from its index alone.
// Every case must either parse or throw InvalidArgument: no crash, no other
// exception type, no sanitizer report (the test runs in the ASan/UBSan CI
// job). An instance, scenario or snapshot that parses must re-emit and
// re-parse byte-stably. Inputs the fuzzer found are pinned below as
// negative cases.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "common/text_reader.hpp"
#include "core/pattern_store.hpp"
#include "dist/distribution.hpp"
#include "fuzz/corpus.hpp"
#include "model/serialization.hpp"
#include "serve/protocol.hpp"

#ifndef STREAMFLOW_FIXTURE_DIR
#define STREAMFLOW_FIXTURE_DIR "tests/fixtures"
#endif

namespace streamflow {
namespace {

constexpr std::uint64_t kSeed = 2010;
constexpr std::size_t kCases = 20000;

enum Format { kInstance, kScenario, kSnapshot, kRequest, kNumFormats };

std::string fixture(const std::string& name) {
  return read_text_file(
      (std::filesystem::path(STREAMFLOW_FIXTURE_DIR) / name).string(),
      "fixture");
}

std::string snapshot_text(const PatternStore& store) {
  std::ostringstream out;
  store.save(out);
  return out.str();
}

/// One seed text per format (serve requests: one per fixture line).
struct Seeds {
  std::string instance = fixture("serve/het.inst");
  std::string scenario = fixture("s3.scenario");
  std::string snapshot;
  std::vector<std::string> requests;

  Seeds() {
    PatternStore store;
    for (std::uint64_t k = 0; k < 3; ++k) {
      PatternSignature signature;
      signature.u = 1 + k;
      signature.v = 2;
      for (std::uint64_t d = 0; d < signature.u * 2; ++d) {
        signature.duration_bits.push_back(
            std::bit_cast<std::uint64_t>(0.5 + static_cast<double>(k + d)));
      }
      store.publish(signature, 1.0 / static_cast<double>(k + 3));
    }
    snapshot = snapshot_text(store);
    std::istringstream lines(fixture("serve/requests.jsonl"));
    for (std::string line; std::getline(lines, line);) requests.push_back(line);
  }
};

constexpr std::string_view kAlphabet = "0123456789-+.eExX#, \t\r\n:\"{}finaF";
constexpr std::array<std::string_view, 24> kTokens = {
    "-1",     "+1",   "0",      "1e999", "1e-400", "inf",
    "nan",    "0x10", "0x1p3",  "18446744073709551616",
    "18446744073709551615",   "-18446744073709551615",
    "99999999999",  "4.9406564584124654e-324",  "",  "#",
    "-0",     "00",   "1e",     ".",     "ffffffffffffffff",
    "end-instance", "team",   "link 0 0 1"};

/// Applies 1-4 random edits: byte overwrites, inserts and deletes, token
/// swaps from kTokens, and line duplication or removal.
std::string mutate(std::string text, Prng& prng) {
  const auto pick = [&prng](std::size_t n) {
    return static_cast<std::size_t>(prng.uniform_index(n));
  };
  const std::size_t edits = 1 + pick(4);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t at = text.empty() ? 0 : pick(text.size());
    switch (pick(6)) {
      case 0:
        if (!text.empty()) text[at] = static_cast<char>(prng.next_u64());
        break;
      case 1:
        if (!text.empty()) text[at] = kAlphabet[pick(kAlphabet.size())];
        break;
      case 2:
        text.insert(at, 1, kAlphabet[pick(kAlphabet.size())]);
        break;
      case 3:
        text.erase(at, 1 + pick(8));
        break;
      case 4: {  // replace the token around `at`
        std::size_t begin = at, end = at;
        while (begin > 0 && text[begin - 1] != ' ' && text[begin - 1] != '\n')
          --begin;
        while (end < text.size() && text[end] != ' ' && text[end] != '\n')
          ++end;
        text.replace(begin, end - begin, kTokens[pick(kTokens.size())]);
        break;
      }
      default: {  // duplicate or drop the line around `at`
        const std::size_t begin =
            at == 0 ? 0 : text.rfind('\n', at - 1) + 1;  // npos + 1 == 0
        const std::size_t newline = text.find('\n', at);
        const std::size_t end =
            newline == std::string::npos ? text.size() : newline + 1;
        const std::string line = text.substr(begin, end - begin);
        if (prng.uniform_index(2) == 0) {
          text.insert(begin, line);
        } else {
          text.erase(begin, end - begin);
        }
      }
    }
  }
  return text;
}

/// The diagnostic `parse` throws, or what went wrong instead.
template <typename Parse>
std::string verdict(Parse parse) {
  try {
    parse();
  } catch (const InvalidArgument& error) {
    return error.what();
  } catch (const std::exception& error) {
    return std::string("other exception: ") + error.what();
  }
  return "accepted";
}

/// Snapshot rows carry a digest, so almost every mutation is rejected by
/// it (after every row was read). Half the snapshot cases re-seal the
/// mutated text with the digest its rows hash to, so the merge and re-emit
/// paths see mutated rows too.
std::string reseal(std::string text) {
  const std::string message = verdict([&text] { PatternStore().load(text); });
  const std::size_t claim = message.find("entries hash to ");
  const std::size_t digest = text.rfind("digest ");
  if (claim == std::string::npos || digest == std::string::npos) return text;
  text.replace(digest + 7, 16, message.substr(claim + 16, 16));
  return text;
}

/// Parses `text` as `format`; what parses must re-emit byte-stably.
/// Returns false when the text was rejected with InvalidArgument; any other
/// exception escapes to the caller.
bool parse_case(Format format, const std::string& text) {
  try {
    switch (format) {
      case kInstance: {
        const std::string emitted =
            instance_to_string(instance_from_string(text));
        EXPECT_EQ(instance_to_string(instance_from_string(emitted)), emitted);
        break;
      }
      case kScenario: {
        const std::string emitted =
            scenario_to_string(scenario_from_string(text));
        EXPECT_EQ(scenario_to_string(scenario_from_string(emitted)), emitted);
        break;
      }
      case kSnapshot: {
        PatternStore store;
        store.load(text);
        const std::string emitted = snapshot_text(store);
        PatternStore again;
        again.load(emitted);
        EXPECT_EQ(snapshot_text(again), emitted);
        break;
      }
      default: {
        FlatRequest request = FlatRequest::parse(text);
        (void)request.take_id();
        (void)request.take_string_or("op", "");
        for (const char* key : {"seed", "data_sets", "replications",
                                "restarts", "max_paths"}) {
          (void)request.take_u64_or(key, 0);
        }
        const std::string law = request.take_string_or("law", "");
        if (!law.empty()) (void)parse_distribution(law)->spec();
        parse_case(kInstance, request.take_string_or("instance", ""));
        request.expect_exhausted();
      }
    }
    return true;
  } catch (const InvalidArgument&) {
    return false;
  }
}

TEST(ParseFuzz, MutatedTextsParseOrThrowInvalidArgument) {
  const Seeds seeds;
  const Prng root(kSeed);
  std::array<std::size_t, kNumFormats> parsed{}, rejected{};
  for (std::size_t k = 0; k < kCases; ++k) {
    Prng prng = root.split(k);
    const auto format = static_cast<Format>(k % kNumFormats);
    const std::string& seed =
        format == kInstance   ? seeds.instance
        : format == kScenario ? seeds.scenario
        : format == kSnapshot
            ? seeds.snapshot
            : seeds.requests[prng.uniform_index(seeds.requests.size())];
    std::string text = mutate(seed, prng);
    if (format == kSnapshot && prng.uniform_index(2) == 0) {
      text = reseal(std::move(text));
    }
    try {
      (parse_case(format, text) ? parsed : rejected)[format] += 1;
    } catch (const std::exception& error) {
      ADD_FAILURE() << "case " << k << " threw " << typeid(error).name()
                    << " (" << error.what() << ") on:\n" << text;
    }
    if (HasFailure()) {
      FAIL() << "case " << k << " (seed " << kSeed << ") failed on:\n" << text;
    }
  }
  // Both verdicts are exercised in every format: the mutations neither
  // always break the text nor never do.
  for (int f = 0; f < kNumFormats; ++f) {
    EXPECT_GT(parsed[f], kCases / kNumFormats / 50) << "format " << f;
    EXPECT_GT(rejected[f], kCases / kNumFormats / 5) << "format " << f;
  }
}

// Inputs that crashed or were silently accepted by earlier parsers,
// minimized. A snapshot's entry and duration counts used to size
// allocations before any row was read, so a huge count threw
// std::length_error / std::bad_alloc instead of a diagnostic.
TEST(ParseFuzz, PinnedNegativeCases) {
  const auto snapshot = [](const std::string& body) {
    return verdict([&body] {
      PatternStore().load("streamflow-pattern-store v1\n" + body);
    });
  };
  EXPECT_NE(snapshot("entries 1000000000000000000\n").find("truncated"),
            std::string::npos);
  // A duration count other than u*v is rejected before any bits are read;
  // a consistent huge count still reads row by row.
  EXPECT_NE(snapshot("entries 1\nentry 1 2 99999999999 0\n")
                .find("malformed entry"),
            std::string::npos);
  EXPECT_NE(snapshot("entries 1\nentry 1 99999999999 99999999999 0\n")
                .find("malformed duration bits"),
            std::string::npos);
  const std::string scenario = fixture("s3.scenario") + "trailing garbage\n";
  EXPECT_NE(verdict([&] { scenario_from_string(scenario); })
                .find("content after 'end-instance'"),
            std::string::npos);
}

}  // namespace
}  // namespace streamflow
