#include "tpn/columns.hpp"

#include <gtest/gtest.h>

#include <set>

#include "test_helpers.hpp"

namespace streamflow {
namespace {

TEST(CommPatterns, StructureOfCoprimeColumn) {
  const Mapping mapping = testing::single_comm_mapping(3, 2);
  const auto patterns = comm_patterns(mapping, 0);
  ASSERT_EQ(patterns.size(), 1u);  // gcd(3,2) = 1
  const CommPattern& p = patterns[0];
  EXPECT_EQ(p.u, 3u);
  EXPECT_EQ(p.v, 2u);
  EXPECT_EQ(p.g, 1u);
  EXPECT_EQ(p.copies, 1);
  EXPECT_EQ(p.size(), 6u);
  EXPECT_TRUE(p.homogeneous());
  // CRT bijection: transition t carries senders[t % u] -> receivers[t % v],
  // and every (sender, receiver) pair appears exactly once.
  std::set<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t t = 0; t < p.size(); ++t) pairs.insert({t % p.u, t % p.v});
  EXPECT_EQ(pairs.size(), 6u);
}

TEST(CommPatterns, SplitsIntoGcdComponents) {
  // 4 senders, 6 receivers: g = 2 components with u = 2, v = 3.
  Application app = Application::uniform(2);
  Platform platform =
      Platform::fully_connected(std::vector<double>(10, 1.0), 1.0);
  std::vector<std::size_t> senders{0, 1, 2, 3}, receivers{4, 5, 6, 7, 8, 9};
  Mapping mapping(make_instance(app, platform), {senders, receivers});
  EXPECT_EQ(mapping.num_paths(), 12);

  const auto patterns = comm_patterns(mapping, 0);
  ASSERT_EQ(patterns.size(), 2u);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(patterns[c].u, 2u);
    EXPECT_EQ(patterns[c].v, 3u);
    EXPECT_EQ(patterns[c].copies, 1);
    // Component c owns the senders/receivers with team index = c (mod 2).
    EXPECT_EQ(patterns[c].senders, (std::vector<std::size_t>{c, c + 2}));
    EXPECT_EQ(patterns[c].receivers,
              (std::vector<std::size_t>{4 + c, 6 + c, 8 + c}));
  }
}

TEST(CommPatterns, ExampleCSecondCommunication) {
  // Example C (§5.2): 21 senders and 27 receivers split into g = 3
  // components of pattern size 7 x 9 with 55 copies (m = lcm(5,21,27,11)).
  Application app = Application::uniform(4);
  const std::size_t total = 5 + 21 + 27 + 11;
  Platform platform =
      Platform::fully_connected(std::vector<double>(total, 1.0), 1.0);
  std::vector<std::vector<std::size_t>> teams(4);
  std::size_t next = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t count = std::vector<std::size_t>{5, 21, 27, 11}[i];
    for (std::size_t k = 0; k < count; ++k) teams[i].push_back(next++);
  }
  Mapping mapping(make_instance(app, platform), teams);
  EXPECT_EQ(mapping.num_paths(), 10395);

  const auto patterns = comm_patterns(mapping, 1);
  ASSERT_EQ(patterns.size(), 3u);
  EXPECT_EQ(patterns[0].u, 7u);
  EXPECT_EQ(patterns[0].v, 9u);
  EXPECT_EQ(patterns[0].copies, 10395 / (3 * 7 * 9));
  EXPECT_EQ(patterns[0].copies, 55);
}

TEST(PatternTeg, StructureAndLiveness) {
  const Mapping mapping = testing::single_comm_mapping(3, 2);
  const auto patterns = comm_patterns(mapping, 0);
  const TimedEventGraph teg = build_pattern_teg(patterns[0]);
  EXPECT_EQ(teg.num_transitions(), 6u);
  // u sender chains of v places + v receiver chains of u places = 2uv.
  EXPECT_EQ(teg.num_places(), 12u);
  std::size_t tokens = 0;
  for (const Place& p : teg.places())
    tokens += static_cast<std::size_t>(p.initial_tokens);
  EXPECT_EQ(tokens, 5u);  // u + v chains
  EXPECT_NO_THROW(teg.check_liveness());
}

TEST(PatternTeg, HeterogeneousDurationsPropagate) {
  const std::vector<double> times{1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  const Mapping mapping =
      testing::single_comm_mapping_heterogeneous(3, 2, times);
  const auto patterns = comm_patterns(mapping, 0);
  EXPECT_FALSE(patterns[0].homogeneous());
  const TimedEventGraph teg = build_pattern_teg(patterns[0]);
  for (std::size_t t = 0; t < teg.num_transitions(); ++t) {
    const Transition& tr = teg.transition(t);
    EXPECT_DOUBLE_EQ(tr.duration,
                     mapping.comm_time(tr.proc, tr.proc2));
  }
}

TEST(CommPatterns, RejectsBadFileIndex) {
  const Mapping mapping = testing::single_comm_mapping(2, 2);
  EXPECT_THROW(comm_patterns(mapping, 1), InvalidArgument);
}

}  // namespace
}  // namespace streamflow
