#include "maxplus/mcr.hpp"

#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "common/stats.hpp"
#include "maxplus/deterministic.hpp"
#include "model/random_instance.hpp"
#include "support/deterministic_reference.hpp"
#include "test_helpers.hpp"
#include "tpn/builder.hpp"

namespace streamflow {
namespace {

/// Builds a bare event graph from explicit (from, to, tokens) arcs where the
/// "duration" of each vertex is given; used to test MCR on hand examples.
TimedEventGraph hand_graph(const std::vector<double>& durations,
                           const std::vector<std::tuple<int, int, int>>& arcs) {
  TimedEventGraph g(static_cast<std::int64_t>(durations.size()), 1);
  for (std::size_t i = 0; i < durations.size(); ++i) {
    g.add_transition(Transition{.kind = TransitionKind::kCompute,
                                .row = static_cast<std::int64_t>(i),
                                .column = 0,
                                .duration = durations[i]});
  }
  for (const auto& [from, to, tokens] : arcs) {
    g.add_place(Place{static_cast<std::size_t>(from),
                      static_cast<std::size_t>(to), PlaceKind::kResource,
                      tokens});
  }
  g.finalize();
  return g;
}

TEST(Mcr, SelfLoop) {
  const auto g = hand_graph({3.5}, {{0, 0, 1}});
  const CriticalCycle c = max_cycle_ratio(g);
  EXPECT_DOUBLE_EQ(c.ratio, 3.5);
  EXPECT_EQ(c.tokens, 1);
  EXPECT_EQ(c.transitions.size(), 1u);
}

TEST(Mcr, TwoCyclesPicksLarger) {
  // Cycle A: 0 <-> 1, durations 1 + 2 over 2 tokens -> 1.5.
  // Cycle B: 2 self loop, duration 2 over 1 token -> 2.
  const auto g = hand_graph({1.0, 2.0, 2.0},
                            {{0, 1, 1}, {1, 0, 1}, {2, 2, 1}, {1, 2, 0}});
  const CriticalCycle c = max_cycle_ratio(g);
  EXPECT_DOUBLE_EQ(c.ratio, 2.0);
  EXPECT_EQ(c.transitions, std::vector<std::size_t>{2});
}

TEST(Mcr, TokensInDenominator) {
  // One cycle through 3 vertices with durations 2,3,4 and 2 tokens: 4.5.
  const auto g = hand_graph({2.0, 3.0, 4.0},
                            {{0, 1, 1}, {1, 2, 0}, {2, 0, 1}});
  const CriticalCycle c = max_cycle_ratio(g);
  EXPECT_DOUBLE_EQ(c.ratio, 4.5);
  EXPECT_EQ(c.tokens, 2);
  EXPECT_EQ(c.transitions.size(), 3u);
}

TEST(Mcr, InterleavedCyclesSharedVertices) {
  // Two cycles sharing vertex 0: {0,1} ratio (1+5)/1 = 6 and {0,2} ratio
  // (1+3)/2 = 2.
  const auto g = hand_graph({1.0, 5.0, 3.0},
                            {{0, 1, 0}, {1, 0, 1}, {0, 2, 1}, {2, 0, 1}});
  EXPECT_DOUBLE_EQ(max_cycle_ratio(g).ratio, 6.0);
}

TEST(Mcr, AcyclicGraphRejected) {
  const auto g = hand_graph({1.0, 2.0}, {{0, 1, 0}});
  EXPECT_THROW(max_cycle_ratio(g), InvalidArgument);
  EXPECT_THROW(max_cycle_ratio_lawler(g), InvalidArgument);
}

TEST(Mcr, LawlerAgreesOnHandExamples) {
  const auto g = hand_graph({2.0, 3.0, 4.0},
                            {{0, 1, 1}, {1, 2, 0}, {2, 0, 1}});
  EXPECT_NEAR(max_cycle_ratio_lawler(g, 1e-10), 4.5, 1e-8);
}

class McrCrossValidationTest : public ::testing::TestWithParam<std::uint64_t> {
};

// Property: on random replicated mappings, the Dinkelbach MCR equals the
// Lawler binary-search MCR for both execution models.
TEST_P(McrCrossValidationTest, DinkelbachEqualsLawler) {
  Prng prng(GetParam());
  RandomInstanceOptions options;
  options.num_stages = 3;
  options.num_processors = 8;
  options.max_paths = 24;
  const Mapping mapping = random_instance(options, prng);
  for (const ExecutionModel model :
       {ExecutionModel::kOverlap, ExecutionModel::kStrict}) {
    const TimedEventGraph g = build_tpn(mapping, model);
    const double dinkelbach = max_cycle_ratio(g).ratio;
    const double lawler = max_cycle_ratio_lawler(g, 1e-9);
    EXPECT_NEAR(dinkelbach, lawler, 1e-6)
        << mapping.to_string() << " model=" << to_string(model);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMappings, McrCrossValidationTest,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(ColumnDecomposition, OverlapPeriodIsColumnMax) {
  Prng prng(77);
  RandomInstanceOptions options;
  options.num_stages = 4;
  options.num_processors = 10;
  options.max_paths = 60;
  for (int trial = 0; trial < 8; ++trial) {
    const Mapping mapping = random_instance(options, prng);
    const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);
    const double full = max_cycle_ratio(g).ratio;
    const std::vector<double> columns = column_periods_overlap(mapping);
    double column_max = 0.0;
    for (double c : columns) column_max = std::max(column_max, c);
    EXPECT_NEAR(full, column_max, 1e-9 * std::max(full, 1.0))
        << mapping.to_string();
  }
}

TEST(ColumnSubgraph, KeepsOnlyColumnPlaces) {
  const Mapping mapping = testing::replicated_chain_mapping(2, 3, 2);
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);
  const TimedEventGraph sub = column_subgraph(g, 1);  // first comm column
  EXPECT_EQ(sub.num_transitions(), static_cast<std::size_t>(g.num_rows()));
  for (const Place& p : sub.places())
    EXPECT_EQ(p.kind, PlaceKind::kResource);
}

}  // namespace
}  // namespace streamflow
