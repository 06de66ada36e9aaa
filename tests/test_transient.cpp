#include "support/transient.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>

#include "common/stats.hpp"
#include "markov/throughput.hpp"
#include "test_helpers.hpp"
#include "tpn/builder.hpp"
#include "tpn/columns.hpp"

namespace streamflow {
namespace {

/// Single exponential server (self-loop): N(t) is Poisson(lambda * t), and
/// the transient distribution is the trivial single state.
TEST(Transient, SingleServerPoissonCount) {
  const Mapping mapping = testing::chain_mapping({2.0}, {});
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);
  const auto rates = rates_from_durations(g);
  const auto chain = explore_markings(g, rates);
  for (const double horizon : {0.5, 4.0, 40.0}) {
    const auto r = transient_analysis(g, chain, rates,
                                      g.last_column_transitions(), horizon);
    EXPECT_NEAR(r.expected_firings, 0.5 * horizon, 1e-6 * horizon);
    ASSERT_EQ(r.distribution.size(), 1u);
    EXPECT_NEAR(r.distribution[0], 1.0, 1e-9);
  }
}

TEST(Transient, TwoStateChainDistribution) {
  // A ring of two exponential transitions (rates a and b) alternates
  // between two markings; the transient distribution must match the
  // closed-form two-state CTMC solution.
  TimedEventGraph g(2, 1);
  g.add_transition(Transition{.duration = 1.0});        // rate 1
  g.add_transition(Transition{.row = 1, .duration = 0.5});  // rate 2
  g.add_place(Place{0, 1, PlaceKind::kResource, 1});
  g.add_place(Place{1, 0, PlaceKind::kResource, 0});
  g.finalize();
  const std::vector<double> rates{1.0, 2.0};
  const auto chain = explore_markings(g, rates);
  ASSERT_EQ(chain.num_states, 2u);

  // The initial marking (state 0) holds a token in the place FEEDING
  // transition 1, so state 0 exits at rate 2 and state 1 at rate 1.
  const double a = 2.0, b = 1.0;  // 0 -> 1 at rate a, 1 -> 0 at rate b
  for (const double t : {0.1, 0.7, 3.0}) {
    const auto r = transient_analysis(g, chain, rates, {0}, t);
    const double p0 =
        b / (a + b) + a / (a + b) * std::exp(-(a + b) * t);
    EXPECT_NEAR(r.distribution[0], p0, 1e-8) << "t=" << t;
    EXPECT_NEAR(r.distribution[1], 1.0 - p0, 1e-8) << "t=" << t;
  }
}

TEST(Transient, AverageThroughputConvergesToStationary) {
  // Finite-horizon throughput must climb toward the stationary value as the
  // horizon grows — the theoretical Fig 10.
  const Mapping mapping = testing::single_comm_mapping(2, 3, 1.0, 0.2);
  const auto patterns = comm_patterns(mapping, 0);
  const TimedEventGraph teg = build_pattern_teg(patterns[0]);
  const auto rates = rates_from_durations(teg);
  const auto chain = explore_markings(teg, rates);
  std::vector<std::size_t> all(teg.num_transitions());
  std::iota(all.begin(), all.end(), std::size_t{0});

  const auto stationary =
      exponential_throughput_general(teg, rates, all);
  // The gap to the stationary value must shrink as the horizon grows and
  // essentially vanish at a long horizon.
  double previous_gap = std::numeric_limits<double>::infinity();
  for (const double horizon : {2.0, 10.0, 50.0, 400.0}) {
    const auto r = transient_analysis(teg, chain, rates, all, horizon);
    const double gap =
        relative_difference(r.average_throughput, stationary.throughput);
    EXPECT_LE(gap, previous_gap * 1.05) << "horizon " << horizon;
    previous_gap = gap;
  }
  EXPECT_LT(previous_gap, 0.01);
}

TEST(Transient, DistributionConvergesToStationaryDistribution) {
  const Mapping mapping = testing::single_comm_mapping(3, 2, 1.0, 0.2);
  const auto patterns = comm_patterns(mapping, 0);
  const TimedEventGraph teg = build_pattern_teg(patterns[0]);
  const auto rates = rates_from_durations(teg);
  const auto chain = explore_markings(teg, rates);
  const auto r = transient_analysis(teg, chain, rates, {0}, 500.0);
  // Homogeneous pattern: the stationary distribution is uniform (Thm 4).
  for (const double p : r.distribution) {
    EXPECT_NEAR(p, 1.0 / static_cast<double>(chain.num_states), 1e-6);
  }
  // Probabilities sum to one at every horizon.
  double sum = 0.0;
  for (const double p : r.distribution) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Transient, Validation) {
  const Mapping mapping = testing::chain_mapping({1.0}, {});
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);
  const auto rates = rates_from_durations(g);
  const auto chain = explore_markings(g, rates);
  EXPECT_THROW(
      transient_analysis(g, chain, rates, g.last_column_transitions(), -1.0),
      InvalidArgument);
  EXPECT_THROW(transient_analysis(g, chain, rates, {42}, 1.0),
               InvalidArgument);
  // The step cap triggers on a chain with genuine state changes (the
  // single-server chain above has only a self-loop, so its uniformization
  // rate is degenerate): use a two-transition ring at a huge horizon.
  TimedEventGraph ring(2, 1);
  ring.add_transition(Transition{.duration = 1.0});
  ring.add_transition(Transition{.row = 1, .duration = 0.5});
  ring.add_place(Place{0, 1, PlaceKind::kResource, 1});
  ring.add_place(Place{1, 0, PlaceKind::kResource, 0});
  ring.finalize();
  const std::vector<double> ring_rates{1.0, 2.0};
  const auto ring_chain = explore_markings(ring, ring_rates);
  TransientOptions tight;
  tight.max_steps = 10;
  EXPECT_THROW(
      transient_analysis(ring, ring_chain, ring_rates, {0}, 1e6, tight),
      NumericalError);
}

}  // namespace
}  // namespace streamflow
