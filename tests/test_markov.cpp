#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <numeric>
#include <string>
#include <unordered_map>

#include "common/prng.hpp"
#include "common/stats.hpp"
#include "markov/throughput.hpp"
#include "model/random_instance.hpp"
#include "support/stationary_reference.hpp"
#include "test_helpers.hpp"
#include "tpn/builder.hpp"
#include "tpn/columns.hpp"

namespace streamflow {
namespace {

// ---- Reference explorer ---------------------------------------------------
//
// The straightforward marking exploration the library's flat-arena explorer
// must reproduce edge for edge: one heap-allocated byte vector per marking,
// a hash map from marking to state id (point-queried only, never iterated),
// and a BFS deque whose pop order numbers the states.

using ReferenceMarking = std::vector<std::uint8_t>;

struct ReferenceMarkingHash {
  std::size_t operator()(const ReferenceMarking& m) const {
    // FNV-1a over the raw bytes.
    std::size_t h = 1469598103934665603ULL;
    for (std::uint8_t b : m) {
      h ^= b;
      h *= 1099511628211ULL;
    }
    return h;
  }
};

TpnMarkovChain reference_explore_markings(const TimedEventGraph& graph,
                                          const std::vector<double>& rates,
                                          const ReachabilityOptions& options) {
  SF_REQUIRE(rates.size() == graph.num_transitions(),
             "need one rate per transition");
  for (double r : rates)
    SF_REQUIRE(r > 0.0, "all firing rates must be positive");
  SF_REQUIRE(options.place_capacity >= 1, "place capacity must be >= 1");
  SF_REQUIRE(options.place_capacity <= 255,
             "place capacity must fit in a byte");

  const std::size_t num_places = graph.num_places();
  ReferenceMarking initial(num_places);
  for (std::size_t pid = 0; pid < num_places; ++pid) {
    initial[pid] = static_cast<std::uint8_t>(graph.place(pid).initial_tokens);
  }

  TpnMarkovChain chain;
  std::unordered_map<ReferenceMarking, std::size_t, ReferenceMarkingHash>
      index;
  std::deque<ReferenceMarking> frontier;
  index.emplace(initial, 0);
  frontier.push_back(std::move(initial));
  chain.num_states = 1;

  const auto capacity = static_cast<std::uint8_t>(options.place_capacity);

  std::size_t state_cursor = 0;
  while (!frontier.empty()) {
    const ReferenceMarking current = std::move(frontier.front());
    frontier.pop_front();
    const std::size_t current_id = state_cursor++;

    for (std::size_t t = 0; t < graph.num_transitions(); ++t) {
      bool enabled = true;
      for (std::size_t pid : graph.input_places(t)) {
        if (current[pid] == 0) {
          enabled = false;
          break;
        }
      }
      if (!enabled) continue;
      for (std::size_t pid : graph.output_places(t)) {
        const Place& p = graph.place(pid);
        if (p.from == p.to) continue;
        if (current[pid] >= capacity) {
          if (p.kind == PlaceKind::kFlow) {
            enabled = false;
            chain.capacity_clipped = true;
            break;
          }
          throw CapacityExceeded(
              "resource place exceeded capacity: the event graph violates "
              "the expected 1-safety of serialization chains");
        }
      }
      if (!enabled) continue;

      ReferenceMarking next = current;
      for (std::size_t pid : graph.input_places(t)) --next[pid];
      for (std::size_t pid : graph.output_places(t)) ++next[pid];

      auto [it, inserted] = index.emplace(std::move(next), chain.num_states);
      if (inserted) {
        if (chain.num_states >= options.max_states) {
          throw CapacityExceeded(
              "marking exploration exceeded max_states=" +
              std::to_string(options.max_states) +
              "; use the column decomposition or raise the cap");
        }
        ++chain.num_states;
        frontier.push_back(it->first);
      }
      chain.edges.push_back(CtmcEdge{current_id, it->second, t});
    }
  }
  return chain;
}

/// Both explorers on one net: the same chain (state count, clip flag, every
/// edge in order), or the same CapacityExceeded message. Returns the chain.
TpnMarkovChain expect_matches_reference(const TimedEventGraph& graph,
                                        const ReachabilityOptions& options,
                                        const std::string& label) {
  const std::vector<double> rates(graph.num_transitions(), 1.0);
  std::string reference_error;
  TpnMarkovChain expected;
  try {
    expected = reference_explore_markings(graph, rates, options);
  } catch (const CapacityExceeded& e) {
    reference_error = e.what();
  }
  if (!reference_error.empty()) {
    try {
      explore_markings(graph, rates, options);
      ADD_FAILURE() << label << ": expected CapacityExceeded";
    } catch (const CapacityExceeded& e) {
      EXPECT_EQ(std::string(e.what()), reference_error) << label;
    }
    return expected;
  }
  const TpnMarkovChain actual = explore_markings(graph, rates, options);
  EXPECT_EQ(actual.num_states, expected.num_states) << label;
  EXPECT_EQ(actual.capacity_clipped, expected.capacity_clipped) << label;
  EXPECT_EQ(actual.edges.size(), expected.edges.size()) << label;
  std::size_t mismatches = 0;
  for (std::size_t i = 0;
       i < std::min(actual.edges.size(), expected.edges.size()); ++i) {
    const CtmcEdge& a = actual.edges[i];
    const CtmcEdge& b = expected.edges[i];
    if (a.from != b.from || a.to != b.to || a.transition != b.transition) {
      if (++mismatches == 1) {
        ADD_FAILURE() << label << ": edge " << i << " is (" << a.from << ", "
                      << a.to << ", " << a.transition << "), reference ("
                      << b.from << ", " << b.to << ", " << b.transition
                      << ")";
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << label;
  return expected;
}

/// A heterogeneous fully connected platform with one contiguous team per
/// stage, speeds and bandwidths drawn from `prng`: the Strict workload shape.
Mapping heterogeneous_chain(const std::vector<std::size_t>& team_sizes,
                            Prng& prng) {
  std::size_t processors = 0;
  for (const std::size_t size : team_sizes) processors += size;
  std::vector<double> speeds;
  for (std::size_t p = 0; p < processors; ++p) {
    speeds.push_back(prng.uniform(0.5, 2.0));
  }
  Platform platform{std::move(speeds)};
  for (std::size_t p = 0; p < processors; ++p) {
    for (std::size_t q = p + 1; q < processors; ++q) {
      platform.set_bandwidth(p, q, prng.uniform(0.5, 2.0));
    }
  }
  std::vector<std::vector<std::size_t>> teams(team_sizes.size());
  std::size_t next = 0;
  for (std::size_t i = 0; i < team_sizes.size(); ++i) {
    for (std::size_t r = 0; r < team_sizes[i]; ++r) teams[i].push_back(next++);
  }
  return Mapping(Application::uniform(team_sizes.size()), std::move(platform),
                 std::move(teams));
}

/// One transition `t0` kept enabled by a marked self-loop, with one output
/// place per kind in `kinds` (each toward its own sink transition), every
/// output holding `tokens`.
TimedEventGraph full_output_net(const std::vector<PlaceKind>& kinds,
                                int tokens) {
  TimedEventGraph g(1, 1);
  g.add_transition(Transition{.duration = 1.0});
  g.add_place(Place{0, 0, PlaceKind::kResource, 1});
  for (const PlaceKind kind : kinds) {
    const std::size_t sink = g.add_transition(Transition{.duration = 1.0});
    g.add_place(Place{0, sink, kind, tokens});
    // The sink is blocked forever: it needs a token nobody produces.
    g.add_place(Place{sink, sink, PlaceKind::kResource, 0});
  }
  g.finalize();
  return g;
}

TEST(Reachability, SingleSelfLoopTransition) {
  // One transition with a marked self-loop: a single state, one self-edge.
  TimedEventGraph g(1, 1);
  g.add_transition(Transition{.duration = 2.0});
  g.add_place(Place{0, 0, PlaceKind::kResource, 1});
  g.finalize();
  const auto chain = explore_markings(g, {0.5});
  EXPECT_EQ(chain.num_states, 1u);
  ASSERT_EQ(chain.edges.size(), 1u);
  EXPECT_EQ(chain.edges[0].from, chain.edges[0].to);
}

TEST(Reachability, TwoTransitionRing) {
  // 0 -> 1 -> 0 ring with one token: two states (token at either place).
  TimedEventGraph g(2, 1);
  g.add_transition(Transition{.duration = 1.0});
  g.add_transition(Transition{.row = 1, .duration = 1.0});
  g.add_place(Place{0, 1, PlaceKind::kResource, 1});
  g.add_place(Place{1, 0, PlaceKind::kResource, 0});
  g.finalize();
  const auto chain = explore_markings(g, {1.0, 2.0});
  EXPECT_EQ(chain.num_states, 2u);
  EXPECT_EQ(chain.edges.size(), 2u);
  EXPECT_FALSE(chain.capacity_clipped);
}

TEST(Reachability, NetWithoutPlaces) {
  // No places: one empty marking, and the always-enabled transition loops.
  TimedEventGraph g(1, 1);
  g.add_transition(Transition{.duration = 1.0});
  g.finalize();
  const auto chain = expect_matches_reference(g, {}, "no places");
  EXPECT_EQ(chain.num_states, 1u);
  ASSERT_EQ(chain.edges.size(), 1u);
  EXPECT_EQ(chain.edges[0].to, 0u);
}

TEST(Reachability, StrictTpnIsOneSafe) {
  const Mapping mapping = testing::replicated_chain_mapping(1, 2, 1);
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kStrict);
  ReachabilityOptions options;
  options.place_capacity = 1;  // must never clip: the Strict net is 1-safe
  const auto chain =
      explore_markings(g, rates_from_durations(g), options);
  EXPECT_FALSE(chain.capacity_clipped);
  EXPECT_GT(chain.num_states, 1u);
}

TEST(Reachability, OverlapTpnNeedsBuffers) {
  // A fast first stage accumulates tokens ahead of a slow second stage:
  // with capacity 1 the chain clips, and raising the capacity grows the
  // state space.
  const Mapping mapping = testing::chain_mapping({0.1, 10.0}, {0.1});
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);
  const auto rates = rates_from_durations(g);
  ReachabilityOptions tight;
  tight.place_capacity = 1;
  const auto clipped = explore_markings(g, rates, tight);
  EXPECT_TRUE(clipped.capacity_clipped);
  ReachabilityOptions loose;
  loose.place_capacity = 6;
  const auto wide = explore_markings(g, rates, loose);
  EXPECT_GT(wide.num_states, clipped.num_states);
}

TEST(Reachability, StateCapIsEnforced) {
  const Mapping mapping = testing::replicated_chain_mapping(2, 3, 2);
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kStrict);
  ReachabilityOptions options;
  options.max_states = 10;
  EXPECT_THROW(explore_markings(g, rates_from_durations(g), options),
               CapacityExceeded);
}

TEST(Reachability, StateCapBoundaryIsExact) {
  // An N-state chain explores under max_states = N and throws, with the
  // documented message, under N - 1.
  const Mapping mapping = testing::replicated_chain_mapping(1, 3, 2);
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kStrict);
  const auto rates = rates_from_durations(g);
  const std::size_t n = explore_markings(g, rates).num_states;
  ASSERT_EQ(n, 1008u);
  ReachabilityOptions exact;
  exact.max_states = n;
  EXPECT_EQ(explore_markings(g, rates, exact).num_states, n);
  ReachabilityOptions short_by_one;
  short_by_one.max_states = n - 1;
  try {
    explore_markings(g, rates, short_by_one);
    ADD_FAILURE() << "expected CapacityExceeded";
  } catch (const CapacityExceeded& e) {
    EXPECT_EQ(std::string(e.what()),
              "marking exploration exceeded max_states=1007; use the column "
              "decomposition or raise the cap");
  }
  // The initial marking is never refused: a one-state chain fits any cap.
  TimedEventGraph loop(1, 1);
  loop.add_transition(Transition{.duration = 1.0});
  loop.add_place(Place{0, 0, PlaceKind::kResource, 1});
  loop.finalize();
  ReachabilityOptions zero;
  zero.max_states = 0;
  EXPECT_EQ(explore_markings(loop, {1.0}, zero).num_states, 1u);
}

TEST(Reachability, FullResourcePlaceThrows) {
  // A resource place at capacity in front of an enabled producer breaks the
  // 1-safety the Strict net relies on: an error, never a clipped chain.
  const TimedEventGraph g = full_output_net({PlaceKind::kResource}, 1);
  ReachabilityOptions options;
  options.place_capacity = 1;
  try {
    explore_markings(g, {1.0, 1.0}, options);
    ADD_FAILURE() << "expected CapacityExceeded";
  } catch (const CapacityExceeded& e) {
    EXPECT_EQ(std::string(e.what()),
              "resource place exceeded capacity: the event graph violates "
              "the expected 1-safety of serialization chains");
  }
}

TEST(Reachability, FirstFullOutputPlaceDecidesClipOrThrow) {
  // Both outputs full: the one listed first decides. A full flow place
  // first disables the transition (clip) before the resource place is
  // looked at; a full resource place first throws.
  ReachabilityOptions options;
  options.place_capacity = 1;
  const auto flow_first =
      full_output_net({PlaceKind::kFlow, PlaceKind::kResource}, 1);
  const auto chain = explore_markings(flow_first, {1.0, 1.0, 1.0}, options);
  EXPECT_TRUE(chain.capacity_clipped);
  EXPECT_EQ(chain.num_states, 1u);
  EXPECT_TRUE(chain.edges.empty());
  const auto resource_first =
      full_output_net({PlaceKind::kResource, PlaceKind::kFlow}, 1);
  EXPECT_THROW(explore_markings(resource_first, {1.0, 1.0, 1.0}, options),
               CapacityExceeded);
  expect_matches_reference(flow_first, options, "flow first");
  expect_matches_reference(resource_first, options, "resource first");
}

TEST(Reachability, PlaceCapacityMustFitInAByte) {
  const Mapping mapping = testing::chain_mapping({0.1, 10.0}, {0.1});
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);
  const auto rates = rates_from_durations(g);
  ReachabilityOptions options;
  options.place_capacity = 255;
  options.max_states = 2000;  // the 255-token chain is larger: stop early
  EXPECT_THROW(explore_markings(g, rates, options), CapacityExceeded);
  options.place_capacity = 256;
  EXPECT_THROW(explore_markings(g, rates, options), InvalidArgument);
  options.place_capacity = 0;
  EXPECT_THROW(explore_markings(g, rates, options), InvalidArgument);
  // At 255 a full byte still clips instead of wrapping around.
  const TimedEventGraph byte_full = full_output_net({PlaceKind::kFlow}, 255);
  options.place_capacity = 255;
  EXPECT_TRUE(explore_markings(byte_full, {1.0, 1.0}, options)
                  .capacity_clipped);
}

TEST(Reachability, MatchesReferenceOnStrictTeamShapes) {
  // The end-to-end benchmark's Strict team shapes, up to 10368 states.
  Prng prng(15);
  const std::vector<std::vector<std::size_t>> shapes{
      {2, 3, 2}, {3, 2, 3}, {2, 3, 3}, {1, 3, 2, 1}, {2, 2, 2, 1}};
  for (const auto& shape : shapes) {
    const TimedEventGraph g =
        build_tpn(heterogeneous_chain(shape, prng), ExecutionModel::kStrict);
    std::string label = "Strict";
    for (const std::size_t size : shape) {
      label += ' ';
      label += std::to_string(size);
    }
    const TpnMarkovChain chain = expect_matches_reference(g, {}, label);
    EXPECT_GT(chain.num_states, 1000u) << label;
  }
}

TEST(Reachability, MatchesReferenceOnRandomStrictInstances) {
  RandomInstanceOptions options;
  options.num_stages = 3;
  options.num_processors = 6;
  options.max_paths = 6;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Prng prng(seed);
    const TimedEventGraph g =
        build_tpn(random_instance(options, prng), ExecutionModel::kStrict);
    expect_matches_reference(g, {}, "seed " + std::to_string(seed));
  }
}

TEST(Reachability, MatchesReferenceOnClippedOverlapNets) {
  // A fast stage ahead of a slow one fills its buffers at every capacity.
  const Mapping mapping = testing::chain_mapping({0.1, 10.0, 1.0}, {0.1, 1.0});
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);
  for (int capacity = 1; capacity <= 4; ++capacity) {
    ReachabilityOptions options;
    options.place_capacity = capacity;
    const TpnMarkovChain chain = expect_matches_reference(
        g, options, "capacity " + std::to_string(capacity));
    EXPECT_TRUE(chain.capacity_clipped) << "capacity " << capacity;
  }
}

TEST(Reachability, MatchesReferenceOnYoungPatterns) {
  for (std::size_t u = 1; u <= 6; ++u) {
    for (std::size_t v = 1; v <= 5; ++v) {
      if (std::gcd(u, v) != 1) continue;
      const auto patterns =
          comm_patterns(testing::single_comm_mapping(u, v), 0);
      const TimedEventGraph teg = build_pattern_teg(patterns[0]);
      expect_matches_reference(
          teg, {}, "pattern " + std::to_string(u) + "x" + std::to_string(v));
    }
  }
}

TEST(Reachability, MatchesReferenceAtTheStateCap) {
  // Both explorers stop at the same marking with the same message.
  const Mapping mapping = testing::replicated_chain_mapping(2, 3, 2);
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kStrict);
  for (const std::size_t cap : {std::size_t{1}, std::size_t{10},
                                std::size_t{3455}, std::size_t{3456}}) {
    ReachabilityOptions options;
    options.max_states = cap;
    expect_matches_reference(g, options, "cap " + std::to_string(cap));
  }
}

TEST(Reachability, RejectsBadRates) {
  TimedEventGraph g(1, 1);
  g.add_transition(Transition{.duration = 1.0});
  g.add_place(Place{0, 0, PlaceKind::kResource, 1});
  g.finalize();
  EXPECT_THROW(explore_markings(g, {0.0}), InvalidArgument);
  EXPECT_THROW(explore_markings(g, {1.0, 1.0}), InvalidArgument);
}

TEST(GeneralMethod, SingleServerRateIsLambda) {
  // One processor with exponential service at rate lambda, always busy:
  // throughput = lambda.
  const Mapping mapping = testing::chain_mapping({4.0}, {});
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);
  const auto r = exponential_throughput_general(
      g, rates_from_durations(g), g.last_column_transitions());
  EXPECT_NEAR(r.throughput, 0.25, 1e-12);
}

TEST(GeneralMethod, TandemTwoServersIsSaturationMin) {
  // Saturated M -> M tandem with unbounded buffer: output rate min(a, b).
  // With a finite buffer the rate is slightly below min(a, b) and grows
  // with the buffer size.
  const Mapping mapping = testing::chain_mapping({1.0, 2.0}, {1e-3});
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);
  const auto rates = rates_from_durations(g);
  double previous = 0.0;
  for (int capacity : {1, 2, 4, 8, 16}) {
    GeneralMethodOptions options;
    options.reachability.place_capacity = capacity;
    const auto r = exponential_throughput_general(
        g, rates, g.last_column_transitions(), options);
    EXPECT_GE(r.throughput, previous - 1e-12);
    EXPECT_LE(r.throughput, 0.5 + 1e-9);
    previous = r.throughput;
  }
  EXPECT_NEAR(previous, 0.5, 0.02);  // converging to min(1, 1/2)
}

TEST(GeneralMethod, SmallChainTakesGaussSeidelAndMatchesDenseReference) {
  // Every chain, however small, is solved by Gauss–Seidel: it reports its
  // sweeps and a residual within tolerance, and agrees with the dense LU
  // reference to the documented 1e-9 (REPRODUCING.md).
  const Mapping mapping = testing::chain_mapping({1.0, 2.0}, {1e-3});
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);
  const auto rates = rates_from_durations(g);
  GeneralMethodOptions options;
  options.reachability.place_capacity = 4;
  const auto a = exponential_throughput_general(
      g, rates, g.last_column_transitions(), options);
  ASSERT_GT(a.num_states, 1u);
  EXPECT_EQ(a.backend, StationaryBackend::kGaussSeidel);
  EXPECT_GT(a.solver_iterations, 0u);
  EXPECT_LE(a.solver_residual, options.stationary.tolerance);
  const TpnMarkovChain chain = explore_markings(g, rates, options.reachability);
  const DenseReference lu =
      dense_reference(g, chain, rates, g.last_column_transitions());
  EXPECT_LT(lu.residual, 1e-10);  // residual of the LU solve
  EXPECT_LE(relative_difference(a.throughput, lu.throughput), 1e-9);

  // saturated_flow (the pattern-cache entry point) takes the same solver.
  const auto sf = saturated_flow(g, rates, options);
  EXPECT_EQ(sf.backend, StationaryBackend::kGaussSeidel);
  EXPECT_GT(sf.solver_iterations, 0u);
  EXPECT_LE(sf.solver_residual, options.stationary.tolerance);
  const DenseReference sf_lu =
      dense_reference(g, chain, rates, all_transitions(g));
  EXPECT_LE(relative_difference(sf.throughput, sf_lu.throughput), 1e-9);
}

TEST(GeneralMethod, StrictChainGaussSeidelMatchesDenseReference) {
  // A 1008-state Strict chain (Theorem 2's own workload) solved both ways:
  // the dense LU is the reference, Gauss–Seidel must agree to 1e-9 and
  // report a residual within tolerance.
  const Mapping mapping = testing::replicated_chain_mapping(1, 3, 2, 2.0, 1.0);
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kStrict);
  const auto rates = rates_from_durations(g);
  const GeneralMethodOptions options;
  const auto gs = exponential_throughput_general(
      g, rates, g.last_column_transitions(), options);
  ASSERT_EQ(gs.num_states, 1008u);
  EXPECT_EQ(gs.backend, StationaryBackend::kGaussSeidel);
  EXPECT_LE(gs.solver_residual, options.stationary.tolerance);
  const DenseReference lu = dense_reference(
      g, explore_markings(g, rates), rates, g.last_column_transitions());
  EXPECT_LE(relative_difference(gs.throughput, lu.throughput), 1e-9);
  EXPECT_LT(lu.residual, 1e-13);
}

TEST(GeneralMethod, NonConvergedSolveIsAnError) {
  // A sweep budget the chain cannot meet surfaces as NumericalError from
  // the public entry points instead of a plausible-looking throughput.
  const Mapping mapping = testing::chain_mapping({1.0, 2.0}, {1e-3});
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);
  GeneralMethodOptions options;
  options.reachability.place_capacity = 4;
  options.stationary.max_iterations = 1;
  EXPECT_THROW(exponential_throughput_general(g, rates_from_durations(g),
                                              g.last_column_transitions(),
                                              options),
               NumericalError);
  EXPECT_THROW(saturated_flow(g, rates_from_durations(g), options),
               NumericalError);
}

TEST(GeneralMethod, FrequenciesAreRowUniform) {
  // In steady state every transition of a strongly coupled pattern fires at
  // the same frequency (the round-robin equalizes rows).
  const Mapping mapping = testing::single_comm_mapping(2, 3, 1.0, 0.5);
  const auto patterns = comm_patterns(mapping, 0);
  const TimedEventGraph teg = build_pattern_teg(patterns[0]);
  const auto freq =
      stationary_frequencies(teg, rates_from_durations(teg));
  for (double f : freq) EXPECT_NEAR(f, freq[0], 1e-9);
}

}  // namespace
}  // namespace streamflow
