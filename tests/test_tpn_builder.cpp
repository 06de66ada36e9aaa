#include "tpn/builder.hpp"

#include <gtest/gtest.h>

#include <map>

#include "test_helpers.hpp"

namespace streamflow {
namespace {

using testing::replicated_chain_mapping;

/// Transition id of row j, column c in a graph built by build_tpn.
std::size_t tpn_transition_id(const TimedEventGraph& graph, std::int64_t row,
                              std::size_t column) {
  SF_REQUIRE(row >= 0 && row < graph.num_rows(), "row out of range");
  SF_REQUIRE(column < graph.num_columns(), "column out of range");
  return static_cast<std::size_t>(row) * graph.num_columns() + column;
}

struct BuilderCase {
  std::size_t r0, r1, r2;
};

class BuilderStructureTest : public ::testing::TestWithParam<BuilderCase> {};

TEST_P(BuilderStructureTest, OverlapCountsAndLiveness) {
  const auto& c = GetParam();
  const Mapping mapping = replicated_chain_mapping(c.r0, c.r1, c.r2);
  const std::int64_t m = mapping.num_paths();
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);

  const std::size_t n = 3;
  EXPECT_EQ(g.num_rows(), m);
  EXPECT_EQ(g.num_columns(), 2 * n - 1);
  EXPECT_EQ(g.num_transitions(), static_cast<std::size_t>(m) * (2 * n - 1));

  // Flow places: 2N-2 per row. Resource places: one chain element per
  // occurrence — m per compute column, 2m per communication column.
  const std::size_t flow = static_cast<std::size_t>(m) * (2 * n - 2);
  const std::size_t resource =
      static_cast<std::size_t>(m) * n + static_cast<std::size_t>(m) * 2 * (n - 1);
  EXPECT_EQ(g.num_places(), flow + resource);

  // Token count = number of chains: compute units + output ports of stages
  // 1..N-1 + input ports of stages 2..N.
  std::size_t tokens = 0;
  for (const Place& p : g.places()) {
    EXPECT_GE(p.initial_tokens, 0);
    EXPECT_LE(p.initial_tokens, 1);
    tokens += static_cast<std::size_t>(p.initial_tokens);
  }
  const std::size_t expected_tokens =
      (c.r0 + c.r1 + c.r2) + (c.r0 + c.r1) + (c.r1 + c.r2);
  EXPECT_EQ(tokens, expected_tokens);

  EXPECT_NO_THROW(g.check_liveness());
}

TEST_P(BuilderStructureTest, StrictCountsAndLiveness) {
  const auto& c = GetParam();
  const Mapping mapping = replicated_chain_mapping(c.r0, c.r1, c.r2);
  const std::int64_t m = mapping.num_paths();
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kStrict);

  const std::size_t n = 3;
  const std::size_t flow = static_cast<std::size_t>(m) * (2 * n - 2);
  const std::size_t resource = static_cast<std::size_t>(m) * n;
  EXPECT_EQ(g.num_places(), flow + resource);

  std::size_t tokens = 0;
  for (const Place& p : g.places())
    tokens += static_cast<std::size_t>(p.initial_tokens);
  EXPECT_EQ(tokens, c.r0 + c.r1 + c.r2);  // one chain per processor

  EXPECT_NO_THROW(g.check_liveness());
}

INSTANTIATE_TEST_SUITE_P(Shapes, BuilderStructureTest,
                         ::testing::Values(BuilderCase{1, 1, 1},
                                           BuilderCase{1, 2, 1},
                                           BuilderCase{2, 3, 2},
                                           BuilderCase{3, 4, 5},
                                           BuilderCase{2, 6, 4}));

TEST(Builder, TransitionGridIsRowMajorWithCorrectResources) {
  const Mapping mapping = replicated_chain_mapping(1, 2, 1);
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);
  ASSERT_EQ(mapping.num_paths(), 2);
  // Row 0 path: P0 -> P1 -> P3; row 1 path: P0 -> P2 -> P3.
  const auto& t_comp1_r0 = g.transition(tpn_transition_id(g, 0, 2));
  EXPECT_EQ(t_comp1_r0.kind, TransitionKind::kCompute);
  EXPECT_EQ(t_comp1_r0.proc, 1u);
  const auto& t_comp1_r1 = g.transition(tpn_transition_id(g, 1, 2));
  EXPECT_EQ(t_comp1_r1.proc, 2u);
  const auto& comm = g.transition(tpn_transition_id(g, 1, 1));
  EXPECT_EQ(comm.kind, TransitionKind::kComm);
  EXPECT_EQ(comm.proc, 0u);
  EXPECT_EQ(comm.proc2, 2u);
}

TEST(Builder, SelfLoopWhenProcessorOwnsOneRow) {
  // Replications {1, 3}: m = 3, each stage-2 processor appears in exactly
  // one row, so its serialization chain degenerates to a marked self-loop.
  Application app = Application::uniform(2);
  Platform platform = Platform::fully_connected({1, 1, 1, 1}, 1.0);
  Mapping mapping(make_instance(app, platform), {{0}, {1, 2, 3}});
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);
  int self_loops_with_token = 0;
  for (const Place& p : g.places()) {
    if (p.from == p.to) {
      EXPECT_EQ(p.initial_tokens, 1);
      ++self_loops_with_token;
    }
  }
  // 3 compute self-loops + 3 input-port self-loops for P1..P3.
  EXPECT_EQ(self_loops_with_token, 6);
}

TEST(Builder, DurationsComeFromMapping) {
  const Mapping mapping = testing::chain_mapping({2.0, 4.0}, {3.0});
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kStrict);
  EXPECT_DOUBLE_EQ(g.transition(tpn_transition_id(g, 0, 0)).duration, 2.0);
  EXPECT_DOUBLE_EQ(g.transition(tpn_transition_id(g, 0, 1)).duration, 3.0);
  EXPECT_DOUBLE_EQ(g.transition(tpn_transition_id(g, 0, 2)).duration, 4.0);
}

TEST(Builder, RowCapIsEnforced) {
  const Mapping mapping = replicated_chain_mapping(3, 4, 5);  // m = 60
  TpnBuildOptions options;
  options.max_rows = 32;
  EXPECT_THROW(build_tpn(mapping, ExecutionModel::kOverlap, options),
               CapacityExceeded);
}

TEST(Builder, EventGraphProperty) {
  // Every place must have exactly one producer and one consumer — true by
  // construction; verify adjacency sizes add up.
  const Mapping mapping = replicated_chain_mapping(2, 3, 2);
  for (const ExecutionModel model :
       {ExecutionModel::kOverlap, ExecutionModel::kStrict}) {
    const TimedEventGraph g = build_tpn(mapping, model);
    std::size_t in_sum = 0, out_sum = 0;
    for (std::size_t t = 0; t < g.num_transitions(); ++t) {
      in_sum += g.input_places(t).size();
      out_sum += g.output_places(t).size();
      if (model == ExecutionModel::kOverlap) {
        // Overlap: every transition is directly serialized by a resource
        // chain (compute unit or port). In the Strict net the chain only
        // touches the first and last transition of each occurrence; the
        // middle ones are serialized transitively through flow places.
        bool has_resource_input = false;
        for (std::size_t pid : g.input_places(t)) {
          if (g.place(pid).kind == PlaceKind::kResource)
            has_resource_input = true;
        }
        EXPECT_TRUE(has_resource_input) << g.transition_label(t);
      }
    }
    EXPECT_EQ(in_sum, g.num_places());
    EXPECT_EQ(out_sum, g.num_places());
  }
}

TEST(Builder, DotExportMentionsEveryTransition) {
  const Mapping mapping = replicated_chain_mapping(1, 2, 1);
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);
  std::ostringstream os;
  g.write_dot(os);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("T2/P1@r0"), std::string::npos);
  EXPECT_NE(dot.find("F1:P0->P2@r1"), std::string::npos);
}

}  // namespace
}  // namespace streamflow
