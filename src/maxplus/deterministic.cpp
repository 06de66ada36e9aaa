#include "maxplus/deterministic.hpp"

#include <algorithm>
#include <cmath>

#include "common/stats.hpp"

namespace streamflow {

namespace {

/// Iterative Tarjan SCC over the transition graph (arcs = places).
/// Returns the component id of each transition; ids are in reverse
/// topological order of the condensation (standard Tarjan property).
struct SccResult {
  std::vector<std::size_t> component_of;
  std::size_t num_components = 0;
};

SccResult tarjan_scc(const TimedEventGraph& graph) {
  const std::size_t n = graph.num_transitions();
  constexpr std::size_t kUnset = static_cast<std::size_t>(-1);
  SccResult result;
  result.component_of.assign(n, kUnset);

  std::vector<std::size_t> index(n, kUnset), lowlink(n, 0);
  std::vector<char> on_stack(n, 0);
  std::vector<std::size_t> stack;
  std::size_t next_index = 0;

  // Explicit DFS frame: vertex + progress through its out-places.
  struct Frame {
    std::size_t vertex;
    std::size_t edge_cursor;
  };
  std::vector<Frame> frames;

  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != kUnset) continue;
    frames.push_back({root, 0});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = 1;
    while (!frames.empty()) {
      Frame& frame = frames.back();
      const std::size_t v = frame.vertex;
      const auto& out = graph.output_places(v);
      if (frame.edge_cursor < out.size()) {
        const std::size_t w = graph.place(out[frame.edge_cursor++]).to;
        if (index[w] == kUnset) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = 1;
          frames.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
      } else {
        frames.pop_back();
        if (!frames.empty()) {
          const std::size_t parent = frames.back().vertex;
          lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
        }
        if (lowlink[v] == index[v]) {
          // v is the root of a component.
          for (;;) {
            const std::size_t w = stack.back();
            stack.pop_back();
            on_stack[w] = 0;
            result.component_of[w] = result.num_components;
            if (w == v) break;
          }
          ++result.num_components;
        }
      }
    }
  }
  return result;
}

/// Max cycle ratio of each non-trivial SCC (0 for cycle-free components),
/// with one critical cycle per component in `cycles`.
std::vector<double> component_periods(const TimedEventGraph& graph,
                                      const SccResult& scc,
                                      std::vector<CriticalCycle>& cycles) {
  std::vector<double> periods(scc.num_components, 0.0);
  cycles.assign(scc.num_components, {});

  // Group transitions by component.
  std::vector<std::vector<std::size_t>> members(scc.num_components);
  for (std::size_t t = 0; t < graph.num_transitions(); ++t)
    members[scc.component_of[t]].push_back(t);

  for (std::size_t c = 0; c < scc.num_components; ++c) {
    // Build the component's subgraph.
    TimedEventGraph sub(static_cast<std::int64_t>(members[c].size()), 1);
    std::vector<std::size_t> remap(graph.num_transitions(),
                                   static_cast<std::size_t>(-1));
    for (std::size_t local = 0; local < members[c].size(); ++local) {
      Transition copy = graph.transition(members[c][local]);
      copy.column = 0;
      remap[members[c][local]] = sub.add_transition(copy);
    }
    bool has_internal_place = false;
    for (const Place& p : graph.places()) {
      if (scc.component_of[p.from] != c || scc.component_of[p.to] != c)
        continue;
      sub.add_place(Place{remap[p.from], remap[p.to], p.kind,
                          p.initial_tokens});
      has_internal_place = true;
    }
    sub.finalize();
    if (!has_internal_place) continue;  // trivial component: no cycle
    CriticalCycle crit = max_cycle_ratio(sub);
    periods[c] = crit.ratio;
    // Remap the cycle back to global transition ids.
    for (std::size_t& t : crit.transitions) t = members[c][t];
    crit.places.clear();  // place ids are local; drop them
    cycles[c] = std::move(crit);
  }
  return periods;
}

}  // namespace

DeterministicThroughput deterministic_throughput(const Mapping& mapping,
                                                 ExecutionModel model,
                                                 const TpnBuildOptions& options) {
  const TimedEventGraph graph = build_tpn(mapping, model, options);

  const SccResult scc = tarjan_scc(graph);
  std::vector<CriticalCycle> cycles;
  std::vector<double> comp_period = component_periods(graph, scc, cycles);

  // Ancestor-max propagation: a transition's period is the largest cycle
  // ratio among the components that reach it. Tarjan ids are in reverse
  // topological order, so a condensation edge always goes from a higher id
  // to a lower one, and relaxing edges in descending source-id order
  // propagates the maxima in one sweep. Also remember which ancestor
  // component is binding so we can report its critical cycle.
  std::vector<double> reach(comp_period);
  std::vector<std::size_t> binding(scc.num_components);
  for (std::size_t c = 0; c < scc.num_components; ++c) binding[c] = c;
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (const Place& p : graph.places()) {
    const std::size_t a = scc.component_of[p.from];
    const std::size_t b = scc.component_of[p.to];
    if (a != b) edges.push_back({a, b});
  }
  std::sort(edges.begin(), edges.end(),
            [](const auto& x, const auto& y) { return x.first > y.first; });
  for (const auto& [a, b] : edges) {
    if (reach[a] > reach[b]) {
      reach[b] = reach[a];
      binding[b] = binding[a];
    }
  }

  DeterministicThroughput result;
  double slowest = 0.0;
  std::size_t slowest_component = 0;
  for (const std::size_t t : graph.last_column_transitions()) {
    const std::size_t c = scc.component_of[t];
    SF_ASSERT(reach[c] > 0.0,
              "last-column transition without an ancestor cycle");
    // Each last-column transition completes one data set per firing; its
    // firing period is reach[c].
    result.throughput += 1.0 / reach[c];
    if (reach[c] > slowest) {
      slowest = reach[c];
      slowest_component = binding[c];
    }
  }
  result.period = 1.0 / result.throughput;
  result.bottleneck_transition_period = slowest;
  result.in_order_throughput =
      static_cast<double>(mapping.num_paths()) / slowest;
  result.critical_cycle = cycles[slowest_component];
  result.max_cycle_time = mapping.max_cycle_time(model);
  result.critical_resource_throughput = 1.0 / result.max_cycle_time;
  // Table 1's notion: does the in-order rate attain the critical-resource
  // bound 1/Mct? (The bound provably caps in_order_throughput; the summed
  // completion rate can exceed it when output rows decouple.)
  result.critical_resource_attained =
      relative_difference(result.in_order_throughput,
                          result.critical_resource_throughput) < 1e-9;
  return result;
}

}  // namespace streamflow
