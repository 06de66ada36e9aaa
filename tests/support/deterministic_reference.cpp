#include "support/deterministic_reference.hpp"

#include <algorithm>
#include <cmath>

#include "dist/distribution.hpp"
#include "maxplus/mcr.hpp"

namespace streamflow {

namespace {

/// Scale of the instance, used to derive the relaxation epsilon: an
/// improvement below it is FP noise.
double duration_scale(const TimedEventGraph& graph) {
  double scale = 1.0;
  for (const Transition& t : graph.transitions())
    scale = std::max(scale, std::fabs(t.duration));
  return scale;
}

/// Bellman–Ford longest-path relaxation with w(p) = duration(p.to) -
/// lambda * tokens(p): true iff some cycle still relaxes by more than
/// `eps` after |V| passes, i.e. has positive weight.
bool has_positive_cycle(const TimedEventGraph& graph, double lambda,
                        double eps) {
  std::vector<double> dist(graph.num_transitions(), 0.0);
  for (std::size_t pass = 0; pass <= graph.num_transitions(); ++pass) {
    bool updated = false;
    for (const Place& p : graph.places()) {
      const double weight = graph.transition(p.to).duration -
                            lambda * static_cast<double>(p.initial_tokens);
      const double cand = dist[p.from] + weight;
      if (cand > dist[p.to] + eps) {
        dist[p.to] = cand;
        updated = true;
      }
    }
    if (!updated) return false;
  }
  return true;
}

/// The sub-event-graph on `members` (ascending transition ids) and the
/// places joining them.
TimedEventGraph induced_subgraph(const TimedEventGraph& graph,
                                 const std::vector<std::size_t>& members) {
  TimedEventGraph sub(static_cast<std::int64_t>(members.size()), 1);
  std::vector<std::size_t> remap(graph.num_transitions(),
                                 static_cast<std::size_t>(-1));
  for (const std::size_t t : members) {
    Transition copy = graph.transition(t);
    copy.column = 0;
    remap[t] = sub.add_transition(copy);
  }
  for (const Place& p : graph.places()) {
    const std::size_t from = remap[p.from];
    const std::size_t to = remap[p.to];
    if (from == static_cast<std::size_t>(-1) ||
        to == static_cast<std::size_t>(-1))
      continue;
    sub.add_place(Place{from, to, p.kind, p.initial_tokens});
  }
  sub.finalize();
  return sub;
}

}  // namespace

double max_cycle_ratio_lawler(const TimedEventGraph& graph, double tolerance) {
  SF_REQUIRE(tolerance > 0.0, "tolerance must be positive");
  const double scale = duration_scale(graph);
  const double eps = 1e-10 * scale;
  double hi = 0.0;
  for (const Transition& t : graph.transitions()) hi += t.duration;
  hi = std::max(hi, 1.0);
  double lo = -scale;
  if (!has_positive_cycle(graph, lo, eps)) {
    throw InvalidArgument(
        "event graph is acyclic: the system has no steady-state period");
  }
  while (hi - lo > tolerance) {
    const double mid = 0.5 * (lo + hi);
    if (has_positive_cycle(graph, mid, eps)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

std::vector<double> transition_periods(const TimedEventGraph& graph) {
  const std::size_t n = graph.num_transitions();
  // reaches[s][t]: a path of places leads from s to t (s reaches itself).
  std::vector<std::vector<char>> reaches(n, std::vector<char>(n, 0));
  for (std::size_t s = 0; s < n; ++s) {
    reaches[s][s] = 1;
    std::vector<std::size_t> stack{s};
    while (!stack.empty()) {
      const std::size_t v = stack.back();
      stack.pop_back();
      for (const std::size_t pid : graph.output_places(v)) {
        const std::size_t w = graph.place(pid).to;
        if (reaches[s][w] == 0) {
          reaches[s][w] = 1;
          stack.push_back(w);
        }
      }
    }
  }
  // The period of each strongly connected component (the transitions that
  // reach s and that s reaches): its max cycle ratio, 0 without a cycle.
  std::vector<double> own(n, -1.0);
  for (std::size_t s = 0; s < n; ++s) {
    if (own[s] >= 0.0) continue;
    std::vector<std::size_t> members;
    for (std::size_t t = 0; t < n; ++t)
      if (reaches[s][t] != 0 && reaches[t][s] != 0) members.push_back(t);
    const TimedEventGraph sub = induced_subgraph(graph, members);
    const double period =
        sub.num_places() > 0 ? max_cycle_ratio(sub).ratio : 0.0;
    for (const std::size_t t : members) own[t] = period;
  }
  std::vector<double> periods(n, 0.0);
  for (std::size_t s = 0; s < n; ++s)
    for (std::size_t t = 0; t < n; ++t)
      if (reaches[s][t] != 0) periods[t] = std::max(periods[t], own[s]);
  return periods;
}

TimedEventGraph column_subgraph(const TimedEventGraph& graph,
                                std::size_t column) {
  SF_REQUIRE(column < graph.num_columns(), "column out of range");
  std::vector<std::size_t> members;
  for (std::size_t t = 0; t < graph.num_transitions(); ++t)
    if (graph.transition(t).column == column) members.push_back(t);
  return induced_subgraph(graph, members);
}

std::vector<double> column_periods_overlap(const Mapping& mapping,
                                           const TpnBuildOptions& options) {
  const TimedEventGraph graph =
      build_tpn(mapping, ExecutionModel::kOverlap, options);
  std::vector<double> periods;
  periods.reserve(graph.num_columns());
  for (std::size_t c = 0; c < graph.num_columns(); ++c) {
    const TimedEventGraph sub = column_subgraph(graph, c);
    periods.push_back(max_cycle_ratio(sub).ratio);
  }
  return periods;
}

double pattern_flow_deterministic(const CommPattern& pattern) {
  const TimedEventGraph teg = build_pattern_teg(pattern);
  const double period = max_cycle_ratio(teg).ratio;
  SF_ASSERT(period > 0.0, "degenerate pattern period");
  return static_cast<double>(pattern.size()) / period;
}

TegSimResult simulate_teg_deterministic(const TimedEventGraph& graph,
                                        const TegSimOptions& options) {
  std::vector<DistributionPtr> laws;
  laws.reserve(graph.num_transitions());
  for (const Transition& t : graph.transitions())
    laws.push_back(make_constant(t.duration));
  return simulate_teg(graph, laws, options);
}

}  // namespace streamflow
