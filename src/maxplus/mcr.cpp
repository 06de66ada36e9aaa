#include "maxplus/mcr.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

namespace streamflow {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Scale of the instance, used to derive relaxation epsilons: improvements
/// below eps are treated as FP noise. At lambda equal to an exact cycle
/// ratio the critical cycle has reduced weight 0; without this guard its
/// rounding noise shows up as a phantom "positive" cycle and stalls the
/// Dinkelbach iteration below the true optimum.
double duration_scale(const TimedEventGraph& graph) {
  double scale = 1.0;
  for (const Transition& t : graph.transitions())
    scale = std::max(scale, std::fabs(t.duration));
  return scale;
}

/// One Bellman–Ford longest-path sweep family: finds a cycle of total
/// weight > eps * length, with w(e) = duration(head(e)) - lambda*tokens(e).
/// Returns the place ids of one such cycle.
std::optional<std::vector<std::size_t>> find_positive_cycle(
    const TimedEventGraph& graph, double lambda, double eps) {
  const std::size_t v = graph.num_transitions();
  std::vector<double> dist(v, 0.0);
  std::vector<std::size_t> pred_place(v, kNone);

  auto weight = [&](const Place& p) {
    return graph.transition(p.to).duration -
           lambda * static_cast<double>(p.initial_tokens);
  };

  std::size_t last_updated = kNone;
  for (std::size_t pass = 0; pass <= v; ++pass) {
    last_updated = kNone;
    for (std::size_t pid = 0; pid < graph.num_places(); ++pid) {
      const Place& p = graph.place(pid);
      const double cand = dist[p.from] + weight(p);
      if (cand > dist[p.to] + eps) {
        dist[p.to] = cand;
        pred_place[p.to] = pid;
        last_updated = p.to;
      }
    }
    if (last_updated == kNone) return std::nullopt;  // converged: no cycle
  }

  // Still relaxing after |V| passes: a positive cycle exists. Walk the
  // predecessor chain |V| steps to be sure we are inside a cycle.
  std::size_t node = last_updated;
  for (std::size_t i = 0; i < v; ++i) {
    SF_ASSERT(pred_place[node] != kNone, "broken predecessor chain");
    node = graph.place(pred_place[node]).from;
  }
  // Collect the cycle.
  std::vector<std::size_t> cycle_places;
  std::size_t cursor = node;
  do {
    const std::size_t pid = pred_place[cursor];
    SF_ASSERT(pid != kNone, "broken predecessor cycle");
    cycle_places.push_back(pid);
    cursor = graph.place(pid).from;
  } while (cursor != node && cycle_places.size() <= v);
  SF_ASSERT(cursor == node, "failed to close predecessor cycle");
  std::reverse(cycle_places.begin(), cycle_places.end());
  return cycle_places;
}

/// Exact ratio of a cycle given as place ids.
CriticalCycle evaluate_cycle(const TimedEventGraph& graph,
                             std::vector<std::size_t> cycle_places) {
  CriticalCycle result;
  double durations = 0.0;
  int tokens = 0;
  for (std::size_t pid : cycle_places) {
    const Place& p = graph.place(pid);
    durations += graph.transition(p.to).duration;
    tokens += p.initial_tokens;
    result.transitions.push_back(p.to);
  }
  SF_ASSERT(tokens > 0,
            "token-free cycle encountered; the event graph is not live");
  result.places = std::move(cycle_places);
  result.tokens = tokens;
  result.ratio = durations / static_cast<double>(tokens);
  return result;
}

}  // namespace

CriticalCycle max_cycle_ratio(const TimedEventGraph& graph) {
  SF_REQUIRE(graph.num_places() > 0, "event graph has no places");
  const double scale = duration_scale(graph);
  const double base_eps = 1e-12 * scale;

  // Any lambda below every possible ratio makes every cycle positive;
  // ratios are >= 0, so -scale guarantees the first detection finds a cycle
  // whenever one exists at all.
  auto first = find_positive_cycle(graph, -scale, base_eps);
  if (!first) {
    throw InvalidArgument(
        "event graph is acyclic: the system has no steady-state period");
  }
  CriticalCycle best = evaluate_cycle(graph, std::move(*first));

  constexpr int kMaxRounds = 10'000;
  double eps = std::max(base_eps, 1e-10 * scale);
  for (int round = 0; round < kMaxRounds; ++round) {
    auto cycle = find_positive_cycle(graph, best.ratio, eps);
    if (!cycle) return best;  // no cycle beats the current ratio: optimal
    CriticalCycle candidate = evaluate_cycle(graph, std::move(*cycle));
    if (candidate.ratio <= best.ratio * (1.0 + 1e-12)) {
      // Phantom cycle (FP noise around the zero-reduced-weight critical
      // cycle): raise the relaxation threshold and retry instead of
      // concluding optimality or looping forever.
      eps *= 10.0;
      if (eps > 1e-6 * scale) return best;
      continue;
    }
    best = std::move(candidate);
  }
  throw NumericalError("max_cycle_ratio: Dinkelbach iteration did not settle");
}

}  // namespace streamflow
