#include "sim/teg_sim.hpp"

#include <algorithm>
#include <limits>

#include "common/prng.hpp"

namespace streamflow {

std::vector<DistributionPtr> transition_laws(const TimedEventGraph& graph,
                                             const StochasticTiming& timing) {
  std::vector<DistributionPtr> laws;
  laws.reserve(graph.num_transitions());
  for (const Transition& t : graph.transitions()) {
    laws.push_back(t.kind == TransitionKind::kCompute
                       ? timing.comp(t.proc)
                       : timing.comm(t.proc, t.proc2));
  }
  return laws;
}

namespace {

/// Topological order of the token-free-place subgraph (exists by liveness).
std::vector<std::size_t> token_free_topo_order(const TimedEventGraph& graph) {
  std::vector<std::size_t> indegree(graph.num_transitions(), 0);
  for (const Place& p : graph.places()) {
    if (p.initial_tokens == 0) ++indegree[p.to];
  }
  std::vector<std::size_t> order;
  order.reserve(graph.num_transitions());
  std::vector<std::size_t> queue;
  for (std::size_t t = 0; t < graph.num_transitions(); ++t)
    if (indegree[t] == 0) queue.push_back(t);
  while (!queue.empty()) {
    const std::size_t t = queue.back();
    queue.pop_back();
    order.push_back(t);
    for (std::size_t pid : graph.output_places(t)) {
      const Place& p = graph.place(pid);
      if (p.initial_tokens > 0) continue;
      if (--indegree[p.to] == 0) queue.push_back(p.to);
    }
  }
  SF_ASSERT(order.size() == graph.num_transitions(),
            "token-free subgraph has a cycle: the net is not live");
  return order;
}

/// The (max,plus) round loop; transition t draws its firing times from
/// samplers[t].
TegSimResult run_rounds(const TimedEventGraph& graph,
                        const TegSimOptions& options,
                        std::vector<BatchSampler>& samplers) {
  const std::vector<std::size_t> order = token_free_topo_order(graph);

  // prev[t] = completion of firing k-1, curr[t] = completion of firing k.
  std::vector<double> prev(graph.num_transitions(), 0.0);
  std::vector<double> curr(graph.num_transitions(), 0.0);
  const std::vector<std::size_t> last_col = graph.last_column_transitions();
  SF_ASSERT(!last_col.empty(), "graph has no last-column transitions");

  const std::int64_t warmup_rounds = static_cast<std::int64_t>(
      options.warmup_fraction * static_cast<double>(options.rounds));

  // Rows of a feed-forward net can fire at different asymptotic rates (a
  // slow output row lags unboundedly behind a fast one), so the throughput
  // must be measured PER last-column transition and summed — measuring one
  // global window would conflate the rows.
  std::vector<double> window_start(last_col.size(), 0.0);
  std::vector<double> window_end(last_col.size(), 0.0);

  for (std::int64_t k = 1; k <= options.rounds; ++k) {
    for (const std::size_t t : order) {
      double ready = 0.0;
      for (const std::size_t pid : graph.input_places(t)) {
        const Place& p = graph.place(pid);
        // A place with w tokens hands firing k the token produced by the
        // k-w-th firing of its producer (or an initial token, ready at 0).
        const double avail =
            p.initial_tokens > 0 ? prev[p.from] : curr[p.from];
        ready = std::max(ready, avail);
      }
      curr[t] = ready + samplers[t].next();
    }
    if (k == warmup_rounds) {
      for (std::size_t i = 0; i < last_col.size(); ++i)
        window_start[i] = curr[last_col[i]];
    }
    prev.swap(curr);
  }
  // prev now holds the final round's completions.
  for (std::size_t i = 0; i < last_col.size(); ++i)
    window_end[i] = prev[last_col[i]];

  TegSimResult result;
  const std::int64_t measured_rounds =
      options.rounds - std::max<std::int64_t>(warmup_rounds, 0);
  result.completed =
      measured_rounds * static_cast<std::int64_t>(last_col.size());
  double min_row_rate = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < last_col.size(); ++i) {
    const double span = window_end[i] - window_start[i];
    SF_ASSERT(span > 0.0, "empty measurement window");
    const double rate = static_cast<double>(measured_rounds) / span;
    result.throughput += rate;
    min_row_rate = std::min(min_row_rate, rate);
    result.horizon = std::max(result.horizon, window_end[i]);
    result.elapsed = std::max(result.elapsed, span);
  }
  result.in_order_throughput =
      min_row_rate * static_cast<double>(last_col.size());
  return result;
}

}  // namespace

void TegSimOptions::validate() const {
  SF_REQUIRE(rounds >= 10, "need at least 10 rounds");
  SF_REQUIRE(warmup_fraction >= 0.0 && warmup_fraction < 1.0,
             "warmup fraction must be in [0, 1)");
}

TegSimResult simulate_teg(const TimedEventGraph& graph,
                          const std::vector<DistributionPtr>& laws,
                          Prng& prng, const TegSimOptions& options) {
  SF_REQUIRE(laws.size() == graph.num_transitions(),
             "need one law per transition");
  options.validate();

  // Transition t draws from the pure child substream split(t) of the
  // stream's entry state. The parent is advanced exactly one draw so that
  // back-to-back simulations on the same injected stream see fresh
  // (decorrelated) substream families.
  const Prng root = prng;
  (void)prng();
  const std::size_t raw_block = pick_block_draws(
      laws.size(), static_cast<std::size_t>(options.rounds));
  std::vector<BatchSampler> samplers;
  samplers.reserve(laws.size());
  for (std::size_t t = 0; t < laws.size(); ++t)
    samplers.emplace_back(laws[t], root.split(t), options.refill_isa,
                          raw_block);
  return run_rounds(graph, options, samplers);
}

TegSimResult simulate_teg(const TimedEventGraph& graph,
                          const std::vector<DistributionPtr>& laws,
                          const TegSimOptions& options) {
  Prng prng(options.seed);
  return simulate_teg(graph, laws, prng, options);
}

}  // namespace streamflow
