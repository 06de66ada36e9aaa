#include "young/pattern_analysis.hpp"

#include "markov/throughput.hpp"

namespace streamflow {

PatternFlow pattern_flow_exponential(const CommPattern& pattern,
                                     std::size_t max_states) {
  const TimedEventGraph teg = build_pattern_teg(pattern);
  const std::vector<double> rates = rates_from_durations(teg);
  GeneralMethodOptions options;
  options.reachability.max_states = max_states;
  const GeneralMethodResult r = saturated_flow(teg, rates, options);
  SF_ASSERT(!r.capacity_clipped,
            "pattern TEG has no flow places; capacity cannot clip");
  return PatternFlow{r.throughput, r.num_states};
}

double pattern_flow_exponential_homogeneous(std::size_t u, std::size_t v,
                                            double rate) {
  SF_REQUIRE(u >= 1 && v >= 1, "pattern dimensions must be >= 1");
  SF_REQUIRE(rate > 0.0, "rate must be positive");
  return static_cast<double>(u) * static_cast<double>(v) * rate /
         static_cast<double>(u + v - 1);
}

}  // namespace streamflow
