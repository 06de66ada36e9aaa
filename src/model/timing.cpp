#include "model/timing.hpp"


namespace streamflow {

StochasticTiming::StochasticTiming(const Mapping& mapping)
    : mapping_(&mapping) {
  const std::size_t m = mapping.num_processors();
  comp_.assign(m, nullptr);
  comm_.assign(m * m, nullptr);
}

namespace {
template <typename MakeComp, typename MakeComm>
StochasticTiming build(const Mapping& mapping, MakeComp&& make_comp,
                       MakeComm&& make_comm, StochasticTiming timing) {
  const std::size_t n = mapping.num_stages();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t p : mapping.team(i)) {
      timing.set_comp(p, make_comp(mapping.comp_time(p)));
      if (i + 1 < n) {
        for (std::size_t q : mapping.team(i + 1)) {
          timing.set_comm(p, q, make_comm(mapping.comm_time(p, q)));
        }
      }
    }
  }
  return timing;
}
}  // namespace

StochasticTiming StochasticTiming::deterministic(const Mapping& mapping) {
  auto make = [](double mean) { return make_constant(mean); };
  return build(mapping, make, make, StochasticTiming(mapping));
}

StochasticTiming StochasticTiming::exponential(const Mapping& mapping) {
  auto make = [](double mean) {
    // A zero-time resource (empty file) stays deterministic zero.
    return mean > 0.0 ? make_exponential_mean(mean) : make_constant(0.0);
  };
  return build(mapping, make, make, StochasticTiming(mapping));
}

StochasticTiming StochasticTiming::scaled(const Mapping& mapping,
                                          const Distribution& prototype) {
  auto make = [&prototype](double mean) {
    return mean > 0.0 ? prototype.with_mean(mean) : make_constant(0.0);
  };
  return build(mapping, make, make, StochasticTiming(mapping));
}

const DistributionPtr& StochasticTiming::comp(std::size_t p) const {
  SF_REQUIRE(p < comp_.size(), "processor index out of range");
  SF_REQUIRE(comp_[p] != nullptr, "processor has no assigned law (unused?)");
  return comp_[p];
}

const DistributionPtr& StochasticTiming::comm(std::size_t sender,
                                              std::size_t receiver) const {
  const std::size_t m = comp_.size();
  SF_REQUIRE(sender < m && receiver < m, "processor index out of range");
  const DistributionPtr& law = comm_[sender * m + receiver];
  SF_REQUIRE(law != nullptr, "link has no assigned law (unused?)");
  return law;
}

void StochasticTiming::set_comp(std::size_t p, DistributionPtr law) {
  SF_REQUIRE(p < comp_.size(), "processor index out of range");
  SF_REQUIRE(law != nullptr, "law must not be null");
  comp_[p] = std::move(law);
}

void StochasticTiming::set_comm(std::size_t sender, std::size_t receiver,
                                DistributionPtr law) {
  const std::size_t m = comp_.size();
  SF_REQUIRE(sender < m && receiver < m, "processor index out of range");
  SF_REQUIRE(law != nullptr, "law must not be null");
  comm_[sender * m + receiver] = std::move(law);
}

bool StochasticTiming::all_nbue() const {
  for (const auto& law : comp_)
    if (law && !law->is_nbue()) return false;
  for (const auto& law : comm_)
    if (law && !law->is_nbue()) return false;
  return true;
}

}  // namespace streamflow
