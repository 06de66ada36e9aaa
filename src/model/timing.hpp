// Assignment of random laws to hardware resources — the "independent case"
// of §2.4: one I.I.D. law per processor and per used link, mutually
// independent. Deterministic times are the degenerate constant laws.
#pragma once

#include <vector>

#include "dist/distribution.hpp"
#include "model/mapping.hpp"

namespace streamflow {

/// Per-resource law table for a given mapping. The mean of each law defaults
/// to the deterministic time of the resource (w_i/s_p, delta_i/b_{p,q}), as
/// in all of the paper's experiments, but can be overridden per resource.
class StochasticTiming {
 public:
  /// All laws constant, equal to the deterministic times.
  static StochasticTiming deterministic(const Mapping& mapping);

  /// All laws exponential with the deterministic times as means (§5).
  static StochasticTiming exponential(const Mapping& mapping);

  /// Every resource gets `prototype` rescaled to its deterministic mean
  /// (the Fig 16/17 protocol: same law family, equal means).
  static StochasticTiming scaled(const Mapping& mapping,
                                 const Distribution& prototype);

  /// Law of the computation time of processor p.
  const DistributionPtr& comp(std::size_t p) const;

  /// Law of the communication time on link (sender -> receiver).
  const DistributionPtr& comm(std::size_t sender, std::size_t receiver) const;

  /// Override one processor's law.
  void set_comp(std::size_t p, DistributionPtr law);

  /// Override one link's law.
  void set_comm(std::size_t sender, std::size_t receiver, DistributionPtr law);

  /// True if every assigned law is N.B.U.E. (Theorem 7's bounds then hold).
  bool all_nbue() const;

  std::size_t num_processors() const { return comp_.size(); }

 private:
  explicit StochasticTiming(const Mapping& mapping);

  const Mapping* mapping_;
  std::vector<DistributionPtr> comp_;            // by processor, null if unused
  std::vector<DistributionPtr> comm_;            // row-major M x M, null unused
};

}  // namespace streamflow
