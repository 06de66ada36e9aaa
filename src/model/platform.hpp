// The fully heterogeneous platform of §2.1: M processors with speeds s_p
// (flops/s) and bidirectional logical links with bandwidths b_{p,q}
// (bytes/s). Links may be logical (e.g. a star through a switch).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace streamflow {

class Platform {
 public:
  /// Creates a platform with the given speeds and all bandwidths unset (0).
  explicit Platform(std::vector<double> speeds);

  /// Fully connected platform with one bandwidth everywhere.
  static Platform fully_connected(std::vector<double> speeds,
                                  double bandwidth);

  /// Star topology through a central switch: the effective logical bandwidth
  /// between p and q is min of their NIC bandwidths.
  static Platform star(std::vector<double> speeds,
                       const std::vector<double>& nic_bandwidths);

  std::size_t num_processors() const { return speeds_.size(); }

  double speed(std::size_t p) const {
    SF_REQUIRE(p < speeds_.size(), "processor index out of range");
    return speeds_[p];
  }

  double bandwidth(std::size_t p, std::size_t q) const {
    SF_REQUIRE(p < speeds_.size() && q < speeds_.size(),
               "processor index out of range");
    return bandwidths_[p * speeds_.size() + q];
  }

  /// Sets the bandwidth of the (bidirectional) link p <-> q.
  void set_bandwidth(std::size_t p, std::size_t q, double bandwidth);

  std::string to_string() const;

 private:
  std::vector<double> speeds_;
  std::vector<double> bandwidths_;  // row-major M x M, 0 = unset
};

}  // namespace streamflow
