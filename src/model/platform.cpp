#include "model/platform.hpp"

#include <algorithm>
#include <sstream>

namespace streamflow {

Platform::Platform(std::vector<double> speeds) : speeds_(std::move(speeds)) {
  SF_REQUIRE(!speeds_.empty(), "platform needs at least one processor");
  for (double s : speeds_)
    SF_REQUIRE(s > 0.0, "processor speed must be positive");
  bandwidths_.assign(speeds_.size() * speeds_.size(), 0.0);
}

Platform Platform::fully_connected(std::vector<double> speeds,
                                   double bandwidth) {
  SF_REQUIRE(bandwidth > 0.0, "bandwidth must be positive");
  Platform p(std::move(speeds));
  const std::size_t m = p.num_processors();
  for (std::size_t a = 0; a < m; ++a)
    for (std::size_t b = 0; b < m; ++b)
      if (a != b) p.bandwidths_[a * m + b] = bandwidth;
  return p;
}

Platform Platform::star(std::vector<double> speeds,
                        const std::vector<double>& nic_bandwidths) {
  Platform p(std::move(speeds));
  const std::size_t m = p.num_processors();
  SF_REQUIRE(nic_bandwidths.size() == m,
             "need one NIC bandwidth per processor");
  for (double b : nic_bandwidths)
    SF_REQUIRE(b > 0.0, "NIC bandwidth must be positive");
  for (std::size_t a = 0; a < m; ++a)
    for (std::size_t b = 0; b < m; ++b)
      if (a != b)
        p.bandwidths_[a * m + b] = std::min(nic_bandwidths[a], nic_bandwidths[b]);
  return p;
}

void Platform::set_bandwidth(std::size_t p, std::size_t q, double bandwidth) {
  SF_REQUIRE(p < speeds_.size() && q < speeds_.size(),
             "processor index out of range");
  SF_REQUIRE(p != q, "no self-link");
  SF_REQUIRE(bandwidth > 0.0, "bandwidth must be positive");
  const std::size_t m = speeds_.size();
  bandwidths_[p * m + q] = bandwidth;
  bandwidths_[q * m + p] = bandwidth;
}

std::string Platform::to_string() const {
  std::ostringstream os;
  os << "Platform[" << num_processors() << " processors; speeds:";
  for (double s : speeds_) os << " " << s;
  os << "]";
  return os.str();
}

}  // namespace streamflow
