// Workload fixtures shared by the figure benches.
#pragma once

#include <cstddef>
#include <vector>

#include "model/mapping.hpp"

namespace streamflow::bench {

/// The §7.2/§7.3 system: 7 stages replicated 1, 3, 4, 5, 6, 7, 1 times
/// (m = lcm = 420). Computation-bound (unit compute, fast comms) so the
/// exponential and constant throughputs nearly coincide, as in Fig 10.
inline Mapping fig10_system() {
  const std::vector<std::size_t> replication{1, 3, 4, 5, 6, 7, 1};
  std::size_t total = 0;
  for (std::size_t r : replication) total += r;
  Application app = Application::uniform(replication.size());
  // Unit computation time everywhere; fast homogeneous network (comm 0.05).
  Platform platform = Platform::fully_connected(
      std::vector<double>(total, 1.0), 1.0 / 0.05);
  std::vector<std::vector<std::size_t>> teams(replication.size());
  std::size_t next = 0;
  for (std::size_t i = 0; i < replication.size(); ++i)
    for (std::size_t k = 0; k < replication[i]; ++k) teams[i].push_back(next++);
  return Mapping(make_instance(std::move(app), std::move(platform)),
                 std::move(teams));
}

/// §7.4's repeated-pattern chain: k copies of a (5 senders -> 7 receivers)
/// pattern, joined by cheap links; the 5 -> 7 communication is the costly
/// one. num_stages = 2k.
inline Mapping fig12_system(std::size_t k, double costly_comm = 1.0,
                            double cheap_comm = 0.01,
                            double comp_time = 0.01) {
  const std::size_t n = 2 * k;
  std::vector<double> works(n, 1.0);
  std::vector<double> files(n - 1, 1.0);
  Application app(works, files);
  const std::size_t total = 12 * k;
  Platform platform(std::vector<double>(total, 1.0 / comp_time));
  std::vector<std::vector<std::size_t>> teams(n);
  std::size_t next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t size = (i % 2 == 0) ? 5 : 7;
    for (std::size_t j = 0; j < size; ++j) teams[i].push_back(next++);
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double t = (i % 2 == 0) ? costly_comm : cheap_comm;
    for (std::size_t p : teams[i])
      for (std::size_t q : teams[i + 1]) platform.set_bandwidth(p, q, 1.0 / t);
  }
  return Mapping(make_instance(std::move(app), std::move(platform)),
                 std::move(teams));
}

/// Single u x v communication with negligible computations (§7.4-§7.6),
/// homogeneous comm time d.
inline Mapping single_comm(std::size_t u, std::size_t v, double d = 1.0,
                           double comp = 1e-3) {
  Application app = Application::uniform(2);
  Platform platform(std::vector<double>(u + v, 1.0 / comp));
  for (std::size_t a = 0; a < u; ++a)
    for (std::size_t b = 0; b < v; ++b)
      platform.set_bandwidth(a, u + b, 1.0 / d);
  std::vector<std::size_t> senders(u), receivers(v);
  for (std::size_t a = 0; a < u; ++a) senders[a] = a;
  for (std::size_t b = 0; b < v; ++b) receivers[b] = u + b;
  return Mapping(make_instance(std::move(app), std::move(platform)),
                 {senders, receivers});
}

}  // namespace streamflow::bench
