// Shared fixture builders for the streamflow test suite.
#pragma once

#include <cstddef>
#include <vector>

#include "model/mapping.hpp"

namespace streamflow::testing {

/// Linear chain without replication: stage i on processor i, with the given
/// per-stage computation times and per-file communication times (sizes are
/// folded into unit works/files via speeds and bandwidths).
inline Mapping chain_mapping(const std::vector<double>& comp_times,
                             const std::vector<double>& comm_times) {
  const std::size_t n = comp_times.size();
  Application app = Application::uniform(n);
  std::vector<double> speeds(n);
  for (std::size_t i = 0; i < n; ++i) speeds[i] = 1.0 / comp_times[i];
  Platform platform{speeds};
  for (std::size_t i = 0; i + 1 < n; ++i)
    platform.set_bandwidth(i, i + 1, 1.0 / comm_times[i]);
  std::vector<std::vector<std::size_t>> teams(n);
  for (std::size_t i = 0; i < n; ++i) teams[i] = {i};
  return Mapping(make_instance(std::move(app), std::move(platform)),
                 std::move(teams));
}

/// Two stages, u senders and v receivers, one shared communication time and
/// fast (but nonzero) computations: the "single costly communication"
/// workload of §7.4. Homogeneous network.
inline Mapping single_comm_mapping(std::size_t u, std::size_t v,
                                   double comm_time = 1.0,
                                   double comp_time = 1e-3) {
  Application app = Application::uniform(2);
  std::vector<double> speeds(u + v, 1.0 / comp_time);
  Platform platform{speeds};
  for (std::size_t a = 0; a < u; ++a)
    for (std::size_t b = 0; b < v; ++b)
      platform.set_bandwidth(a, u + b, 1.0 / comm_time);
  std::vector<std::size_t> senders(u), receivers(v);
  for (std::size_t a = 0; a < u; ++a) senders[a] = a;
  for (std::size_t b = 0; b < v; ++b) receivers[b] = u + b;
  return Mapping(make_instance(std::move(app), std::move(platform)),
                 {senders, receivers});
}

/// Like single_comm_mapping but with one communication time per link,
/// provided row-major (sender-major: times[a * v + b]).
inline Mapping single_comm_mapping_heterogeneous(
    std::size_t u, std::size_t v, const std::vector<double>& times,
    double comp_time = 1e-3) {
  Application app = Application::uniform(2);
  std::vector<double> speeds(u + v, 1.0 / comp_time);
  Platform platform{speeds};
  for (std::size_t a = 0; a < u; ++a)
    for (std::size_t b = 0; b < v; ++b)
      platform.set_bandwidth(a, u + b, 1.0 / times[a * v + b]);
  std::vector<std::size_t> senders(u), receivers(v);
  for (std::size_t a = 0; a < u; ++a) senders[a] = a;
  for (std::size_t b = 0; b < v; ++b) receivers[b] = u + b;
  return Mapping(make_instance(std::move(app), std::move(platform)),
                 {senders, receivers});
}

/// Three stages replicated (r0, r1, r2) on consecutive processors with
/// uniform computation time `comp` and uniform communication time `comm`.
inline Mapping replicated_chain_mapping(std::size_t r0, std::size_t r1,
                                        std::size_t r2, double comp = 1.0,
                                        double comm = 1.0) {
  Application app = Application::uniform(3);
  const std::size_t m = r0 + r1 + r2;
  Platform platform = Platform::fully_connected(
      std::vector<double>(m, 1.0 / comp), 1.0 / comm);
  std::vector<std::size_t> t0(r0), t1(r1), t2(r2);
  for (std::size_t i = 0; i < r0; ++i) t0[i] = i;
  for (std::size_t i = 0; i < r1; ++i) t1[i] = r0 + i;
  for (std::size_t i = 0; i < r2; ++i) t2[i] = r0 + r1 + i;
  return Mapping(make_instance(std::move(app), std::move(platform)),
                 {t0, t1, t2});
}

}  // namespace streamflow::testing
