#include "fuzz/minimize.hpp"

#include <algorithm>
#include <numeric>

namespace streamflow {

namespace {

/// Rebuilds a scenario from edited application vectors and teams, compacting
/// the platform to the processors the teams still use (ascending old-index
/// order, so compaction itself is deterministic). Throws (Error) when the
/// edited pieces no longer form a valid mapping.
Scenario rebuild(const Scenario& base, std::vector<double> works,
                 std::vector<double> files,
                 std::vector<std::vector<std::size_t>> teams) {
  const Platform& old = base.mapping.platform();
  std::vector<std::size_t> remap(old.num_processors(), Mapping::kUnused);
  std::vector<std::size_t> kept;
  std::vector<char> used(old.num_processors(), 0);
  for (const auto& team : teams) {
    for (const std::size_t p : team) used[p] = 1;
  }
  for (std::size_t p = 0; p < old.num_processors(); ++p) {
    if (used[p]) {
      remap[p] = kept.size();
      kept.push_back(p);
    }
  }
  std::vector<double> speeds;
  speeds.reserve(kept.size());
  for (const std::size_t p : kept) speeds.push_back(old.speed(p));
  Platform platform{std::move(speeds)};
  for (std::size_t i = 0; i < kept.size(); ++i) {
    for (std::size_t j = i + 1; j < kept.size(); ++j) {
      const double bandwidth = old.bandwidth(kept[i], kept[j]);
      if (bandwidth > 0.0) platform.set_bandwidth(i, j, bandwidth);
    }
  }
  for (auto& team : teams) {
    for (std::size_t& p : team) p = remap[p];
  }
  Mapping mapping{
      make_instance(Application{std::move(works), std::move(files)},
                    std::move(platform)),
      std::move(teams)};
  return Scenario{base.id, base.regime, std::move(mapping), base.law,
                  base.model};
}

std::vector<std::vector<std::size_t>> teams_of(const Mapping& mapping) {
  std::vector<std::vector<std::size_t>> teams;
  teams.reserve(mapping.num_stages());
  for (std::size_t i = 0; i < mapping.num_stages(); ++i) {
    teams.push_back(mapping.team(i));
  }
  return teams;
}

}  // namespace

std::vector<Scenario> shrink_candidates(const Scenario& scenario) {
  std::vector<Scenario> out;
  const Mapping& mapping = scenario.mapping;
  const std::vector<double>& works = mapping.application().stage_works();
  const std::vector<double>& files = mapping.application().file_sizes();
  const std::size_t num_stages = mapping.num_stages();

  if (num_stages >= 2) {
    // Drop the first stage (with file F_1 and Team_1)...
    try {
      auto teams = teams_of(mapping);
      teams.erase(teams.begin());
      out.push_back(rebuild(
          scenario, {works.begin() + 1, works.end()},
          {files.begin() + 1, files.end()}, std::move(teams)));
    } catch (const Error&) {
    }
    // ...then the last stage (with file F_{N-1} and Team_N).
    try {
      auto teams = teams_of(mapping);
      teams.pop_back();
      out.push_back(rebuild(
          scenario, {works.begin(), works.end() - 1},
          {files.begin(), files.end() - 1}, std::move(teams)));
    } catch (const Error&) {
    }
  }

  // Team shrinks, largest team first (they remove the most state), lowest
  // stage index on ties; each removes the team's last round-robin member.
  std::vector<std::size_t> order(num_stages);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return mapping.replication(a) > mapping.replication(b);
                   });
  for (const std::size_t stage : order) {
    if (mapping.replication(stage) < 2) continue;
    try {
      auto teams = teams_of(mapping);
      teams[stage].pop_back();
      out.push_back(rebuild(scenario, works, files, std::move(teams)));
    } catch (const Error&) {
    }
  }
  return out;
}

Scenario minimize_divergence(const Scenario& scenario, CheckId check,
                             const HarnessOptions& options,
                             const HarnessHooks& hooks,
                             std::size_t* steps_out) {
  Scenario current = scenario;
  std::size_t steps = 0;
  // Every accepted step strictly shrinks the scenario, so the loop
  // terminates; the cap only guards against a pathological oracle.
  constexpr std::size_t kMaxSteps = 64;
  bool progress = true;
  while (progress && steps < kMaxSteps) {
    progress = false;
    for (Scenario& candidate : shrink_candidates(current)) {
      if (check_fails(candidate, check, options, hooks)) {
        current = std::move(candidate);
        ++steps;
        progress = true;
        break;
      }
    }
  }
  if (steps_out != nullptr) *steps_out = steps;
  return current;
}

}  // namespace streamflow
