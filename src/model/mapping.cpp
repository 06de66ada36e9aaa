#include "model/mapping.hpp"

#include <algorithm>
#include <sstream>

#include "common/math_utils.hpp"

namespace streamflow {

std::string to_string(ExecutionModel model) {
  return model == ExecutionModel::kOverlap ? "Overlap" : "Strict";
}

double CycleTime::exec(ExecutionModel model) const {
  if (model == ExecutionModel::kOverlap)
    return std::max({input, compute, output});
  return input + compute + output;
}

Mapping::Mapping(InstancePtr instance,
                 std::vector<std::vector<std::size_t>> teams,
                 const std::vector<char>* validate_column)
    : instance_(std::move(instance)), teams_(std::move(teams)) {
  SF_REQUIRE(instance_ != nullptr, "mapping requires a non-null instance");
  const std::size_t n = application().num_stages();
  const std::size_t m = platform().num_processors();
  SF_REQUIRE(teams_.size() == n, "need exactly one team per stage");

  stage_of_.assign(m, kUnused);
  for (std::size_t i = 0; i < n; ++i) {
    SF_REQUIRE(!teams_[i].empty(),
               "stage " + std::to_string(i + 1) + " has an empty team");
    for (const std::size_t p : teams_[i]) {
      SF_REQUIRE(p < m, "team of stage " + std::to_string(i + 1) +
                            " references unknown processor " +
                            std::to_string(p));
      SF_REQUIRE(stage_of_[p] == kUnused,
                 "processor " + std::to_string(p) +
                     " is assigned to more than one stage");
      stage_of_[p] = i;
    }
  }

  // Every inter-team link must exist (positive bandwidth) unless the file is
  // empty; sender == receiver would mean the same processor serves two
  // stages, which the one-stage-per-processor rule already excludes. The
  // with_teams derive path narrows this O(N * R^2) pass to the columns a
  // move touched (untouched columns are covered by the base's invariants);
  // Debug builds keep checking every column so a trust violation trips the
  // assert below instead of corrupting an analysis.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const bool trusted = validate_column != nullptr && !(*validate_column)[i];
#ifdef NDEBUG
    if (trusted) continue;
#endif
    if (application().file_size(i) == 0.0) continue;
    for (std::size_t p : teams_[i]) {
      for (std::size_t q : teams_[i + 1]) {
        if (trusted) {
          SF_ASSERT(platform().bandwidth(p, q) > 0.0,
                    "with_teams skipped validating a column whose teams "
                    "changed (incomplete touched_stages list)");
          continue;
        }
        SF_REQUIRE(platform().bandwidth(p, q) > 0.0,
                   "no bandwidth defined between processors " +
                       std::to_string(p) + " and " + std::to_string(q) +
                       " used by stages " + std::to_string(i + 1) + " -> " +
                       std::to_string(i + 2));
      }
    }
  }

  std::vector<std::int64_t> factors;
  factors.reserve(n);
  for (const auto& team : teams_)
    factors.push_back(static_cast<std::int64_t>(team.size()));
  num_paths_ = checked_lcm(std::span<const std::int64_t>(factors));
}

Mapping::Mapping(InstancePtr instance,
                 std::vector<std::vector<std::size_t>> teams)
    : Mapping(std::move(instance), std::move(teams),
              /*validate_column=*/nullptr) {}

Mapping Mapping::with_teams(const Mapping& base,
                            std::vector<std::vector<std::size_t>> teams,
                            const std::vector<std::size_t>& touched_stages) {
  const std::size_t n = base.num_stages();
  SF_REQUIRE(teams.size() == n, "need exactly one team per stage");
  // Column i sits between stages i and i+1: revalidate it iff one of its
  // endpoint teams changed.
  std::vector<char> validate(n == 0 ? 0 : n - 1, 0);
  for (const std::size_t stage : touched_stages) {
    if (stage == kUnused) continue;
    SF_REQUIRE(stage < n, "touched stage index out of range");
    if (stage > 0) validate[stage - 1] = 1;
    if (stage + 1 < n) validate[stage] = 1;
  }
  return Mapping(base.instance_, std::move(teams), &validate);
}

std::vector<std::size_t> Mapping::path(std::int64_t j) const {
  SF_REQUIRE(j >= 0, "path index must be non-negative");
  SF_REQUIRE(j < num_paths_,
             "path index " + std::to_string(j) + " out of range (m = " +
                 std::to_string(num_paths_) + " paths)");
  std::vector<std::size_t> p;
  p.reserve(teams_.size());
  for (const auto& team : teams_)
    p.push_back(team[static_cast<std::size_t>(
        j % static_cast<std::int64_t>(team.size()))]);
  return p;
}

double Mapping::comp_time(std::size_t p) const {
  const std::size_t stage = stage_of(p);
  SF_REQUIRE(stage != kUnused, "processor is not mapped to any stage");
  return application().work(stage) / platform().speed(p);
}

double Mapping::comm_time(std::size_t sender, std::size_t receiver) const {
  const std::size_t i = stage_of(sender);
  SF_REQUIRE(i != kUnused, "sender is not mapped");
  SF_REQUIRE(stage_of(receiver) == i + 1,
             "receiver must serve the stage following the sender's");
  const double delta = application().file_size(i);
  if (delta == 0.0) return 0.0;
  return delta / platform().bandwidth(sender, receiver);
}

CycleTime Mapping::cycle_time(std::size_t p) const {
  const std::size_t i = stage_of(p);
  SF_REQUIRE(i != kUnused, "processor is not mapped to any stage");
  // p's round-robin offset inside its team.
  const std::size_t a = static_cast<std::size_t>(
      std::find(teams_[i].begin(), teams_[i].end(), p) - teams_[i].begin());
  const auto r_i = static_cast<std::int64_t>(teams_[i].size());

  CycleTime ct;

  // C_comp: p's own compute-unit busy time per global data set (p serves
  // one data set in R_i). Note: §2.2 uses the SLOWEST team member here; that
  // pacing is real for stages with a downstream collector but is not a
  // valid bound for a replicated last stage, so the slowest-member term is
  // accounted for separately in max_cycle_time().
  ct.compute = application().work(i) /
               (static_cast<double>(r_i) * platform().speed(p));

  // C_in: average busy time of p's input port per global data set. p's
  // occurrences are the rows j = a (mod R_i); the sender pattern repeats
  // with period lcm(R_{i-1}, R_i).
  if (i > 0) {
    const auto& prev = teams_[i - 1];
    const std::int64_t l =
        checked_lcm(r_i, static_cast<std::int64_t>(prev.size()));
    double sum = 0.0;
    for (std::int64_t j = static_cast<std::int64_t>(a); j < l; j += r_i) {
      const std::size_t sender =
          prev[static_cast<std::size_t>(j % static_cast<std::int64_t>(prev.size()))];
      sum += comm_time(sender, p);
    }
    ct.input = sum / static_cast<double>(l);
  }

  // C_out symmetrically, toward stage i+1.
  if (i + 1 < teams_.size()) {
    const auto& next = teams_[i + 1];
    const std::int64_t l =
        checked_lcm(r_i, static_cast<std::int64_t>(next.size()));
    double sum = 0.0;
    for (std::int64_t j = static_cast<std::int64_t>(a); j < l; j += r_i) {
      const std::size_t receiver =
          next[static_cast<std::size_t>(j % static_cast<std::int64_t>(next.size()))];
      sum += comm_time(p, receiver);
    }
    ct.output = sum / static_cast<double>(l);
  }

  return ct;
}

double Mapping::max_cycle_time(ExecutionModel model,
                               MctConvention convention) const {
  auto slowest_compute = [this](std::size_t i) {
    double slow_speed = platform().speed(teams_[i][0]);
    for (std::size_t q : teams_[i])
      slow_speed = std::min(slow_speed, platform().speed(q));
    return application().work(i) /
           (static_cast<double>(teams_[i].size()) * slow_speed);
  };

  double mct = 0.0;
  for (std::size_t p = 0; p < platform().num_processors(); ++p) {
    if (stage_of_[p] == kUnused) continue;
    CycleTime ct = cycle_time(p);
    if (convention == MctConvention::kPaperSlowestMember) {
      // §2.3 verbatim: C_comp(p) = w_i / (R_i * s_slow) for every stage.
      ct.compute = slowest_compute(stage_of_[p]);
    }
    mct = std::max(mct, ct.exec(model));
  }
  if (convention == MctConvention::kValidBound) {
    // Round-robin pacing (§2.2): a replicated stage delivers results to its
    // successor in row order, so the slowest team member paces the whole
    // stage: period >= w_i / (R_i * s_slow). This holds only when a
    // downstream stage collects in round-robin order — a replicated LAST
    // stage completes rows independently.
    for (std::size_t i = 0; i + 1 < teams_.size(); ++i) {
      mct = std::max(mct, slowest_compute(i));
    }
  }
  return mct;
}

double Mapping::stage_rate_bound(std::size_t stage) const {
  SF_REQUIRE(stage < teams_.size(), "stage index out of range");
  const double r = static_cast<double>(teams_[stage].size());
  double sum = 0.0;
  for (std::size_t q : teams_[stage]) {
    const CycleTime ct = cycle_time(q);
    // C_comp already carries the 1/R_i factor; C_in is per global data set
    // and q touches one in R_i, so its per-item port busy time is R_i*C_in.
    const double busy = std::max(ct.compute * r, r * ct.input);
    sum += 1.0 / busy;  // busy == 0 => +inf contribution (no constraint)
  }
  return sum;
}

std::string Mapping::to_string() const {
  std::ostringstream os;
  os << "Mapping[m=" << num_paths_ << " paths;";
  for (std::size_t i = 0; i < teams_.size(); ++i) {
    os << " T" << (i + 1) << "->{";
    for (std::size_t k = 0; k < teams_[i].size(); ++k)
      os << (k ? "," : "") << "P" << teams_[i][k];
    os << "}";
  }
  os << "]";
  return os.str();
}

}  // namespace streamflow
