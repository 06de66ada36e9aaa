// One-to-many mappings with replication (§2.2) and their derived structure:
// teams, replication factors R_i, round-robin data paths (Proposition 1),
// per-resource deterministic times, and the cycle-time lower bounds Mct of
// §2.3 for both execution models.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/application.hpp"
#include "model/instance.hpp"
#include "model/platform.hpp"

namespace streamflow {

/// The two execution models of §2.1.
enum class ExecutionModel {
  /// A processor can receive, compute, and send simultaneously
  /// (multithreaded, full-duplex one-port per direction).
  kOverlap,
  /// Receive, compute, and send are mutually exclusive (single-threaded,
  /// one-port).
  kStrict,
};

std::string to_string(ExecutionModel model);

/// Per-processor cycle-time decomposition of §2.3, normalized per global
/// data set (a processor in a team of size R touches one data set in R).
struct CycleTime {
  double input = 0.0;    ///< C_in(p): receive-port busy time per data set.
  double compute = 0.0;  ///< C_comp(p) = w_i / (R_i * s_p): p's compute-unit
                         ///< busy time per global data set. (§2.2's
                         ///< slowest-member pacing enters max_cycle_time()
                         ///< separately — see mapping.cpp.)
  double output = 0.0;   ///< C_out(p): send-port busy time per data set.

  double exec(ExecutionModel model) const;
};

/// A validated one-to-many mapping of an Application onto a Platform.
///
/// Invariants established at construction:
///  * every stage has a non-empty team;
///  * no processor serves more than one stage;
///  * every link used by consecutive teams has a positive bandwidth;
///  * the number of round-robin paths m = lcm(R_1..R_N) fits in int64.
///
/// The problem instance is held as a shared immutable InstancePtr:
/// constructing, copying, and deriving mappings never duplicates the
/// Application or the M x M bandwidth matrix. Mappings built from the same
/// handle (or derived via with_teams) share one instance allocation.
///
/// Thread safety: a Mapping is immutable after construction and the shared
/// instance is immutable by type, so distinct threads may read the same
/// Mapping — and construct new Mappings from the same InstancePtr —
/// concurrently without synchronization. This is the contract the parallel
/// search layers build on (engine/parallel_search.hpp; verified under TSan).
class Mapping {
 public:
  /// Primary constructor: maps a shared instance with the given teams,
  /// running the full validation above.
  Mapping(InstancePtr instance, std::vector<std::vector<std::size_t>> teams);

  /// Trusted derive-from-base construction for local search: shares the
  /// base's instance and revalidates ONLY the inter-team links adjacent to
  /// a stage listed in `touched_stages` (entries equal to kUnused are
  /// ignored). Safe because the base's invariants already cover every
  /// untouched column: a column between two untouched teams is exactly the
  /// base's column, and the base validated it at construction. The caller
  /// must list every stage whose team membership differs from the base;
  /// Debug builds verify the skip with a full validation pass.
  /// Structural checks (teams partition the processors, no empty team, lcm
  /// cap) always run — they are O(M + N) and independent of the platform.
  static Mapping with_teams(const Mapping& base,
                            std::vector<std::vector<std::size_t>> teams,
                            const std::vector<std::size_t>& touched_stages);

  /// The shared immutable problem instance this mapping refers to.
  const InstancePtr& instance() const { return instance_; }

  const Application& application() const { return instance_->application; }
  const Platform& platform() const { return instance_->platform; }

  std::size_t num_stages() const { return application().num_stages(); }
  std::size_t num_processors() const { return platform().num_processors(); }

  /// Team_i: the processors executing stage i (0-based), in round-robin
  /// order.
  const std::vector<std::size_t>& team(std::size_t stage) const {
    SF_REQUIRE(stage < teams_.size(), "stage index out of range");
    return teams_[stage];
  }

  /// Replication factor R_i of stage i.
  std::size_t replication(std::size_t stage) const {
    return team(stage).size();
  }

  /// Stage served by processor p, or npos if p is unused.
  static constexpr std::size_t kUnused = static_cast<std::size_t>(-1);
  std::size_t stage_of(std::size_t p) const {
    SF_REQUIRE(p < stage_of_.size(), "processor index out of range");
    return stage_of_[p];
  }

  /// Number of distinct round-robin paths m = lcm(R_1..R_N) (Proposition 1).
  std::int64_t num_paths() const { return num_paths_; }

  /// The j-th path: processor executing each stage for data sets
  /// {j, j+m, j+2m, ...}; path(j)[i] = Team_i[j mod R_i].
  /// Requires 0 <= j < num_paths(): the paths are periodic with period m,
  /// so an index past the end is a caller bug, not a request for path
  /// j mod m.
  std::vector<std::size_t> path(std::int64_t j) const;

  // ---- Deterministic timing (means in the probabilistic setting) ----------

  /// c_p = w_i / s_p: computation time of p's stage on p.
  double comp_time(std::size_t p) const;

  /// d_{p,q} = delta_i / b_{p,q} for p in Team_i, q in Team_{i+1}.
  double comm_time(std::size_t sender, std::size_t receiver) const;

  // ---- Cycle-time lower bounds (§2.3) --------------------------------------

  /// The C_in/C_comp/C_out decomposition for processor p.
  CycleTime cycle_time(std::size_t p) const;

  /// Which Mct convention to use (§2.3).
  enum class MctConvention {
    /// Provably valid lower bound on the in-order period: per-processor
    /// utilization terms plus the slowest-member pacing term for every
    /// stage that has a downstream collector.
    kValidBound,
    /// The paper's literal definition: C_comp(p) = w_i / (R_i * s_slow)
    /// for EVERY stage, including the last. Slightly larger than
    /// kValidBound (and not a valid bound for a replicated heterogeneous
    /// last stage); used to reproduce Table 1 verbatim.
    kPaperSlowestMember,
  };

  /// Maximum cycle time Mct = max_p C_exec(p): a lower bound on the period.
  double max_cycle_time(ExecutionModel model,
                        MctConvention convention =
                            MctConvention::kValidBound) const;

  /// S_i = sum over q in Team_i of 1 / max(C_comp(q), R_i * C_in(q)): an
  /// admissible upper bound on the SUMMED stage-i completion rate, and
  /// therefore (by flow conservation along the pipeline: each column's
  /// receivers cannot jointly complete faster than its senders) on the
  /// system throughput for BOTH objectives. Per processor q: its compute
  /// unit is busy C_comp(q) per item, so its completion rate is at most
  /// 1/C_comp(q); its input port is busy R_i * C_in(q) per item it
  /// processes (C_in is the per-global-data-set average, and q serves one
  /// global data set in R_i), so utilization caps the rate at
  /// 1/(R_i * C_in(q)). C_out is deliberately excluded: the column method
  /// does not cap a sender's computed rate by its own output port, and the
  /// screen must upper-bound the computed score, not just the true system.
  /// min_i stage_rate_bound(i) is the tier-1 screen of
  /// AnalysisContext::probe_move; S_i depends only on teams i-1 and i, so a
  /// move refreshes O(touched-teams) entries of a cached per-stage vector.
  double stage_rate_bound(std::size_t stage) const;

  std::string to_string() const;

 private:
  /// Shared implementation of the validating constructor and with_teams:
  /// when `validate_column` is non-null, only columns it flags get the
  /// O(R^2) link-bandwidth check (the structural checks always run).
  Mapping(InstancePtr instance, std::vector<std::vector<std::size_t>> teams,
          const std::vector<char>* validate_column);

  InstancePtr instance_;
  std::vector<std::vector<std::size_t>> teams_;
  std::vector<std::size_t> stage_of_;
  std::int64_t num_paths_ = 1;
};

}  // namespace streamflow
