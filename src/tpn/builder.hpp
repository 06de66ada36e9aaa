// Construction of the timed event graph of a replicated mapping (Section 3):
// m = lcm(R_1..R_N) rows of 2N-1 transitions, with data-flow places along
// rows and round-robin resource-serialization places across rows. The
// Overlap net (§3.2) serializes each compute unit, each output port, and
// each input port independently; the Strict net (§3.3) serializes the whole
// receive -> compute -> send sequence of each processor.
#pragma once

#include "model/mapping.hpp"
#include "tpn/graph.hpp"

namespace streamflow {

struct TpnBuildOptions {
  /// Safety cap on the number of rows m = lcm(R_1..R_N); exceeding it throws
  /// CapacityExceeded rather than silently materializing a huge net.
  std::int64_t max_rows = 1 << 20;
};

/// Builds the TPN for the given mapping and execution model. The returned
/// graph is finalized and liveness-checked; transition (row j, column c)
/// has id j * num_columns + c. Time O(m * N) (§3.3).
TimedEventGraph build_tpn(const Mapping& mapping, ExecutionModel model,
                          const TpnBuildOptions& options = {});

}  // namespace streamflow
