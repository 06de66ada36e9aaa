// Timed event graphs (timed Petri nets where every place has exactly one
// input and one output transition), the modeling vehicle of Section 3.
//
// Transitions model the use of a physical resource for a duration (stage
// computation, file transfer); places model dependences (data flow along a
// row, round-robin serialization of a resource across rows).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace streamflow {

enum class TransitionKind : std::uint8_t {
  kCompute,  ///< stage T_i executed on a processor
  kComm,     ///< file F_i transferred over a link
};

enum class PlaceKind : std::uint8_t {
  kFlow,      ///< data-flow dependence along a row (left-to-right)
  kResource,  ///< round-robin serialization of a resource across rows
};

/// One transition of the event graph: row = round-robin path index,
/// column = position in the unfolded pipeline (2i for stage i's computation,
/// 2i+1 for file F_i's transfer, 0-based).
struct Transition {
  TransitionKind kind = TransitionKind::kCompute;
  std::int64_t row = 0;
  std::size_t column = 0;
  std::size_t stage = 0;  ///< stage index (compute) or file index (comm)
  std::size_t proc = 0;   ///< computing processor, or sender
  std::size_t proc2 = 0;  ///< receiver (comm only)
  double duration = 0.0;  ///< deterministic firing time (mean in the
                          ///< probabilistic setting)
};

/// One place, always with a single producer and single consumer transition.
struct Place {
  std::size_t from = 0;  ///< producing transition id
  std::size_t to = 0;    ///< consuming transition id
  PlaceKind kind = PlaceKind::kFlow;
  int initial_tokens = 0;
};

/// An immutable-after-build timed event graph.
class TimedEventGraph {
 public:
  TimedEventGraph(std::int64_t num_rows, std::size_t num_columns)
      : num_rows_(num_rows), num_columns_(num_columns) {}

  std::size_t add_transition(Transition t);
  std::size_t add_place(Place p);

  /// Finalizes adjacency; must be called once after construction.
  void finalize();

  std::size_t num_transitions() const { return transitions_.size(); }
  std::size_t num_places() const { return places_.size(); }
  // lint:allow(unused-api): tests/support's deterministic reference reads it
  std::int64_t num_rows() const { return num_rows_; }
  // lint:allow(unused-api): tests/support's deterministic reference reads it
  std::size_t num_columns() const { return num_columns_; }

  const Transition& transition(std::size_t id) const {
    SF_REQUIRE(id < transitions_.size(), "transition id out of range");
    return transitions_[id];
  }
  const Place& place(std::size_t id) const {
    SF_REQUIRE(id < places_.size(), "place id out of range");
    return places_[id];
  }
  const std::vector<Transition>& transitions() const { return transitions_; }
  const std::vector<Place>& places() const { return places_; }

  /// Place ids consumed by / produced by a transition.
  const std::vector<std::size_t>& input_places(std::size_t t) const;
  const std::vector<std::size_t>& output_places(std::size_t t) const;

  /// Transition ids of the last column (their firings complete data sets).
  std::vector<std::size_t> last_column_transitions() const;

  /// Every cycle of a live event graph must hold at least one token:
  /// checks that the subgraph of token-free places is acyclic.
  /// Throws InvalidArgument otherwise.
  void check_liveness() const;

  /// Human-readable transition label, e.g. "T2/P5@r3" or "F1:P0->P2@r1".
  std::string transition_label(std::size_t id) const;

  /// Graphviz rendering (transitions as boxes, places as circles).
  void write_dot(std::ostream& os) const;

 private:
  std::int64_t num_rows_;
  std::size_t num_columns_;
  std::vector<Transition> transitions_;
  std::vector<Place> places_;
  std::vector<std::vector<std::size_t>> inputs_;   // by transition
  std::vector<std::vector<std::size_t>> outputs_;  // by transition
  bool finalized_ = false;
};

}  // namespace streamflow
