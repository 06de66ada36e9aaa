#include "markov/reachability.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace streamflow {

namespace {

/// One arc of a transition: its place and, for an output arc, whether a full
/// place clips (flow) or throws (resource).
struct Arc {
  std::size_t place = 0;
  bool flow = false;
};

/// The net's arcs flattened once into one CSR array, so the exploration loop
/// reads plain memory instead of the checked graph accessors. Transition t
/// owns three consecutive lists: every input place (the enabling test), the
/// non-self-loop input places (consumed) and the non-self-loop output
/// places (produced, and the capacity test). Self-loop places net out to
/// zero and never block. Lists keep the graph's order, so the first full
/// output place, in list order, still decides clip versus throw.
struct FlatArcs {
  std::vector<std::size_t> begin;  ///< list k of transition t: [3t+k, 3t+k+1)
  std::vector<Arc> arcs;

  explicit FlatArcs(const TimedEventGraph& graph) {
    const std::size_t num_transitions = graph.num_transitions();
    begin.reserve(3 * num_transitions + 1);
    // Every place is the input of one transition and the output of one.
    arcs.reserve(3 * graph.num_places());
    for (std::size_t t = 0; t < num_transitions; ++t) {
      const std::vector<std::size_t>& inputs = graph.input_places(t);
      begin.push_back(arcs.size());
      for (const std::size_t pid : inputs) arcs.push_back(Arc{pid});
      begin.push_back(arcs.size());
      for (const std::size_t pid : inputs) {
        const Place& p = graph.place(pid);
        if (p.from != p.to) arcs.push_back(Arc{pid});
      }
      begin.push_back(arcs.size());
      for (const std::size_t pid : graph.output_places(t)) {
        const Place& p = graph.place(pid);
        if (p.from != p.to)
          arcs.push_back(Arc{pid, p.kind == PlaceKind::kFlow});
      }
    }
    begin.push_back(arcs.size());
  }
};

/// Hash of one marking, eight bytes at a time. Only ever used for point
/// queries into the index, so its values can never reach a result.
std::uint64_t hash_marking(const std::uint8_t* marking, std::size_t bytes) {
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ULL;
  std::uint64_t h = bytes * kMul;
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, marking + i, 8);
    h = (h ^ word) * kMul;
    h ^= h >> 32;
  }
  if (i < bytes) {
    std::uint64_t word = 0;
    std::memcpy(&word, marking + i, bytes - i);
    h = (h ^ word) * kMul;
  }
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 32;
  return h;
}

/// Markings in one contiguous arena, in discovery order, deduplicated by an
/// open-addressing index of state ids. State s occupies bytes
/// [s * stride, (s + 1) * stride); the slot just past the last state is the
/// scratch space where a successor is built before it is looked up. A net
/// without places still gets one byte per state (always zero), so the arena
/// is never empty.
class MarkingArena {
 public:
  explicit MarkingArena(std::size_t num_places)
      : stride_(std::max<std::size_t>(num_places, 1)),
        bytes_(stride_ * kInitialStates),
        slots_(2 * kInitialStates) {}

  std::size_t size() const { return size_; }
  const std::uint8_t* state(std::size_t s) const {
    return bytes_.data() + s * stride_;
  }
  /// The scratch slot, valid until the next insert.
  std::uint8_t* scratch() { return bytes_.data() + size_ * stride_; }

  /// Looks the scratch marking up. Returns {id, false} for a known marking,
  /// or {size(), true} for a new one, which the caller then admits with
  /// `insert` (or abandons by throwing).
  std::pair<std::size_t, bool> find_scratch() {
    const std::uint8_t* marking = scratch();
    pending_hash_ = hash_marking(marking, stride_);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = pending_hash_ & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.state == kEmpty) {
        pending_slot_ = i;
        return {size_, true};
      }
      if (slot.hash == pending_hash_ &&
          std::memcmp(state(slot.state), marking, stride_) == 0) {
        return {slot.state, false};
      }
    }
  }

  /// Admits the scratch marking last passed to `find_scratch` as state
  /// size(), and opens a fresh scratch slot.
  void insert() {
    slots_[pending_slot_] = Slot{pending_hash_, size_};
    ++size_;
    if (2 * size_ > slots_.size()) rehash();
    if ((size_ + 1) * stride_ > bytes_.size()) bytes_.resize(2 * bytes_.size());
  }

 private:
  static constexpr std::size_t kInitialStates = 8;
  static constexpr std::size_t kEmpty = ~std::size_t{0};

  /// A state id with its cached hash.
  struct Slot {
    std::uint64_t hash = 0;
    std::size_t state = kEmpty;
  };

  void rehash() {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.state == kEmpty) continue;
      std::size_t i = slot.hash & mask;
      while (slots_[i].state != kEmpty) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::size_t stride_;
  std::size_t size_ = 0;
  std::vector<std::uint8_t> bytes_;
  std::vector<Slot> slots_;  ///< power of two, load <= 1/2
  std::uint64_t pending_hash_ = 0;
  std::size_t pending_slot_ = 0;
};

}  // namespace

TpnMarkovChain explore_markings(const TimedEventGraph& graph,
                                const std::vector<double>& rates,
                                const ReachabilityOptions& options) {
  SF_REQUIRE(rates.size() == graph.num_transitions(),
             "need one rate per transition");
  for (double r : rates)
    SF_REQUIRE(r > 0.0, "all firing rates must be positive");
  SF_REQUIRE(options.place_capacity >= 1, "place capacity must be >= 1");
  SF_REQUIRE(options.place_capacity <= 255,
             "place capacity must fit in a byte");

  const FlatArcs flat(graph);
  const std::size_t num_places = graph.num_places();
  const std::size_t num_transitions = graph.num_transitions();
  const auto capacity = static_cast<std::uint8_t>(options.place_capacity);

  // State ids are arena order, which is BFS discovery order: the frontier is
  // the cursor below, so numbering is a pure function of the net. The index
  // is only point-queried; hash order never reaches the chain.
  MarkingArena arena(num_places);
  {
    std::uint8_t* initial = arena.scratch();
    for (std::size_t pid = 0; pid < num_places; ++pid) {
      initial[pid] = static_cast<std::uint8_t>(graph.place(pid).initial_tokens);
    }
    arena.find_scratch();
    arena.insert();
  }

  // Raw views of the arcs: the marking writes below go through a byte
  // pointer, which may alias anything, so vector members would be reloaded.
  const std::size_t* begin = flat.begin.data();
  const Arc* arc = flat.arcs.data();

  TpnMarkovChain chain;
  for (std::size_t current_id = 0; current_id < arena.size(); ++current_id) {
    // Before a state that might not fit its up to num_transitions edges,
    // grow to the observed edges-per-state ratio times the states found so
    // far, at least doubling. Measured faster than push_back's own growth;
    // a tiny chain still starts small.
    if (current_id > 0 &&
        chain.edges.capacity() - chain.edges.size() < num_transitions) {
      const std::size_t estimate =
          chain.edges.size() / current_id * arena.size() + num_transitions;
      chain.edges.reserve(std::max(estimate, 2 * chain.edges.size()));
    }
    for (std::size_t t = 0; t < num_transitions; ++t) {
      // Fetched per transition: an insert may move the arena.
      const std::uint8_t* current = arena.state(current_id);
      // Enabled: every input place holds a token...
      bool enabled = true;
      for (std::size_t i = begin[3 * t]; i < begin[3 * t + 1]; ++i) {
        if (current[arc[i].place] == 0) {
          enabled = false;
          break;
        }
      }
      if (!enabled) continue;
      // ...and no output flow place would exceed its capacity.
      for (std::size_t i = begin[3 * t + 2]; i < begin[3 * t + 3]; ++i) {
        if (current[arc[i].place] >= capacity) {
          if (arc[i].flow) {
            enabled = false;
            chain.capacity_clipped = true;
            break;
          }
          throw CapacityExceeded(
              "resource place exceeded capacity: the event graph violates "
              "the expected 1-safety of serialization chains");
        }
      }
      if (!enabled) continue;

      std::uint8_t* next = arena.scratch();
      std::memcpy(next, current, num_places);
      for (std::size_t i = begin[3 * t + 1]; i < begin[3 * t + 2]; ++i) {
        --next[arc[i].place];
      }
      for (std::size_t i = begin[3 * t + 2]; i < begin[3 * t + 3]; ++i) {
        ++next[arc[i].place];
      }

      const auto [to, inserted] = arena.find_scratch();
      if (inserted) {
        if (to >= options.max_states) {
          throw CapacityExceeded(
              "marking exploration exceeded max_states=" +
              std::to_string(options.max_states) +
              "; use the column decomposition or raise the cap");
        }
        arena.insert();
      }
      chain.edges.push_back(CtmcEdge{current_id, to, t});
    }
  }
  chain.num_states = arena.size();
  return chain;
}

}  // namespace streamflow
