// Column decomposition of the Overlap TPN (§4.1, §5.2).
//
// In the Overlap net, every cycle lives inside a single column, so the
// analysis splits into independent column sub-nets. A communication column
// between stages i and i+1 (replications R_i senders, R_{i+1} receivers)
// consists of g = gcd(R_i, R_{i+1}) connected components; each component is
// c = m / lcm(R_i, R_{i+1}) copies of a pattern of size u x v with
// u = R_i / g, v = R_{i+1} / g (and gcd(u, v) = 1).
//
// The folded pattern (one copy with wrap-around round-robin chains) is a
// small event graph of u*v transitions whose reachable markings are the
// Young-diagram borderlines of Theorem 3; the pattern's throughput is the
// communication component's inner throughput.
#pragma once

#include <cstdint>
#include <vector>

#include "model/mapping.hpp"
#include "tpn/graph.hpp"

namespace streamflow {

/// One connected component of the communication column for file
/// F_{file_index} (between stages file_index and file_index + 1).
struct CommPattern {
  std::size_t file_index = 0;  ///< 0-based file / column identity
  std::size_t component = 0;   ///< component id in [0, g)
  std::size_t g = 1;           ///< gcd(R_i, R_{i+1})
  std::size_t u = 1;           ///< senders in the pattern (R_i / g)
  std::size_t v = 1;           ///< receivers in the pattern (R_{i+1} / g)
  std::int64_t copies = 1;     ///< c = m / lcm(R_i, R_{i+1})

  /// Global processor ids: senders[a] is local sender a, receivers[b] local
  /// receiver b. senders[a] = Team_i[component + a*g], and similarly for
  /// receivers.
  std::vector<std::size_t> senders;
  std::vector<std::size_t> receivers;

  /// durations[t] for pattern transition t in [0, u*v): the communication
  /// (senders[t % u] -> receivers[t % v]); by CRT (gcd(u,v)=1) each
  /// (sender, receiver) pair appears exactly once.
  std::vector<double> durations;

  std::size_t size() const { return u * v; }

  /// True if all link times in the pattern are equal (enables Theorem 4's
  /// closed form).
  bool homogeneous(double rel_tol = 1e-12) const;
};

/// Decomposes the communication column for file F_{file_index} into its
/// g connected components.
std::vector<CommPattern> comm_patterns(const Mapping& mapping,
                                       std::size_t file_index);

/// Canonical signature of a pattern's exponential solve. The saturated rate
/// of a pattern is a pure function of (u, v, link durations in occurrence
/// order), so two patterns with equal signatures have bit-identical solves;
/// the signature is the key of AnalysisContext's pattern cache and is valid
/// across different (application, platform) instances. Durations are
/// compared bit-exactly (as IEEE-754 payloads): a sorted-multiset key would
/// share entries across sender/receiver relabelings too, but re-solving a
/// permuted pattern is not guaranteed to reproduce the same low-order bits,
/// and the cache promises results bit-identical to the uncached path.
struct PatternSignature {
  std::size_t u = 1;
  std::size_t v = 1;
  /// Bit patterns of durations[0..uv), verbatim order.
  std::vector<std::uint64_t> duration_bits;

  bool operator==(const PatternSignature&) const = default;

  /// FNV-1a over (u, v, duration bits), for hash-map use.
  std::uint64_t hash() const;

  /// Hash functor over hash(), for unordered containers keyed by signature.
  struct Hash {
    std::size_t operator()(const PatternSignature& signature) const {
      return static_cast<std::size_t>(signature.hash());
    }
  };
};

PatternSignature pattern_signature(const CommPattern& pattern);

/// Builds the folded pattern event graph: u*v transitions t = 0..uv-1
/// (occurrence order), a cyclic sender chain over {t : t % u == a} for each
/// a, and a cyclic receiver chain over {t : t % v == b} for each b.
TimedEventGraph build_pattern_teg(const CommPattern& pattern);

}  // namespace streamflow
