// PatternStore — the pattern-solve cache.
//
// It is the one pattern cache: every AnalysisContext reads its pattern
// rates through exactly one store, a shared one attached with
// AnalysisContext::set_pattern_store() or else a store the context owns. A
// store maps PatternSignature to the pattern's saturated rate, looked up
// before a solve and published into after one. Shared among contexts
// (parallel search workers, serve requests), it lets each pattern be solved
// once per store instead of once per context, and snapshots carry it
// across runs.
//
// Sharing never changes results. A pattern's saturated rate is a
// deterministic function of its signature alone (the signature pins u, v,
// and the exact IEEE-754 duration bits; the Young-diagram CTMC solve is
// pure), so a store hit returns the same bits a local solve would have
// produced — the house bit-identity invariant survives arbitrary
// interleavings of readers and writers. publish() asserts exactly that on
// every duplicate publication, and Debug builds additionally re-solve a
// deterministic sample of store hits inside AnalysisContext
// (debug_check_store_hit, the agreement probe).
//
// Concurrency: entries are immutable once published (first writer wins).
// One streamflow::Mutex guards the map and its exact hit/miss/publish
// counters. lookup() and publish() hold it for one hash-map operation, far
// shorter than the pattern solve a hit saves, and no other lock is taken
// under it, so the store never deadlocks.
//
// Persistence: save()/load() serialize the entries as a versioned
// line-oriented text snapshot ("streamflow-pattern-store v1") with every
// double spelled as its 16-digit hex bit pattern (bit-exact round-trips, no
// decimal parsing) and a trailing FNV-1a digest over the sorted entries.
// Snapshots are sorted by (u, v, duration bits), so a store's snapshot is
// byte-stable regardless of hash seeding or insertion order, and digest()
// of a live store equals the digest its snapshot carries. load_file() of a
// nonexistent path is a cold start (returns 0); a corrupted, truncated, or
// version-skewed snapshot throws InvalidArgument with a line diagnostic.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "tpn/columns.hpp"

namespace streamflow {

/// Exact counters of a PatternStore, maintained under its lock — no
/// sampling, no races: hits + misses == lookup calls and publishes +
/// duplicates == publish calls, exactly, under any interleaving.
struct PatternStoreStats {
  std::size_t hits = 0;        ///< lookups answered from the map
  std::size_t misses = 0;      ///< lookups that found no entry
  std::size_t publishes = 0;   ///< first publications (entries inserted)
  std::size_t duplicates = 0;  ///< re-publications of an existing signature
  std::size_t entries = 0;     ///< current entry count
};

class PatternStore {
 public:
  PatternStore() = default;

  PatternStore(const PatternStore&) = delete;
  PatternStore& operator=(const PatternStore&) = delete;

  /// The saturated rate published for `signature`, or nullopt. Counts
  /// exactly one hit or miss.
  std::optional<double> lookup(const PatternSignature& signature);

  /// Publishes a solve. First writer wins; a duplicate publication asserts
  /// bit-equality with the stored rate (solves are deterministic functions
  /// of the signature, so concurrent publishers must agree) and leaves the
  /// entry untouched.
  void publish(const PatternSignature& signature, double rate);

  PatternStoreStats stats() const;

  // ---- Snapshots ----------------------------------------------------------

  /// Writes the versioned snapshot: entries sorted by (u, v, duration
  /// bits), doubles as hex bit patterns, trailing digest line. Byte-stable
  /// for a given entry set (insertion order is invisible).
  void save(std::ostream& os) const;

  /// Merges a snapshot into the store and returns the number of entries it
  /// carried. Throws InvalidArgument (with a line diagnostic) on a missing
  /// or skewed version header, a malformed entry, a truncated file, or a
  /// digest mismatch. An entry that collides with a live one must be
  /// bit-equal (same determinism argument as publish()).
  std::size_t load(std::string_view text);

  /// save() to `path`; throws InvalidArgument when the file cannot be
  /// written.
  void save_file(const std::string& path) const;

  /// load() from `path`. A nonexistent path is a cold start: returns 0 and
  /// changes nothing. An existing-but-invalid file throws.
  std::size_t load_file(const std::string& path);

  /// FNV-1a over the sorted entries — the value save() writes in its
  /// trailing digest line. Equal digests mean bit-identical entry sets.
  std::uint64_t digest() const;

  // ---- Test support -------------------------------------------------------

  /// Applies `fn` to every stored rate in place and returns the entry
  /// count. Fault injection for tests ONLY (the stale-entry shim of the
  /// shared-store fuzz check and the Debug re-solve assertion test): a
  /// transformed entry deliberately violates the solve-determinism
  /// contract that lookup hits rely on.
  std::size_t transform_rates(const std::function<double(double)>& fn);

 private:
  /// Inserts `rate` under `signature` unless an entry exists, counting a
  /// publish or a duplicate; returns the stored rate.
  double insert(const PatternSignature& signature, double rate)
      SF_REQUIRES(mutex_);

  mutable Mutex mutex_;
  // Point-queried by lookup()/publish(); iterated ONLY by the snapshot and
  // fault-injection paths, which sort (or treat order-independently)
  // before anything escapes.
  std::unordered_map<PatternSignature, double, PatternSignature::Hash> map_
      SF_GUARDED_BY(mutex_);
  std::size_t hits_ SF_GUARDED_BY(mutex_) = 0;
  std::size_t misses_ SF_GUARDED_BY(mutex_) = 0;
  std::size_t publishes_ SF_GUARDED_BY(mutex_) = 0;
  std::size_t duplicates_ SF_GUARDED_BY(mutex_) = 0;
};

}  // namespace streamflow
