#include "core/pattern_store.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/text_reader.hpp"

namespace streamflow {

namespace {

/// One snapshot row (and the unit the digest is computed over).
struct StoredEntry {
  PatternSignature signature;
  double rate = 0.0;
};

/// The canonical snapshot order: (u, v, duration bits) lexicographically.
/// Total over distinct signatures, so sorting makes snapshots byte-stable
/// regardless of hash seeding or insertion history.
bool entry_less(const StoredEntry& a, const StoredEntry& b) {
  if (a.signature.u != b.signature.u) return a.signature.u < b.signature.u;
  if (a.signature.v != b.signature.v) return a.signature.v < b.signature.v;
  return a.signature.duration_bits < b.signature.duration_bits;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_mix(std::uint64_t& hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xFFull;
    hash *= kFnvPrime;
  }
}

/// FNV-1a over the entries in canonical order — the snapshot digest.
std::uint64_t entries_digest(const std::vector<StoredEntry>& entries) {
  std::uint64_t hash = kFnvOffset;
  for (const StoredEntry& entry : entries) {
    fnv_mix(hash, entry.signature.u);
    fnv_mix(hash, entry.signature.v);
    fnv_mix(hash, entry.signature.duration_bits.size());
    for (const std::uint64_t bits : entry.signature.duration_bits) {
      fnv_mix(hash, bits);
    }
    fnv_mix(hash, std::bit_cast<std::uint64_t>(entry.rate));
  }
  return hash;
}

/// The entries of `map` in canonical order (the only way entries ever
/// leave the store wholesale, so iteration order can never reach a result
/// or a byte of output).
std::vector<StoredEntry> sorted_entries(
    const std::unordered_map<PatternSignature, double, PatternSignature::Hash>&
        map) {
  std::vector<StoredEntry> entries;
  entries.reserve(map.size());
  // lint:allow(unordered-iter): entries are sorted into canonical (u, v,
  // bits) order below before any byte is emitted or hashed
  for (const auto& [signature, rate] : map) {
    entries.push_back(StoredEntry{signature, rate});
  }
  std::sort(entries.begin(), entries.end(), entry_less);
  return entries;
}

std::string hex16(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

}  // namespace

double PatternStore::insert(const PatternSignature& signature, double rate) {
  const auto [it, inserted] = map_.emplace(signature, rate);
  if (inserted) {
    ++publishes_;
  } else {
    ++duplicates_;
  }
  return it->second;
}

std::optional<double> PatternStore::lookup(const PatternSignature& signature) {
  MutexLock lock(mutex_);
  const auto it = map_.find(signature);
  if (it == map_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second;
}

void PatternStore::publish(const PatternSignature& signature, double rate) {
  MutexLock lock(mutex_);
  const double stored = insert(signature, rate);
  // Solves are deterministic functions of the signature, so every publisher
  // of the same signature must produce the same bits — the invariant that
  // makes first-writer-wins indistinguishable from any other tie-break.
  SF_ASSERT(std::bit_cast<std::uint64_t>(stored) ==
                std::bit_cast<std::uint64_t>(rate),
            "pattern store publish disagreement: two solves of one signature "
            "produced different bits");
}

PatternStoreStats PatternStore::stats() const {
  MutexLock lock(mutex_);
  return PatternStoreStats{hits_, misses_, publishes_, duplicates_,
                           map_.size()};
}

void PatternStore::save(std::ostream& os) const {
  std::vector<StoredEntry> entries;
  {
    MutexLock lock(mutex_);
    entries = sorted_entries(map_);
  }
  os << "streamflow-pattern-store v1\n";
  os << "entries " << entries.size() << "\n";
  for (const StoredEntry& entry : entries) {
    os << "entry " << entry.signature.u << " " << entry.signature.v << " "
       << entry.signature.duration_bits.size();
    for (const std::uint64_t bits : entry.signature.duration_bits) {
      os << " " << hex16(bits);
    }
    os << " rate " << hex16(std::bit_cast<std::uint64_t>(entry.rate)) << "\n";
  }
  os << "digest " << hex16(entries_digest(entries)) << "\n";
}

std::size_t PatternStore::load(std::string_view text) {
  TextReader reader(text, "pattern-store snapshot");
  if (!reader.next_line()) {
    reader.fail("missing header (expected 'streamflow-pattern-store v1')");
  }
  const std::string_view header = reader.line();
  if (header != "streamflow-pattern-store v1") {
    if (header.starts_with("streamflow-pattern-store ")) {
      reader.fail("unsupported snapshot version '" +
                  std::string(header.substr(25)) + "' (this build reads v1)");
    }
    reader.fail("not a pattern-store snapshot (got '" + std::string(header) +
                "')");
  }

  if (!reader.next_line()) {
    reader.fail("truncated: missing 'entries <count>' line");
  }
  std::size_t count = 0;
  if (reader.token() != "entries" || parse_number(reader.token(), count) ||
      !reader.at_line_end()) {
    reader.fail("expected 'entries <count>', got '" +
                std::string(reader.line()) + "'");
  }

  // No reserve(count): the count is untrusted until the rows are read.
  std::vector<StoredEntry> entries;
  for (std::size_t k = 0; k < count; ++k) {
    if (!reader.next_line()) {
      reader.fail("truncated: expected " + std::to_string(count) +
                  " entries, found " + std::to_string(k));
    }
    const std::string_view row = reader.line();
    StoredEntry entry;
    std::size_t bits_count = 0;
    // A u x v pattern has exactly u*v link durations: any other count is a
    // row no PatternSignature can match.
    if (reader.token() != "entry" ||
        parse_number(reader.token(), entry.signature.u) ||
        parse_number(reader.token(), entry.signature.v) ||
        parse_number(reader.token(), bits_count) || entry.signature.u == 0 ||
        entry.signature.v == 0 || bits_count % entry.signature.u != 0 ||
        bits_count / entry.signature.u != entry.signature.v) {
      reader.fail("malformed entry '" + std::string(row) + "'");
    }
    for (std::size_t b = 0; b < bits_count; ++b) {
      std::uint64_t bits = 0;
      if (parse_hex(reader.token(), bits)) {
        reader.fail("malformed duration bits in entry '" + std::string(row) +
                    "'");
      }
      entry.signature.duration_bits.push_back(bits);
    }
    std::uint64_t rate_bits = 0;
    if (reader.token() != "rate" || parse_hex(reader.token(), rate_bits) ||
        !reader.at_line_end()) {
      reader.fail("malformed rate in entry '" + std::string(row) + "'");
    }
    entry.rate = std::bit_cast<double>(rate_bits);
    entries.push_back(std::move(entry));
  }

  if (!reader.next_line()) {
    reader.fail("truncated: missing 'digest <hex>' trailer");
  }
  std::uint64_t claimed = 0;
  if (reader.token() != "digest" || parse_hex(reader.token(), claimed) ||
      !reader.at_line_end()) {
    reader.fail("expected 'digest <hex>', got '" + std::string(reader.line()) +
                "'");
  }
  std::vector<StoredEntry> sorted = entries;
  std::sort(sorted.begin(), sorted.end(), entry_less);
  const std::uint64_t computed = entries_digest(sorted);
  if (computed != claimed) {
    reader.fail("digest mismatch: snapshot claims " + hex16(claimed) +
                ", entries hash to " + hex16(computed) +
                " (corrupted snapshot)");
  }
  if (reader.next_line()) {
    reader.fail("trailing content after digest: '" +
                std::string(reader.line()) + "'");
  }

  MutexLock lock(mutex_);
  for (const StoredEntry& entry : entries) {
    if (std::bit_cast<std::uint64_t>(insert(entry.signature, entry.rate)) !=
        std::bit_cast<std::uint64_t>(entry.rate)) {
      throw InvalidArgument(
          "pattern-store snapshot disagrees with a live entry for pattern "
          "u=" +
          std::to_string(entry.signature.u) +
          " v=" + std::to_string(entry.signature.v) +
          " (stale snapshot or corrupted data)");
    }
  }
  return entries.size();
}

void PatternStore::save_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw InvalidArgument("cannot write pattern-store snapshot '" + path +
                          "'");
  }
  save(out);
  out.flush();
  if (!out) {
    throw InvalidArgument("failed writing pattern-store snapshot '" + path +
                          "'");
  }
}

std::size_t PatternStore::load_file(const std::string& path) {
  if (!std::filesystem::exists(path)) return 0;  // cold start
  return load(read_text_file(path, "pattern-store snapshot"));
}

std::uint64_t PatternStore::digest() const {
  MutexLock lock(mutex_);
  return entries_digest(sorted_entries(map_));
}

std::size_t PatternStore::transform_rates(
    const std::function<double(double)>& fn) {
  MutexLock lock(mutex_);
  // lint:allow(unordered-iter): test-only fault injection; the transform
  // is applied to every entry, so visitation order is immaterial
  for (auto& [signature, rate] : map_) rate = fn(rate);
  return map_.size();
}

}  // namespace streamflow
