// Reference number reads that common/text_reader.hpp is checked against:
// the C-library and stream paths the parsers used before it (strtod for
// distribution specs, `istream >>` for instance and scenario files,
// strtoull for pattern-store snapshots). Each returns nullopt unless the
// reference consumes the whole token.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace streamflow::reference {

std::optional<double> strtod_double(const std::string& token);
std::optional<double> stream_double(const std::string& token);
std::optional<std::uint64_t> stream_u64(const std::string& token);
std::optional<std::uint64_t> strtoull_hex(const std::string& token);

}  // namespace streamflow::reference
