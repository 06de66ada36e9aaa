// Plain-text serialization of instances (application + platform + mapping),
// so experiments are reproducible and instances can be exchanged / archived.
//
// Format (line oriented; the common/text_reader.hpp grammar: '#' starts a
// comment, blank lines are skipped, tokens are whitespace-separated):
//   streamflow-instance v1
//   stages <N>
//   works  w_1 .. w_N
//   files  d_1 .. d_{N-1}
//   processors <M>
//   speeds s_1 .. s_M
//   link <p> <q> <bandwidth>          (one per defined link)
//   team <stage> <p_1> .. <p_k>       (one per stage, round-robin order)
//
// Numbers: counts, processor and stage indices are unsigned decimal
// integers; works, file sizes, speeds and bandwidths are decimal doubles
// (`1`, `-0.5`, `.5`, `2.`, `1e-3`). The whole token must be the number:
// a leading '+', a '-' on an index, hex (`0x10`, `0x1p3`), `inf`/`nan`, an
// integer above 2^64-1 and a double that overflows (`1e999`) or underflows
// to zero (`1e-400`) are rejected with the line and column. A line with a
// token left over is rejected too. save_instance writes 17 significant
// digits, so every double round-trips bit-exactly.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "model/mapping.hpp"

namespace streamflow {

/// Writes a complete instance.
void save_instance(std::ostream& os, const Mapping& mapping);

/// save_instance into a string.
std::string instance_to_string(const Mapping& mapping);

/// Parses an instance; throws InvalidArgument with a line and column
/// diagnostic on any malformed input.
Mapping instance_from_string(std::string_view text);

}  // namespace streamflow
