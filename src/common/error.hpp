// Error handling primitives shared across all streamflow modules.
//
// Library code throws typed exceptions derived from streamflow::Error.
// SF_REQUIRE validates preconditions on public API boundaries; it always
// stays enabled (it guards user input, not internal invariants), and its
// message is built from the input alone: "precondition failed: <msg>", with
// no expression, file or line, so an error response does not move when the
// source does. SF_ASSERT guards internal invariants and reports where the
// bug is: expression, file and line.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace streamflow {

/// Base class of all exceptions thrown by streamflow.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Invalid user input: malformed application, platform, or mapping.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// A computation exceeded a configured resource cap (e.g. the reachable
/// marking count of a CTMC, or the lcm-row count of an unfolded TPN).
class CapacityExceeded : public Error {
 public:
  explicit CapacityExceeded(const std::string& what) : Error(what) {}
};

/// A numerical routine failed to converge or met a singular system.
class NumericalError : public Error {
 public:
  explicit NumericalError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] inline void throw_precondition_failure(const std::string& msg) {
  throw InvalidArgument("precondition failed: " + msg);
}

[[noreturn]] inline void throw_invariant_failure(const char* expr,
                                                 const char* file, int line,
                                                 const std::string& msg) {
  std::ostringstream os;
  os << "invariant failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw InvalidArgument(os.str());
}
}  // namespace detail

}  // namespace streamflow

/// Validate a user-facing precondition; throws InvalidArgument on failure.
#define SF_REQUIRE(cond, msg)                                    \
  do {                                                           \
    if (!(cond)) {                                               \
      ::streamflow::detail::throw_precondition_failure((msg));   \
    }                                                            \
  } while (0)

/// Validate an internal invariant; throws (never compiled out — the cost is
/// negligible next to the analyses these guard).
#define SF_ASSERT(cond, msg)                                          \
  do {                                                                \
    if (!(cond)) {                                                    \
      ::streamflow::detail::throw_invariant_failure(#cond, __FILE__,  \
                                                    __LINE__, (msg)); \
    }                                                                 \
  } while (0)
