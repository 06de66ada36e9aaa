// streamflow serve — the long-running evaluation service.
//
// The loop reads line-delimited JSON requests (serve/protocol.hpp) from an
// istream, batches whatever input has already arrived (up to
// ServeOptions::max_batch lines per batch), evaluates the batch through
// ThreadPool::for_each on one pool kept for the whole session (the loop
// thread is one of its workers) — one AnalysisContext per request, every
// context attached to the shared PatternStore — and writes one response
// line per request, in request order, before reading more input. Socket
// mode (run_serve_socket) adapts an AF_UNIX connection onto the same loop
// through FdStreamBuf; pipe mode (run_serve_loop on stdin/stdout) is what
// CI and the test battery drive.
//
// Determinism contract (tests/test_serve.cpp): a response is a pure
// function of its request line alone. Not of store warmth (a store hit
// returns the bits a local solve would have produced), not of batching, not
// of request interleaving, and not of the worker thread count — so the same
// payload+seed yields byte-identical responses on the 1st and the 10,000th
// request, under any --threads, warm or cold. Debug builds assert this
// directly: the loop memoizes response bytes per distinct request line and
// re-checks every repeat (point queries only; the map is never iterated).
// The one deliberate exception is op "stats", which reports live store
// counters and is excluded from the contract.
//
// Shutdown drains: a {"op":"shutdown"} request is answered, every request
// of its batch (already read) is answered, the output is flushed, and only
// then does the loop stop reading.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace streamflow {

class PatternStore;

struct ServeOptions {
  /// Worker threads for batch evaluation, the loop thread included; 0
  /// means std::thread::hardware_concurrency(). Response bytes never depend
  /// on this value.
  std::size_t threads = 0;
  /// Max requests evaluated per batch (>= 1). Responses never depend on
  /// batch boundaries either; this only bounds latency under pipelining.
  std::size_t max_batch = 16;
  /// Shared pattern store attached to every per-request context (not
  /// owned; may be null for store-less operation, e.g. the bench's
  /// cold-baseline server).
  PatternStore* store = nullptr;
};

/// Accounting for one serve run.
struct ServeResult {
  std::size_t requests = 0;   ///< non-empty request lines read
  std::size_t responses = 0;  ///< response lines written (== requests)
  std::size_t errors = 0;     ///< responses with "ok":false
  std::size_t batches = 0;    ///< batches dispatched
  bool shutdown_requested = false;
};

/// One request evaluated outside the loop (exposed for protocol tests).
struct HandledRequest {
  std::string response;   ///< one response line, newline not included
  bool is_shutdown = false;
  bool is_error = false;
};

/// Parses and evaluates one request line. Never throws: every failure —
/// malformed JSON, unknown op, bad field, evaluation error — becomes an
/// "ok":false response with the diagnostic in "error" (and the request id
/// echoed when one was parseable).
HandledRequest handle_request(const std::string& line,
                              const ServeOptions& options);

/// The pipe-mode loop: reads `in` to EOF or shutdown, writes `out`.
ServeResult run_serve_loop(std::istream& in, std::ostream& out,
                           const ServeOptions& options);

/// Socket mode: binds an AF_UNIX stream socket at `path` (replacing any
/// stale socket file), then serves one connection at a time through the
/// pipe-mode loop until a connection requests shutdown. The socket file is
/// unlinked on exit. Throws InvalidArgument when the socket cannot be
/// created or bound.
ServeResult run_serve_socket(const std::string& path,
                             const ServeOptions& options);

}  // namespace streamflow
