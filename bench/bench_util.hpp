// Shared plumbing for the benchmark harnesses: every bench binary reproduces
// one table or figure of RR-7510 §7 and prints (a) the paper's series as an
// aligned table, (b) optional CSV via --csv, and (c) a shape-check verdict
// line ("SHAPE-OK ..." / "SHAPE-INFO ...") summarizing whether the
// qualitative finding of the paper holds on our reproduction.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/table.hpp"

namespace streamflow::bench {

/// Parses the standard bench flags. --csv prints the raw series as CSV after
/// the table; --quick shrinks the workload (used by CI / smoke runs);
/// --json PATH writes a machine-readable summary (rates, cache statistics,
/// shape verdicts) that CI archives as an artifact.
struct BenchArgs {
  bool csv = false;
  bool quick = false;
  std::string json_path;

  static BenchArgs parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--csv") {
        args.csv = true;
      } else if (a == "--quick") {
        args.quick = true;
      } else if (a == "--json" && i + 1 < argc && argv[i + 1][0] != '-') {
        args.json_path = argv[++i];
      } else {
        // Fail closed: a typo such as --quik would silently run the full
        // workload, and a --json without its path would leave CI waiting
        // on an artifact that was never going to appear.
        std::cerr << "error: unknown or incomplete argument '" << a
                  << "' (expected --csv, --quick or --json PATH)\n";
        std::exit(2);
      }
    }
    return args;
  }
};

/// Writes the summary when --json was requested (no-op otherwise).
inline void write_json(const BenchArgs& args, const JsonWriter& summary) {
  if (args.json_path.empty()) return;
  std::ofstream out(args.json_path);
  if (!out) {
    throw InvalidArgument("cannot open --json output file '" +
                          args.json_path + "'");
  }
  out << summary.str() << "\n";
}

inline void emit(const Table& table, const std::string& title,
                 const BenchArgs& args) {
  table.print(std::cout, title);
  if (args.csv) {
    std::cout << "\n";
    table.print_csv(std::cout);
  }
}

/// Shape-check verdict helpers: benches assert the qualitative claims of the
/// paper (who wins, rough factors, crossovers) rather than absolute numbers.
inline void shape_ok(const std::string& message) {
  std::cout << "SHAPE-OK   " << message << "\n";
}
inline void shape_fail(const std::string& message) {
  std::cout << "SHAPE-FAIL " << message << "\n";
}
inline void shape_check(bool ok, const std::string& message) {
  (ok ? shape_ok : shape_fail)(message);
}
inline void shape_info(const std::string& message) {
  std::cout << "SHAPE-INFO " << message << "\n";
}

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace streamflow::bench
