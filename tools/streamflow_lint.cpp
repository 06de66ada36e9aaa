// streamflow_lint — the repo-specific determinism & hygiene lint.
//
// Scans every .cpp/.hpp under src/, tools/, tests/, and bench/ (relative to
// --root) and applies the per-line rules in tools/lint_rules.hpp: banned
// wall-clock and ambient-entropy calls, float in analysis code, unjustified
// unordered-container iteration, header hygiene, and raw std::mutex outside
// the annotated wrapper. A tree scan also applies the two cross-file
// rules: every function, public member and constructor a src/ header
// declares needs a use in src/, tools/, bench/, bench_e2e/ or examples/
// (`unused-api`), and every field of a src/ `*Options` struct needs an
// assignment there (`unset-option`). Runs as the `lint` CTest in every CI
// job.
//
//   streamflow_lint --root <repo>      lint the tree (exit 1 on violations)
//   streamflow_lint --list-rules       print every rule id + summary
//   streamflow_lint file.cpp ...       lint explicit files (paths are taken
//                                      relative to --root for rule policy)
//
// Suppressions: // lint:allow(<rule>): <reason>  — see lint_rules.hpp.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "lint_rules.hpp"

namespace fs = std::filesystem;

namespace {

int usage(std::FILE* stream) {
  std::fputs(
      "usage: streamflow_lint [--root DIR] [--list-rules] [FILE...]\n"
      "\n"
      "Determinism & hygiene lint for the streamflow tree.\n"
      "\n"
      "  --root DIR     repository root to scan (default: current directory);\n"
      "                 scans src/, tools/, tests/, bench/ for .cpp/.hpp,\n"
      "                 skipping tests/fixtures/ (planted lint violations),\n"
      "                 and checks every function, public member and\n"
      "                 constructor a src/ header declares for a use in\n"
      "                 src/, tools/, bench/, bench_e2e/ or examples/\n"
      "                 (unused-api), and every *Options field for an\n"
      "                 assignment there (unset-option)\n"
      "  --list-rules   print every rule id with its summary and exit\n"
      "  --help         this text\n"
      "  FILE...        lint only these files (policy uses their path\n"
      "                 relative to --root)\n"
      "\n"
      "Exit status: 0 clean, 1 violations found, 2 usage/IO error.\n"
      "Suppress a finding with '// lint:allow(<rule>): <reason>'.\n",
      stream);
  return stream == stdout ? 0 : 2;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Forward-slash path of `path` relative to `root` (policy key for the
/// rule engine); falls back to the path as given.
std::string policy_path(const fs::path& path, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(path, root, ec);
  std::string out = (ec || rel.empty()) ? path.generic_string()
                                        : rel.generic_string();
  return out;
}

bool lintable_extension(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".hpp";
}

/// The .cpp/.hpp files under `dirs` of `root`, sorted for deterministic
/// output, fixtures skipped (they exist to violate the rules on purpose).
std::vector<fs::path> collect_tree(const fs::path& root,
                                   std::initializer_list<const char*> dirs) {
  std::vector<fs::path> files;
  for (const char* dir : dirs) {
    const fs::path base = root / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file() || !lintable_extension(entry.path()))
        continue;
      const std::string rel = policy_path(entry.path(), root);
      if (rel.rfind("tests/fixtures/", 0) == 0) continue;
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  bool list_rules = false;
  std::vector<fs::path> explicit_files;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") return usage(stdout);
    if (a == "--list-rules") {
      list_rules = true;
    } else if (a == "--root") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --root requires a directory argument\n");
        return 2;
      }
      root = argv[++i];
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "error: unknown flag '%s'\n", a.c_str());
      usage(stderr);
      return 2;
    } else {
      explicit_files.emplace_back(a);
    }
  }

  if (list_rules) {
    for (const auto& rule : streamflow::lint::rules()) {
      std::printf("%-24s %s\n", rule.id.c_str(), rule.summary.c_str());
    }
    return 0;
  }

  if (!fs::exists(root)) {
    std::fprintf(stderr, "error: --root '%s' does not exist\n",
                 root.string().c_str());
    return 2;
  }

  const bool tree_mode = explicit_files.empty();
  std::vector<fs::path> files =
      tree_mode ? collect_tree(root, {"src", "tools", "tests", "bench"})
                : explicit_files;
  if (files.empty()) {
    std::fprintf(stderr, "error: nothing to lint under '%s'\n",
                 root.string().c_str());
    return 2;
  }

  std::size_t violation_count = 0;
  const auto print = [&](const std::vector<streamflow::lint::Violation>& vs) {
    for (const auto& v : vs) {
      std::printf("%s:%zu: %s: %s\n", v.path.c_str(), v.line, v.rule.c_str(),
                  v.message.c_str());
      ++violation_count;
    }
  };
  try {
    for (const fs::path& file : files)
      print(streamflow::lint::lint_content(policy_path(file, root),
                                           read_file(file)));
    if (tree_mode) {
      std::vector<streamflow::lint::SourceFile> callers;
      for (const fs::path& file : collect_tree(
               root, {"src", "tools", "bench", "bench_e2e", "examples"}))
        callers.push_back({policy_path(file, root), read_file(file)});
      print(streamflow::lint::lint_unused_api(callers));
      print(streamflow::lint::lint_unset_option(callers));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  if (violation_count != 0) {
    std::printf("streamflow_lint: %zu violation(s) in %zu file(s) scanned\n",
                violation_count, files.size());
    return 1;
  }
  std::printf("streamflow_lint: OK (%zu files scanned, %zu rules)\n",
              files.size(), streamflow::lint::rules().size());
  return 0;
}
