// The streamflow_lint rule engine: repo-specific determinism and hygiene
// rules, applied line-by-line to C++ sources. Header-only so the lint
// binary (tools/streamflow_lint.cpp) and its mutation tests
// (tests/test_lint.cpp) share one implementation.
//
// Policy depends on the REPO-RELATIVE path a file is linted under (bench/
// may time itself; src/ must not use float; the annotated-mutex wrapper is
// the one file allowed to name the raw primitive), so the entry point takes
// (path, content) — callers pass forward-slash paths relative to the repo
// root.
//
// Suppression syntax (every rule must be suppressible, and every
// suppression must carry a reason):
//   code;  // lint:allow(<rule>): <reason>      suppress on this line
//   // lint:allow(<rule>): <reason>             suppress on the NEXT line
//   // lint:allow-file(<rule>): <reason>        suppress in the whole file
// A malformed suppression (unknown rule, missing ": reason") is itself a
// violation (`allow-syntax`) — a typo must not silently re-arm nothing.
//
// NOTE on self-reference: token rules run on a comment- AND string-stripped
// view of each line, so the pattern literals below never match their own
// source text when the lint scans this file.
#pragma once

#include <cctype>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace streamflow::lint {

struct Violation {
  std::string path;
  std::size_t line = 0;  ///< 1-based
  std::string rule;
  std::string message;
};

struct RuleInfo {
  std::string id;
  std::string summary;
};

/// Every rule the engine knows, in reporting order. `--list-rules` prints
/// exactly this table; tests/test_lint.cpp proves each one can fire.
inline const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> kRules = {
      {"wall-clock",
       "wall-clock/monotonic time sources (std::chrono clocks, time(), "
       "clock_gettime...) are banned outside bench/ timing code"},
      {"ambient-entropy",
       "ambient entropy (std::random_device, rand(), /dev/urandom...) is "
       "banned everywhere: results are pure functions of (inputs, seed)"},
      {"float-type",
       "float is banned in src/ scoring/analysis code — all numerics are "
       "double (bit-exact cache keys and pinned results depend on it)"},
      {"unordered-iter",
       "iterating a std::unordered_{map,set} needs a justification: "
       "iteration order is unspecified and must never reach results"},
      {"header-pragma-once", "every header must contain #pragma once"},
      {"using-namespace-header", "using namespace is banned in headers"},
      {"raw-mutex",
       "raw std::mutex/condition_variable/lock types are banned — use the "
       "annotated streamflow::Mutex/MutexLock/CondVar (common/mutex.hpp)"},
      {"number-parse",
       "src/ and tools/ read text only through common/text_reader.hpp: no "
       "C-library or string-stream number parsing outside it (tests/ and "
       "bench/ keep the references)"},
      {"allow-syntax",
       "lint:allow comments must name a known rule and carry ': <reason>'"},
  };
  return kRules;
}

inline bool is_known_rule(const std::string& id) {
  for (const RuleInfo& rule : rules())
    if (rule.id == id) return true;
  return false;
}

namespace detail {

inline bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

inline bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

inline std::vector<std::string> split_lines(const std::string& content) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : content) {
    if (c == '\n') {
      lines.push_back(std::move(current));
      current.clear();
    } else if (c != '\r') {
      current.push_back(c);
    }
  }
  if (!current.empty()) lines.push_back(std::move(current));
  return lines;
}

/// Splits each line into its CODE part (comments and string/char literal
/// bodies removed — literal quotes kept as empty "" markers) and its
/// COMMENT part (// and /* */ text, block state tracked across lines).
/// Token rules run on the code part only, so banned tokens inside comments
/// or pattern strings never fire; suppression comments are parsed from the
/// comment part only, so prose and string literals never look like
/// suppressions.
class LineSplitter {
 public:
  struct Parts {
    std::string code;
    std::string comment;
  };

  Parts split(const std::string& line) {
    Parts parts;
    parts.code.reserve(line.size());
    for (std::size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      const char next = i + 1 < line.size() ? line[i + 1] : '\0';
      if (in_block_comment_) {
        if (c == '*' && next == '/') {
          in_block_comment_ = false;
          ++i;
        } else {
          parts.comment.push_back(c);
        }
        continue;
      }
      if (in_string_ != '\0') {
        if (c == '\\') {
          ++i;  // skip the escaped character
        } else if (c == in_string_) {
          in_string_ = '\0';
          parts.code.push_back(c);
        }
        continue;
      }
      if (c == '/' && next == '/') {  // rest of line is a comment
        parts.comment.append(line, i + 2, std::string::npos);
        break;
      }
      if (c == '/' && next == '*') {
        in_block_comment_ = true;
        ++i;
        continue;
      }
      if (c == '"' || c == '\'') {
        // R"( raw strings are handled as plain strings: good enough for a
        // line lint — the repo's raw literals never span code tokens.
        in_string_ = c;
        parts.code.push_back(c);
        continue;
      }
      parts.code.push_back(c);
    }
    // An unterminated ordinary string cannot span lines in C++; reset so a
    // stray quote inside a comment does not poison the rest of the file.
    in_string_ = '\0';
    return parts;
  }

 private:
  bool in_block_comment_ = false;
  char in_string_ = '\0';
};

struct AllowTable {
  std::set<std::string> file_rules;
  std::map<std::size_t, std::set<std::string>> line_rules;  // 1-based line

  bool allowed(const std::string& rule, std::size_t line) const {
    if (file_rules.count(rule) != 0) return true;
    const auto it = line_rules.find(line);
    return it != line_rules.end() && it->second.count(rule) != 0;
  }
};

/// Parses every lint:allow / lint:allow-file suppression from the COMMENT
/// text of each line. Malformed ones are reported as `allow-syntax`
/// violations immediately (they never suppress). Two deliberate carve-outs
/// keep documentation honest without arming it: prose that says
/// "lint:allow" with no '(' is ignored, and the placeholder form
/// "lint:allow(<...": used when documenting the syntax itself — a real rule
/// id can never start with '<' — is ignored too.
inline AllowTable collect_allows(
    const std::string& path, const std::vector<LineSplitter::Parts>& parts,
    std::vector<Violation>& out) {
  static const std::regex kAllow(
      R"(lint:allow(-file)?\(([A-Za-z0-9_-]*)\)(:\s*(\S.*))?)");
  AllowTable table;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const std::string& comment = parts[i].comment;
    const std::size_t marker = comment.find("lint:allow");
    if (marker == std::string::npos) continue;
    // Documentation carve-outs (see above).
    std::size_t paren = marker + std::string("lint:allow").size();
    if (comment.compare(paren, 6, "-file(") == 0) paren += 5;
    if (paren >= comment.size() || comment[paren] != '(') continue;
    if (paren + 1 < comment.size() && comment[paren + 1] == '<') continue;

    const std::size_t line_no = i + 1;
    std::smatch match;
    if (!std::regex_search(comment, match, kAllow)) {
      out.push_back({path, line_no, "allow-syntax",
                     "unparsable lint:allow comment — expected "
                     "lint:allow(<rule>): <reason>"});
      continue;
    }
    const bool file_level = match[1].matched;
    const std::string rule = match[2].str();
    const bool has_reason = match[3].matched;
    if (!is_known_rule(rule)) {
      out.push_back({path, line_no, "allow-syntax",
                     "lint:allow names unknown rule '" + rule +
                         "' (see streamflow_lint --list-rules)"});
      continue;
    }
    if (!has_reason) {
      out.push_back({path, line_no, "allow-syntax",
                     "lint:allow(" + rule +
                         ") is missing its ': <reason>' justification"});
      continue;
    }
    if (file_level) {
      table.file_rules.insert(rule);
    } else {
      table.line_rules[line_no].insert(rule);
      // A comment-only line suppresses the line it annotates (the next
      // one); a trailing comment suppresses its own line only.
      if (parts[i].code.find_first_not_of(" \t") == std::string::npos) {
        table.line_rules[line_no + 1].insert(rule);
      }
    }
  }
  return table;
}

/// Names declared in this file with an unordered container type. A
/// deliberate single-line heuristic: multi-line declarations and type
/// aliases are invisible to it, which is why the direct-iteration patterns
/// below also match inline `.begin()` chains on unordered expressions.
inline std::set<std::string> unordered_names(
    const std::vector<std::string>& code_lines) {
  static const std::regex kDecl(
      R"((?:std::)?unordered_(map|set)\s*<[^;]*>\s+([A-Za-z_]\w*)\s*[;={(])");
  std::set<std::string> names;
  for (const std::string& line : code_lines) {
    auto begin = std::sregex_iterator(line.begin(), line.end(), kDecl);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      names.insert((*it)[2].str());
    }
  }
  return names;
}

}  // namespace detail

/// Lints one file's content under its repo-relative path. Pure function:
/// same (path, content) -> same violations, in line order.
inline std::vector<Violation> lint_content(const std::string& path,
                                           const std::string& content) {
  using detail::ends_with;
  using detail::starts_with;

  std::vector<Violation> out;
  const std::vector<std::string> lines = detail::split_lines(content);

  // Code/comment split of every line: token rules see code only,
  // suppression parsing sees comments only.
  std::vector<detail::LineSplitter::Parts> parts(lines.size());
  {
    detail::LineSplitter splitter;
    for (std::size_t i = 0; i < lines.size(); ++i)
      parts[i] = splitter.split(lines[i]);
  }
  const detail::AllowTable allows = detail::collect_allows(path, parts, out);
  std::vector<std::string> code(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i)
    code[i] = std::move(parts[i].code);

  const bool is_header = ends_with(path, ".hpp");
  const bool in_bench = starts_with(path, "bench/");
  const bool in_src = starts_with(path, "src/");
  const bool is_mutex_wrapper = path == "src/common/mutex.hpp";
  const bool reads_numbers_through_reader =
      (in_src || starts_with(path, "tools/")) &&
      !starts_with(path, "src/common/text_reader.");

  auto report = [&](std::size_t line_no, const std::string& rule,
                    const std::string& message) {
    if (!allows.allowed(rule, line_no)) out.push_back({path, line_no, rule, message});
  };

  // --- file-level header rules ---------------------------------------
  if (is_header) {
    bool has_pragma_once = false;
    for (const std::string& line : code) {
      if (line.find("#pragma once") != std::string::npos) {
        has_pragma_once = true;
        break;
      }
    }
    if (!has_pragma_once) {
      report(1, "header-pragma-once", "header is missing #pragma once");
    }
  }

  // --- per-line token rules ------------------------------------------
  // These run on the stripped `code` view: a banned token inside a comment
  // or string literal (e.g. the patterns below, or prose mentioning
  // std::mutex) never fires.
  static const std::regex kWallClock(
      R"re(std::chrono::(system_clock|steady_clock|high_resolution_clock)\b)re"
      R"re(|(^|[^\w:.>])(time|clock)\s*\(|std::(time|clock)\s*\()re"
      R"re(|\b(gettimeofday|clock_gettime|ftime|localtime|gmtime)\s*\()re");
  static const std::regex kEntropy(
      R"re(std::random_device|(^|[^\w:.])s?rand\s*\(|std::s?rand\s*\()re"
      R"re(|/dev/u?random)re"
      R"re(|\bgetentropy\b|\barc4random)re");
  static const std::regex kFloat(R"re(\bfloat\b)re");
  static const std::regex kRawMutex(
      R"re(std::(mutex|recursive_mutex|timed_mutex|shared_mutex)re"
      R"re(|condition_variable(_any)?)re"
      R"re(|lock_guard|unique_lock|scoped_lock|shared_lock)\b)re");
  static const std::regex kUsingNamespace(R"re(^\s*using\s+namespace\b)re");
  static const std::regex kNumberParse(
      R"re(\b(strto(d|f|ld|l|ll|ul|ull|imax|umax)|ato(i|l|ll|f)|sscanf)\s*\()re"
      R"re(|\bstd::sto(i|l|ll|ul|ull|f|d|ld)\s*\(|\bstd::i?stringstream\b)re");

  // Precompiled iteration patterns for every unordered name in this file:
  // range-for, and direct begin()/cbegin()/rbegin() iterator loops.
  const std::set<std::string> unordered = detail::unordered_names(code);
  std::vector<std::pair<std::string, std::regex>> iter_patterns;
  iter_patterns.reserve(unordered.size());
  for (const std::string& name : unordered) {
    iter_patterns.emplace_back(
        name, std::regex(R"re(for\s*\([^;)]*:\s*\*?)re" + name + R"re(\b)re" +
                         R"re(|\b)re" + name +
                         R"re(\s*(->|\.)\s*c?r?begin\s*\()re"));
  }

  for (std::size_t i = 0; i < code.size(); ++i) {
    const std::string& line = code[i];
    const std::size_t line_no = i + 1;
    if (line.empty()) continue;

    if (!in_bench && std::regex_search(line, kWallClock)) {
      report(line_no, "wall-clock",
             "wall-clock/monotonic time source — results must not depend on "
             "when they run (bench/ timing code is exempt)");
    }
    if (std::regex_search(line, kEntropy)) {
      report(line_no, "ambient-entropy",
             "ambient entropy source — every result is a pure function of "
             "(inputs, seed); derive randomness from Prng substreams");
    }
    if (in_src && std::regex_search(line, kFloat)) {
      report(line_no, "float-type",
             "float in analysis code — the repo's numerics, cache keys, and "
             "pinned results are double end to end");
    }
    if (!is_mutex_wrapper && std::regex_search(line, kRawMutex)) {
      report(line_no, "raw-mutex",
             "raw standard locking primitive — use streamflow::Mutex / "
             "MutexLock / CondVar (common/mutex.hpp) so the locking contract "
             "is statically checked");
    }
    if (reads_numbers_through_reader && std::regex_search(line, kNumberParse)) {
      report(line_no, "number-parse",
             "number or stream parsing outside common/text_reader.hpp — read "
             "text with TextReader and numbers with parse_number/parse_hex, "
             "so every format shares one grammar and one diagnostic");
    }
    if (is_header && std::regex_search(line, kUsingNamespace)) {
      report(line_no, "using-namespace-header",
             "using namespace in a header leaks into every includer");
    }

    for (const auto& [name, pattern] : iter_patterns) {
      if (std::regex_search(line, pattern)) {
        report(line_no, "unordered-iter",
               "iteration over unordered container '" + name +
                   "' — order is unspecified and must never reach results; "
                   "justify with lint:allow(unordered-iter): <why order "
                   "cannot leak>");
      }
    }
  }
  return out;
}

}  // namespace streamflow::lint
