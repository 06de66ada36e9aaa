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
//
// One rule is cross-file: `unused-api` (lint_unused_api) needs the whole
// tree, so it runs in tree mode only, over the files the caller hands it.
#pragma once

#include <algorithm>
#include <cctype>
#include <map>
#include <optional>
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
      {"unused-api",
       "every namespace-scope function declared in a src/ header is named "
       "in src/, tools/, bench/, bench_e2e/ or examples/ outside its own "
       "declaration and definition (test-only references live in tests/)"},
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
      if (c == '\'' && in_number(line, i)) {  // digit separator: 250'000
        parts.code.push_back(c);
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
  /// Whether line[i] continues a number literal (its word starts with a
  /// digit), as a digit separator does.
  static bool in_number(const std::string& line, std::size_t i) {
    const auto is_number_char = [](char c) {
      return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '\'' ||
             c == '_';
    };
    std::size_t start = i;
    while (start > 0 && is_number_char(line[start - 1])) --start;
    return start < i &&
           std::isdigit(static_cast<unsigned char>(line[start])) != 0;
  }

  bool in_block_comment_ = false;
  char in_string_ = '\0';
};

inline std::vector<LineSplitter::Parts> split_parts(
    const std::string& content) {
  const std::vector<std::string> lines = split_lines(content);
  std::vector<LineSplitter::Parts> parts(lines.size());
  LineSplitter splitter;
  for (std::size_t i = 0; i < lines.size(); ++i)
    parts[i] = splitter.split(lines[i]);
  return parts;
}

inline std::vector<std::string> code_lines(
    const std::vector<LineSplitter::Parts>& parts) {
  std::vector<std::string> code;
  code.reserve(parts.size());
  for (const LineSplitter::Parts& part : parts) code.push_back(part.code);
  return code;
}

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
  // Code/comment split of every line: token rules see code only,
  // suppression parsing sees comments only.
  const std::vector<detail::LineSplitter::Parts> parts =
      detail::split_parts(content);
  const detail::AllowTable allows = detail::collect_allows(path, parts, out);
  const std::vector<std::string> code = detail::code_lines(parts);

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

// --- unused-api: the one cross-file rule --------------------------------

namespace detail {

inline bool is_word_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

inline bool is_word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Calls `visit(word)` for every identifier of a code line; number
/// literals (0x1Fu, 1e9, 2.5) are skipped whole.
template <typename Visit>
void for_each_word(const std::string& line, Visit&& visit) {
  for (std::size_t i = 0; i < line.size();) {
    if (is_word_start(line[i])) {
      std::size_t end = i;
      while (end < line.size() && is_word_char(line[end])) ++end;
      visit(line.substr(i, end - i));
      i = end;
    } else if (std::isdigit(static_cast<unsigned char>(line[i])) != 0) {
      while (i < line.size() && (is_word_char(line[i]) || line[i] == '.')) ++i;
    } else {
      ++i;
    }
  }
}

/// A function named by a namespace-scope statement, with its 1-based line.
struct FunctionName {
  std::string name;
  std::size_t line = 0;
};

/// The function a namespace-scope statement declares or defines, if any:
/// the last identifier outside template arguments before the first
/// top-level '(' that is not an attribute or a macro (an ALL_CAPS word).
/// A top-level '=' first makes the statement a variable; class, enum,
/// using, operator and friend statements name no function.
inline std::optional<FunctionName> declared_function(
    const std::string& text, const std::vector<std::size_t>& lines) {
  static const std::set<std::string> kNotAFunction = {
      "class",  "struct",   "union",         "enum",   "using",
      "typedef", "operator", "static_assert", "friend", "namespace",
      "return",  "concept"};
  static const std::set<std::string> kSpecifiers = {
      "decltype", "alignas", "noexcept", "__attribute__", "__declspec",
      "requires", "explicit"};
  const auto is_specifier = [](const std::string& word) {
    if (kSpecifiers.count(word) != 0) return true;
    for (char c : word)
      if (std::islower(static_cast<unsigned char>(c)) != 0) return false;
    return true;
  };
  int angle = 0;
  std::string last;
  std::size_t last_line = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (is_word_start(c)) {
      std::size_t end = i;
      while (end < text.size() && is_word_char(text[end])) ++end;
      std::string word = text.substr(i, end - i);
      if (kNotAFunction.count(word) != 0) return std::nullopt;
      if (angle == 0) {
        last = std::move(word);
        last_line = lines[i];
      }
      i = end - 1;
    } else if (c == '<') {
      ++angle;
    } else if (c == '>' && angle > 0) {
      --angle;
    } else if (c == '=' && angle == 0) {
      return std::nullopt;
    } else if (c == '(' && angle == 0) {
      if (!last.empty() && !is_specifier(last))
        return FunctionName{last, last_line};
      // An attribute or macro argument list: skip it whole.
      for (int depth = 0; i < text.size(); ++i) {
        if (text[i] == '(') ++depth;
        if (text[i] == ')' && --depth == 0) break;
      }
      last.clear();
    }
  }
  return std::nullopt;
}

/// Every function declared or defined at namespace scope in a file, from
/// its stripped code lines: statements are split at ';', '{' and '}'
/// outside parentheses, namespace bodies are descended into, and every
/// other brace (class, enum, function body, initializer) is skipped whole.
/// Preprocessor lines are ignored.
inline std::vector<FunctionName> namespace_scope_functions(
    const std::vector<std::string>& code) {
  std::vector<FunctionName> found;
  std::vector<bool> scopes;  // per open brace: does it open a namespace?
  std::size_t nested = 0;    // open braces that are not namespace bodies
  std::string statement;
  std::vector<std::size_t> statement_lines;
  int parens = 0;
  const auto reset = [&] {
    statement.clear();
    statement_lines.clear();
    parens = 0;
  };
  const auto opens_namespace = [&] {
    std::vector<std::string> words;
    for_each_word(statement, [&](const std::string& w) {
      if (words.size() < 2) words.push_back(w);
    });
    if (!words.empty() && words[0] == "inline") words.erase(words.begin());
    return !words.empty() && (words[0] == "namespace" || words[0] == "extern");
  };
  const auto close_scope = [&] {
    if (scopes.empty()) return;
    if (!scopes.back()) --nested;
    scopes.pop_back();
  };
  bool directive = false;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const std::string& line = code[i];
    const std::size_t first = line.find_first_not_of(" \t");
    if (directive || (first != std::string::npos && line[first] == '#')) {
      directive = !line.empty() && line.back() == '\\';
      continue;
    }
    for (const char c : line) {
      if (nested != 0) {
        if (c == '{') {
          scopes.push_back(false);
          ++nested;
        } else if (c == '}') {
          close_scope();
        }
        continue;
      }
      if (c == '(') ++parens;
      if (c == ')' && parens > 0) --parens;
      if (parens != 0 || (c != '{' && c != ';' && c != '}')) {
        statement.push_back(c);
        statement_lines.push_back(i + 1);
        continue;
      }
      if (c == '{' && opens_namespace()) {
        scopes.push_back(true);
      } else if (c == '}') {
        close_scope();
      } else {
        if (auto function = declared_function(statement, statement_lines))
          found.push_back(std::move(*function));
        if (c == '{') {
          scopes.push_back(false);
          ++nested;
        }
      }
      reset();
    }
    if (nested == 0) {  // a line break separates words
      statement.push_back(' ');
      statement_lines.push_back(i + 1);
    }
  }
  return found;
}

inline bool is_api_caller_path(const std::string& path) {
  for (const char* dir :
       {"src/", "tools/", "bench/", "bench_e2e/", "examples/"})
    if (starts_with(path, dir)) return true;
  return false;
}

}  // namespace detail

/// One file of a tree scan: repo-relative forward-slash path and content.
struct SourceFile {
  std::string path;
  std::string content;
};

/// The `unused-api` rule over a whole tree: every function declared at
/// namespace scope in a src/**/*.hpp must be named in a file under src/,
/// tools/, bench/, bench_e2e/ or examples/ somewhere other than a
/// namespace-scope declaration or definition of that name. Names are
/// matched as words of the stripped code, so an overload set counts as
/// one name and a call in a comment counts for nothing. Files outside
/// those directories (tests/ above all) are ignored. Violations come in
/// (path, line) order.
inline std::vector<Violation> lint_unused_api(
    const std::vector<SourceFile>& files) {
  struct Header {
    std::string path;
    std::vector<detail::FunctionName> functions;
    detail::AllowTable allows;
  };
  std::map<std::string, long> uses;
  std::vector<Header> headers;
  for (const SourceFile& file : files) {
    if (!detail::is_api_caller_path(file.path)) continue;
    const std::vector<detail::LineSplitter::Parts> parts =
        detail::split_parts(file.content);
    const std::vector<std::string> code = detail::code_lines(parts);
    for (const std::string& line : code)
      detail::for_each_word(line, [&](const std::string& w) { ++uses[w]; });
    std::vector<detail::FunctionName> functions =
        detail::namespace_scope_functions(code);
    for (const detail::FunctionName& function : functions)
      --uses[function.name];
    if (detail::starts_with(file.path, "src/") &&
        detail::ends_with(file.path, ".hpp")) {
      std::vector<Violation> reported_by_lint_content;
      headers.push_back(
          {file.path, std::move(functions),
           detail::collect_allows(file.path, parts, reported_by_lint_content)});
    }
  }
  std::sort(headers.begin(), headers.end(),
            [](const Header& a, const Header& b) { return a.path < b.path; });

  std::vector<Violation> out;
  for (const Header& header : headers) {
    for (const detail::FunctionName& function : header.functions) {
      if (uses[function.name] > 0 ||
          header.allows.allowed("unused-api", function.line))
        continue;
      out.push_back(
          {header.path, function.line, "unused-api",
           "'" + function.name +
               "' is declared in a src/ header but named nowhere else in "
               "src/, tools/, bench/, bench_e2e/ or examples/ — move a "
               "test-only reference to tests/support/, or justify with "
               "lint:allow(unused-api): <why it stays>"});
    }
  }
  return out;
}

}  // namespace streamflow::lint
