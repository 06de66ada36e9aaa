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
// Two rules are cross-file: `unused-api` (lint_unused_api) and
// `unset-option` (lint_unset_option) need the whole tree, so they run in
// tree mode only, over the files the caller hands them.
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
       "every namespace-scope function, public member function and "
       "constructor declared in a src/ header is used in src/, tools/, "
       "bench/, bench_e2e/ or examples/ outside its own declarations and "
       "body, keyed on (name, argument count) (test-only references live in "
       "tests/). A member function is used only by a call of an accepted "
       "argument count or by &T::f, never by a bare mention of its name. "
       "Blind spots: overloads of one arity are one entry, and a call of "
       "another entity's same-named function counts"},
      {"unset-option",
       "every non-static data member of a *Options struct in a src/ header "
       "is assigned (.f =, ->f =, &T::f) in src/, tools/, bench/, "
       "bench_e2e/ or examples/: a field no shipped caller sets is a "
       "constant. Blind spot: fields are matched by name alone"},
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

// --- the cross-file rules: unused-api and unset-option -------------------

namespace detail {

inline bool is_word_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

inline bool is_word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// The end of the identifier starting at text[i].
inline std::size_t word_end(const std::string& text, std::size_t i) {
  while (i < text.size() && is_word_char(text[i])) ++i;
  return i;
}

/// Calls `visit(word, offset)` for every identifier of `text`; number
/// literals (0x1Fu, 1e9, 2.5) are skipped whole.
template <typename Visit>
void for_each_word(const std::string& text, Visit&& visit) {
  for (std::size_t i = 0; i < text.size();) {
    if (is_word_start(text[i])) {
      const std::size_t end = word_end(text, i);
      visit(text.substr(i, end - i), i);
      i = end;
    } else if (std::isdigit(static_cast<unsigned char>(text[i])) != 0) {
      while (i < text.size() && (is_word_char(text[i]) || text[i] == '.')) ++i;
    } else {
      ++i;
    }
  }
}

inline std::size_t skip_space(const std::string& text, std::size_t i) {
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])))
    ++i;
  return i;
}

/// `i` moved back over the whitespace that ends right before it.
inline std::size_t skip_space_back(const std::string& text, std::size_t i) {
  while (i > 0 && std::isspace(static_cast<unsigned char>(text[i - 1])))
    --i;
  return i;
}

/// The start of the identifier that ends right before `end` (`end` itself
/// when none does).
inline std::size_t word_begin(const std::string& text, std::size_t end) {
  while (end > 0 && is_word_char(text[end - 1])) --end;
  return end;
}

/// The top-level items of the bracketed list opening at text[open] ('(' or
/// '{'): split at commas outside nested brackets and template arguments (a
/// '<' directly after a word opens one, a '>' not after '-' closes it).
/// `body` marks a brace block holding a top-level ';' (a function or class
/// body, not an initializer list).
struct BracketList {
  std::vector<std::string> items;
  std::vector<bool> defaulted;  ///< the item holds a top-level '='
  std::size_t close = std::string::npos;
  bool body = false;
};

inline BracketList split_bracket_list(const std::string& text,
                                      std::size_t open) {
  constexpr std::size_t npos = std::string::npos;
  BracketList list;
  std::vector<int> angles{0};  // open template arguments per bracket level
  std::string item;
  bool defaulted = false;
  for (std::size_t i = open + 1; i < text.size(); ++i) {
    const char c = text[i];
    const char prev = text[i - 1];
    const bool top = angles.size() == 1 && angles.back() == 0;
    if (c == '(' || c == '[' || c == '{') {
      angles.push_back(0);
    } else if (c == ')' || c == ']' || c == '}') {
      angles.pop_back();
      if (angles.empty()) {
        list.close = i;
        break;
      }
    } else if (c == '<' && is_word_char(prev)) {
      ++angles.back();
    } else if (c == '>' && angles.back() > 0 && prev != '-') {
      --angles.back();
    } else if (top && c == ';') {
      list.body = true;
    } else if (top && c == '=' && std::string("=!<>").find(prev) == npos &&
               (i + 1 == text.size() || text[i + 1] != '=')) {
      defaulted = true;
    } else if (top && c == ',') {
      list.items.push_back(std::move(item));
      list.defaulted.push_back(defaulted);
      item.clear();
      defaulted = false;
      continue;
    }
    item.push_back(c);
  }
  if (!list.items.empty() ||
      item.find_first_not_of(" \t\n") != std::string::npos) {
    list.items.push_back(std::move(item));
    list.defaulted.push_back(defaulted);
  }
  return list;
}

/// A function declared or defined at namespace or class scope.
struct Declaration {
  std::string name;
  std::string owner;        ///< enclosing class; empty at namespace scope
  std::size_t offset = 0;   ///< of the name, in the file's joined code
  std::size_t min_args = 0;
  std::size_t max_args = 0;
  bool checked = true;       ///< part of the API the rule holds to callers
};

/// A data member of a class, with the offset of its name.
struct Field {
  std::string owner;
  std::string name;
  std::size_t offset = 0;
};

/// The text between a function definition's braces, for the one name
/// whose uses inside it do not count (a forwarding wrapper or a recursion
/// does not call itself into use).
struct Body {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::string name;
};

struct FileScan {
  std::vector<Declaration> functions;
  std::vector<Field> fields;
  std::vector<Body> bodies;  ///< in offset order
};

/// The function a namespace- or class-scope statement declares or defines,
/// if any: the last identifier outside template arguments before the first
/// top-level '(' that is not an attribute or a macro (an ALL_CAPS word),
/// with the argument counts its parameter list accepts. A top-level '='
/// first makes the statement a variable; class, enum, using, operator and
/// friend statements name no function. Deleted functions come back
/// unchecked.
inline std::optional<Declaration> declared_function(
    const std::string& text, const std::vector<std::size_t>& offsets) {
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
  std::size_t last_at = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (is_word_start(c)) {
      const std::size_t end = word_end(text, i);
      std::string word = text.substr(i, end - i);
      if (kNotAFunction.count(word) != 0) return std::nullopt;
      if (angle == 0) {
        last = std::move(word);
        last_at = i;
      }
      i = end - 1;
    } else if (c == '<') {
      ++angle;
    } else if (c == '>' && angle > 0) {
      --angle;
    } else if (c == '=' && angle == 0) {
      return std::nullopt;
    } else if (c == '(' && angle == 0) {
      // `R (*f)(…)` declares a pointer to a function, not a function.
      const std::size_t inner = skip_space(text, i + 1);
      if (inner < text.size() && (text[inner] == '*' || text[inner] == '&'))
        return std::nullopt;
      if (!last.empty() && !is_specifier(last)) {
        Declaration declaration;
        declaration.name = last;
        declaration.offset = offsets[last_at];
        const BracketList params = split_bracket_list(text, i);
        declaration.max_args = params.items.size();
        declaration.min_args = params.items.size();
        for (const bool defaulted : params.defaulted)
          if (defaulted) --declaration.min_args;
        if (params.close != std::string::npos) {
          for_each_word(text.substr(params.close + 1),
                        [&](const std::string& w, std::size_t) {
                          if (w == "delete") declaration.checked = false;
                        });
        }
        return declaration;
      }
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

/// The data member a class-scope statement declares, if any: the last
/// identifier outside brackets and template arguments before a top-level
/// '=' (or the end), when a type precedes it. Static members, type and
/// friend declarations are not data members.
inline std::optional<Field> declared_field(
    const std::string& text, const std::vector<std::size_t>& offsets) {
  static const std::set<std::string> kNotAField = {
      "static", "using", "typedef", "friend", "enum",     "template",
      "class",  "struct", "union",  "static_assert", "operator"};
  int depth = 0;
  std::size_t words = 0;
  Field field;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (is_word_start(c)) {
      const std::size_t end = word_end(text, i);
      const std::string word = text.substr(i, end - i);
      if (kNotAField.count(word) != 0) return std::nullopt;
      if (depth == 0) {
        ++words;
        field.name = word;
        field.offset = offsets[i];
      }
      i = end - 1;
    } else if (c == '<' || c == '(' || c == '[') {
      ++depth;
    } else if ((c == '>' || c == ')' || c == ']') && depth > 0) {
      --depth;
    } else if (c == '=' && depth == 0) {
      break;
    }
  }
  if (words < 2) return std::nullopt;
  return field;
}

/// Consumes the access labels ("public:", "private:", "protected:") that
/// open a class-scope statement, updating `is_public`; returns the index
/// where the declaration proper starts.
inline std::size_t skip_access_labels(const std::string& text,
                                      bool& is_public) {
  std::size_t at = 0;
  for (;;) {
    const std::size_t word = skip_space(text, at);
    const std::size_t end = word_end(text, word);
    const std::string label = text.substr(word, end - word);
    const std::size_t colon = skip_space(text, end);
    if ((label != "public" && label != "private" && label != "protected") ||
        colon >= text.size() || text[colon] != ':' ||
        (colon + 1 < text.size() && text[colon + 1] == ':'))
      return at;
    is_public = label == "public";
    at = colon + 1;
  }
}

/// The class a statement opens with its '{', if it is a class head:
/// `[template <...>] class|struct|union Name [final] [: bases]`. Returns
/// the name (empty when anonymous) and whether members default to public.
inline std::optional<std::pair<std::string, bool>> class_head(
    const std::string& text) {
  std::vector<std::string> words;
  int depth = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (is_word_start(c)) {
      const std::size_t end = word_end(text, i);
      if (depth == 0) words.push_back(text.substr(i, end - i));
      i = end - 1;
    } else if (c == '<' || c == '(' || c == '[') {
      ++depth;
    } else if ((c == '>' || c == ')' || c == ']') && depth > 0) {
      --depth;
    } else if (c == ':' && depth == 0) {
      if (i + 1 < text.size() && text[i + 1] == ':') {
        ++i;
      } else {
        break;  // the base clause
      }
    }
  }
  if (!words.empty() && words.front() == "template") words.erase(words.begin());
  if (words.empty() || (words.front() != "class" && words.front() != "struct" &&
                        words.front() != "union"))
    return std::nullopt;
  const bool is_public = words.front() != "class";
  if (words.size() > 1 && words.back() == "final") words.pop_back();
  return std::make_pair(words.size() > 1 ? words.back() : std::string(),
                        is_public);
}

inline bool opens_namespace(const std::string& text) {
  std::vector<std::string> words;
  for_each_word(text, [&](const std::string& w, std::size_t) {
    if (words.size() < 2) words.push_back(w);
  });
  if (!words.empty() && words[0] == "inline") words.erase(words.begin());
  return !words.empty() && (words[0] == "namespace" || words[0] == "extern");
}

/// Every function declared or defined at namespace or class scope in a
/// file, and every data member of its classes, from its joined code
/// (`line_starts` gives each line's offset). Statements are split at ';',
/// '{' and '}' outside parentheses; namespace and class bodies are
/// descended into, and every other brace (function body, enum,
/// initializer) is skipped whole. Preprocessor lines are ignored. A
/// declaration is checked when it is at namespace scope or a public member
/// of public classes; constructors taking no arguments (destructors among
/// them: they carry the class name too) and deleted functions are not.
inline FileScan scan_declarations(const std::vector<std::string>& code,
                                  const std::vector<std::size_t>& line_starts) {
  struct Scope {
    bool is_class = false;
    std::string name;
    bool is_public = true;   // the access of the members declared next
    bool accessible = true;  // reachable from outside every enclosing class
  };
  FileScan scan;
  std::vector<Scope> scopes;
  std::size_t skipped = 0;  // depth inside a brace that is skipped whole
  Body body;
  std::string statement;
  std::vector<std::size_t> offsets;
  int parens = 0;
  const auto reset = [&] {
    statement.clear();
    offsets.clear();
    parens = 0;
  };
  bool directive = false;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const std::string& line = code[i];
    const std::size_t first = line.find_first_not_of(" \t");
    if (directive || (first != std::string::npos && line[first] == '#')) {
      directive = !line.empty() && line.back() == '\\';
      continue;
    }
    for (std::size_t column = 0; column < line.size(); ++column) {
      const char c = line[column];
      const std::size_t at = line_starts[i] + column;
      if (skipped != 0) {
        if (c == '{') ++skipped;
        if (c == '}' && --skipped == 0 && !body.name.empty()) {
          body.end = at;
          scan.bodies.push_back(std::move(body));
          body = Body{};
        }
        continue;
      }
      if (c == '(') ++parens;
      if (c == ')' && parens > 0) --parens;
      if (parens != 0 || (c != '{' && c != ';' && c != '}')) {
        statement.push_back(c);
        offsets.push_back(at);
        continue;
      }
      if (c == '}') {
        if (!scopes.empty()) scopes.pop_back();
        reset();
        continue;
      }
      Scope* scope = scopes.empty() ? nullptr : &scopes.back();
      const bool in_class = scope != nullptr && scope->is_class;
      const std::size_t begin =
          in_class ? skip_access_labels(statement, scope->is_public) : 0;
      const bool accessible =
          scope == nullptr ||
          (scope->accessible && (!in_class || scope->is_public));
      const std::string text = statement.substr(begin);
      const std::vector<std::size_t> text_offsets(
          offsets.begin() + static_cast<std::ptrdiff_t>(begin), offsets.end());
      std::optional<std::pair<std::string, bool>> head;
      if (c == '{' && opens_namespace(text)) {
        scopes.push_back({false, "", true, accessible});
      } else if (c == '{' && (head = class_head(text))) {
        scopes.push_back({true, head->first, head->second, accessible});
      } else {
        body = Body{};
        std::optional<Declaration> function =
            declared_function(text, text_offsets);
        if (function) {
          if (in_class) function->owner = scope->name;
          const bool constructor = in_class && function->name == scope->name;
          function->checked = function->checked && accessible &&
                              !(constructor && function->max_args == 0);
          body.name = function->name;
          scan.functions.push_back(std::move(*function));
        } else if (in_class) {
          if (std::optional<Field> field = declared_field(text, text_offsets)) {
            field->owner = scope->name;
            scan.fields.push_back(std::move(*field));
          }
        }
        if (c == '{') {
          skipped = 1;
          body.begin = at;
        }
      }
      reset();
    }
    if (skipped == 0) {  // a line break separates words
      statement.push_back(' ');
      offsets.push_back(line_starts[i] + line.size());
    }
  }
  return scan;
}

/// How the shipped code names things: the words it mentions without an
/// argument list, the argument counts it calls each name with (a class
/// name collects the counts of its constructions: `T(…)`, `T{…}`,
/// `T v(…)`, `T v{…}`, `make_shared<T>(…)`, `make_unique<T>(…)`), the
/// members it takes a pointer to (`&T::f`, kept as "T::f"), and the data
/// members it assigns (`.f =`, `->f =`, `.f.g =` or `&T::f`).
struct Uses {
  std::set<std::string> mentioned;
  std::map<std::string, std::set<std::size_t>> arities;
  std::set<std::string> addressed;
  std::set<std::string> assigned;
};

/// The end of the template argument list opening at text[open], or npos
/// when it does not close before a statement or bracket boundary; `inner`
/// receives its last top-level word.
inline std::size_t skip_template_args(const std::string& text,
                                      std::size_t open, std::string& inner) {
  int angle = 0;
  int parens = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '<') ++angle;
    if (c == '>' && --angle == 0) return i + 1;
    if (c == '(') ++parens;
    if (c == ')' && --parens < 0) return std::string::npos;
    if (c == ';' || c == '{' || c == '}') return std::string::npos;
    if (is_word_start(c) && angle == 1 && parens == 0) {
      const std::size_t end = word_end(text, i);
      inner = text.substr(i, end - i);
      i = end - 1;
    }
  }
  return std::string::npos;
}

/// The identifier that ends right before `at` with only whitespace between
/// (the type of `T v(…)`), or "".
inline std::string word_before(const std::string& text, std::size_t at) {
  const std::size_t end = skip_space_back(text, at);
  const std::size_t begin = word_begin(text, end);
  if (end == at || begin == end || !is_word_start(text[begin])) return "";
  return text.substr(begin, end - begin);
}

/// Whether text[at] is reached through '.' or '->', and where that
/// accessor starts.
inline std::optional<std::size_t> member_access_before(const std::string& text,
                                                       std::size_t at) {
  const std::size_t i = skip_space_back(text, at);
  if (i >= 1 && text[i - 1] == '.') return i - 1;
  if (i >= 2 && text[i - 1] == '>' && text[i - 2] == '-') return i - 2;
  return std::nullopt;
}

inline void collect_uses(const std::string& text, const FileScan& scan,
                         Uses& uses) {
  std::set<std::size_t> declared;
  for (const Declaration& declaration : scan.functions)
    declared.insert(declaration.offset);
  const auto inside_own_body = [&](const std::string& word, std::size_t at) {
    auto it = std::upper_bound(
        scan.bodies.begin(), scan.bodies.end(), at,
        [](std::size_t offset, const Body& b) { return offset < b.begin; });
    if (it == scan.bodies.begin()) return false;
    --it;
    return at < it->end && it->name == word;
  };
  for_each_word(text, [&](const std::string& word, std::size_t at) {
    const std::size_t end = at + word.size();
    if (declared.count(at) != 0 || inside_own_body(word, at)) return;
    std::size_t next = skip_space(text, end);
    std::string constructed;
    if (next == end && next < text.size() && text[next] == '<') {
      std::string inner;
      const std::size_t after = skip_template_args(text, next, inner);
      const std::size_t call =
          after == std::string::npos ? after : skip_space(text, after);
      if (call < text.size() && (text[call] == '(' || text[call] == '{')) {
        next = call;
        if (word == "make_shared" || word == "make_unique")
          constructed = inner;
      }
    }
    const char after = next < text.size() ? text[next] : '\0';
    const std::string before = word_before(text, at);
    if (after == '(' || after == '{') {
      const BracketList args = split_bracket_list(text, next);
      if (!args.body) {
        const std::size_t count = args.items.size();
        uses.arities[word].insert(count);
        if (!constructed.empty()) uses.arities[constructed].insert(count);
        if (!before.empty()) uses.arities[before].insert(count);
        return;
      }
    }
    uses.mentioned.insert(word);
    // An assigned member chain: every member of `a.b.c = …` is written.
    const char second = next + 1 < text.size() ? text[next + 1] : '\0';
    const bool assignment =
        (after == '=' && second != '=') ||
        (after != '\0' && std::string("+-*/|&").find(after) !=
                               std::string::npos && second == '=');
    if (assignment) {
      std::size_t member = at;
      while (std::optional<std::size_t> access =
                 member_access_before(text, member)) {
        uses.assigned.insert(text.substr(member, word_end(text, member) -
                                                     member));
        const std::size_t end = skip_space_back(text, *access);
        if (word_begin(text, end) == end) break;
        member = word_begin(text, end);
      }
    }
    // A pointer to member: &T::f, with T qualified or not.
    std::size_t begin = at;
    while (begin >= 2 && text[begin - 1] == ':' && text[begin - 2] == ':')
      begin = word_begin(text, begin - 2);
    const std::size_t amp = skip_space_back(text, begin);
    if (begin < at && amp > 0 && text[amp - 1] == '&') {
      const std::size_t owner = word_begin(text, at - 2);
      uses.addressed.insert(text.substr(owner, end - owner));
      uses.assigned.insert(word);
    }
  });
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

namespace detail {

/// A src/ header's declarations, with the suppressions that apply to them.
struct HeaderScan {
  std::string path;
  std::vector<std::size_t> line_starts;
  FileScan scan;
  AllowTable allows;

  std::size_t line_of(std::size_t offset) const {
    return static_cast<std::size_t>(
        std::upper_bound(line_starts.begin(), line_starts.end(), offset) -
        line_starts.begin());
  }
};

struct TreeScan {
  std::vector<HeaderScan> headers;  ///< src/**/*.hpp, in path order
  Uses uses;
};

/// Scans every file under src/, tools/, bench/, bench_e2e/ or examples/;
/// the other files (tests/ above all) are ignored.
inline TreeScan scan_tree(const std::vector<SourceFile>& files) {
  TreeScan tree;
  for (const SourceFile& file : files) {
    if (!is_api_caller_path(file.path)) continue;
    const std::vector<LineSplitter::Parts> parts = split_parts(file.content);
    const std::vector<std::string> code = code_lines(parts);
    std::vector<std::size_t> line_starts;
    std::string text;
    for (const std::string& line : code) {
      line_starts.push_back(text.size());
      text += line;
      text.push_back('\n');
    }
    FileScan scan = scan_declarations(code, line_starts);
    collect_uses(text, scan, tree.uses);
    if (starts_with(file.path, "src/") && ends_with(file.path, ".hpp")) {
      std::vector<Violation> reported_by_lint_content;
      AllowTable allows =
          collect_allows(file.path, parts, reported_by_lint_content);
      tree.headers.push_back({file.path, std::move(line_starts),
                              std::move(scan), std::move(allows)});
    }
  }
  std::sort(tree.headers.begin(), tree.headers.end(),
            [](const HeaderScan& a, const HeaderScan& b) {
              return a.path < b.path;
            });
  return tree;
}

inline std::string arity_text(const Declaration& declaration) {
  if (declaration.min_args == declaration.max_args)
    return std::to_string(declaration.max_args);
  return std::to_string(declaration.min_args) + "-" +
         std::to_string(declaration.max_args);
}

}  // namespace detail

/// The `unused-api` rule over a whole tree. Every function a src/**/*.hpp
/// declares at namespace scope, and every public member function and
/// constructor of its public classes, must be used by a file under src/,
/// tools/, bench/, bench_e2e/ or examples/ somewhere other than its own
/// declarations and body. A use is keyed on (name, argument count): an
/// overload is used by a call whose argument count its parameter list
/// accepts (defaulted parameters give a range). A namespace-scope function
/// is also used by any mention of its name without an argument list (a
/// pointer to it, say); a member function only by `&T::f` with T its own
/// class, so a field or a local of the same name hides nothing. A constructor is used only by
/// a construction of its class with an accepted count. Blind spots:
/// overloads of one arity are one entry, and a call of another entity's
/// function of the same name and arity counts. Violations come in (path,
/// line) order.
inline std::vector<Violation> lint_unused_api(
    const std::vector<SourceFile>& files) {
  const detail::TreeScan tree = detail::scan_tree(files);
  const auto called = [&](const std::string& name,
                          const detail::Declaration& declaration) {
    const auto it = tree.uses.arities.find(name);
    if (it == tree.uses.arities.end()) return false;
    const auto first = it->second.lower_bound(declaration.min_args);
    return first != it->second.end() && *first <= declaration.max_args;
  };
  std::vector<Violation> out;
  for (const detail::HeaderScan& header : tree.headers) {
    for (const detail::Declaration& declaration : header.scan.functions) {
      const std::size_t line = header.line_of(declaration.offset);
      const bool constructor = declaration.name == declaration.owner;
      const bool named =
          declaration.owner.empty()
              ? tree.uses.mentioned.count(declaration.name) != 0
              : tree.uses.addressed.count(declaration.owner + "::" +
                                          declaration.name) != 0;
      const bool used = constructor
                            ? called(declaration.owner, declaration)
                            : named || called(declaration.name, declaration);
      if (!declaration.checked || used ||
          header.allows.allowed("unused-api", line))
        continue;
      const std::string qualified =
          declaration.owner.empty()
              ? declaration.name
              : declaration.owner + "::" + declaration.name;
      out.push_back(
          {header.path, line, "unused-api",
           "'" + qualified + "' taking " + detail::arity_text(declaration) +
               " argument(s) is declared in a src/ header but used nowhere "
               "else in src/, tools/, bench/, bench_e2e/ or examples/ — "
               "delete it, move a test-only reference to tests/support/, "
               "or justify with lint:allow(unused-api): <why it stays>"});
    }
  }
  return out;
}

/// The `unset-option` rule over a whole tree: every non-static data member
/// of a `*Options` struct declared in a src/**/*.hpp is assigned in a file
/// under src/, tools/, bench/, bench_e2e/ or examples/ (`.f =`, `->f =`,
/// a member chain `.f.g =`, or `&T::f`). A field that no shipped caller
/// sets has one value in use and belongs in a constant. Blind spot: a field
/// counts as set when another struct's field of the same name is set.
/// Violations come in (path, line) order.
inline std::vector<Violation> lint_unset_option(
    const std::vector<SourceFile>& files) {
  const detail::TreeScan tree = detail::scan_tree(files);
  std::vector<Violation> out;
  for (const detail::HeaderScan& header : tree.headers) {
    for (const detail::Field& field : header.scan.fields) {
      const std::size_t line = header.line_of(field.offset);
      if (!detail::ends_with(field.owner, "Options") ||
          tree.uses.assigned.count(field.name) != 0 ||
          header.allows.allowed("unset-option", line))
        continue;
      out.push_back(
          {header.path, line, "unset-option",
           "'" + field.owner + "::" + field.name +
               "' is assigned nowhere in src/, tools/, bench/, bench_e2e/ "
               "or examples/ — make it a constant, or justify with "
               "lint:allow(unset-option): <why it stays settable>"});
    }
  }
  return out;
}

}  // namespace streamflow::lint
