// Mutation-style coverage for the streamflow_lint rule engine.
//
// The contract under test: every rule in lint::rules() can actually fire —
// proven by replaying the planted-violation fixtures under
// tests/fixtures/lint/ (which the tree scan deliberately skips) — and every
// firing site is silenced by a well-formed `lint:allow(<rule>): <reason>`
// comment. Policy carve-outs (bench/ wall-clock exemption, src/-only float
// ban, header-only rules, the annotated mutex wrapper itself, the text
// reader and the test-side number references) are pinned
// here too, so a refactor of the engine cannot silently widen or narrow a
// rule. The cross-file rules replay planted mini-trees instead of single
// files: tests/fixtures/lint/unused_api/, unused_members/ and member_uses/
// for unused-api, unset_option/ for unset-option.
#include "lint_rules.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace streamflow::lint {
namespace {

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(STREAMFLOW_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Lints fixture `name` as if it lived at repo-relative `policy_path`
/// (the path prefix and extension drive which rules apply), reduced to
/// the (rule, line) pairs the assertions pin.
using Fired = std::vector<std::pair<std::string, std::size_t>>;

Fired fire(const std::string& policy_path, const std::string& content) {
  Fired fired;
  for (const Violation& v : lint_content(policy_path, content)) {
    EXPECT_EQ(v.path, policy_path);
    EXPECT_FALSE(v.message.empty());
    fired.emplace_back(v.rule, v.line);
  }
  return fired;
}

Fired fire_fixture(const std::string& policy_path, const std::string& name) {
  return fire(policy_path, read_fixture(name));
}

/// A planted mini-tree under tests/fixtures/lint/<root>/, with paths
/// relative to its root; the header comes first.
std::vector<SourceFile> mini_tree(const std::string& root,
                                  const std::vector<std::string>& paths) {
  std::vector<SourceFile> files;
  for (const std::string& path : paths)
    files.push_back({path, read_fixture(root + "/" + path)});
  return files;
}

std::vector<SourceFile> unused_api_tree() {
  return mini_tree("unused_api",
                   {"src/widget/widget.hpp", "src/widget/widget.cpp",
                    "tools/driver.cpp", "tests/widget_test.cpp"});
}

std::vector<SourceFile> unused_members_tree() {
  return mini_tree("unused_members",
                   {"src/gadget/gadget.hpp", "src/gadget/gadget.cpp",
                    "tools/driver.cpp", "tests/gadget_test.cpp"});
}

std::vector<SourceFile> member_uses_tree() {
  return mini_tree("member_uses",
                   {"src/sensor/sensor.hpp", "tools/driver.cpp"});
}

std::vector<SourceFile> unset_option_tree() {
  return mini_tree("unset_option", {"src/knobs/knobs.hpp", "tools/driver.cpp",
                                    "tests/knobs_test.cpp"});
}

/// A cross-file rule over `files`, reduced to (path:line) strings.
using TreeRule = std::vector<Violation> (*)(const std::vector<SourceFile>&);

std::vector<std::string> fire_tree(TreeRule lint, const std::string& rule,
                                   const std::vector<SourceFile>& files) {
  std::vector<std::string> fired;
  for (const Violation& v : lint(files)) {
    EXPECT_EQ(v.rule, rule);
    fired.push_back(v.path + ":" + std::to_string(v.line));
  }
  return fired;
}

std::vector<std::string> fire_unused_api(const std::vector<SourceFile>& files) {
  return fire_tree(lint_unused_api, "unused-api", files);
}

std::vector<std::string> fire_unset_option(
    const std::vector<SourceFile>& files) {
  return fire_tree(lint_unset_option, "unset-option", files);
}

TEST(Lint, WallClockFiresAndAllowSuppresses) {
  const Fired fired = fire_fixture("src/engine/wall_clock.cpp", "wall_clock.cpp");
  const Fired expected = {{"wall-clock", 5}, {"wall-clock", 9}};
  EXPECT_EQ(fired, expected);
}

TEST(Lint, WallClockExemptUnderBench) {
  EXPECT_TRUE(fire_fixture("bench/wall_clock.cpp", "wall_clock.cpp").empty());
}

TEST(Lint, AmbientEntropyFiresEverywhereIncludingStdQualifiedRand) {
  const Fired expected = {{"ambient-entropy", 5}, {"ambient-entropy", 7}};
  EXPECT_EQ(fire_fixture("src/core/ambient_entropy.cpp", "ambient_entropy.cpp"),
            expected);
  // No bench exemption for entropy: timing may be ambient, randomness never.
  EXPECT_EQ(fire_fixture("bench/ambient_entropy.cpp", "ambient_entropy.cpp"),
            expected);
}

TEST(Lint, FloatTypeFiresOnlyUnderSrc) {
  const Fired expected = {{"float-type", 4}};
  EXPECT_EQ(fire_fixture("src/core/float_type.cpp", "float_type.cpp"), expected);
  EXPECT_TRUE(fire_fixture("tools/float_type.cpp", "float_type.cpp").empty());
}

TEST(Lint, UnorderedIterFiresAndJustificationSuppresses) {
  const Fired fired =
      fire_fixture("src/markov/unordered_iter.cpp", "unordered_iter.cpp");
  const Fired expected = {{"unordered-iter", 9}, {"unordered-iter", 10}};
  EXPECT_EQ(fired, expected);
}

TEST(Lint, HeaderPragmaOnceFiresAtLineOne) {
  const Fired fired =
      fire_fixture("src/common/header_pragma_once.hpp", "header_pragma_once.hpp");
  const Fired expected = {{"header-pragma-once", 1}};
  EXPECT_EQ(fired, expected);
}

TEST(Lint, HeaderPragmaOnceFileLevelAllowSuppresses) {
  EXPECT_TRUE(fire_fixture("src/common/header_pragma_once_allowed.hpp",
                           "header_pragma_once_allowed.hpp")
                  .empty());
}

TEST(Lint, UsingNamespaceFiresOnlyInHeaders) {
  const Fired fired =
      fire_fixture("src/core/using_namespace.hpp", "using_namespace.hpp");
  const Fired expected = {{"using-namespace-header", 6}};
  EXPECT_EQ(fired, expected);
  // The very same directive in a translation unit is legal.
  EXPECT_TRUE(
      fire_fixture("src/core/using_namespace.cpp", "using_namespace.hpp").empty());
}

TEST(Lint, RawMutexFiresAndAllowSuppresses) {
  const Fired fired = fire_fixture("src/engine/raw_mutex.cpp", "raw_mutex.cpp");
  const Fired expected = {{"raw-mutex", 5}, {"raw-mutex", 6}};
  EXPECT_EQ(fired, expected);
}

TEST(Lint, RawMutexExemptInsideTheAnnotatedWrapper) {
  // common/mutex.hpp is the one place allowed to touch the raw primitive.
  // The fixture has no #pragma once, so only that rule may fire.
  const Fired fired = fire_fixture("src/common/mutex.hpp", "raw_mutex.cpp");
  const Fired expected = {{"header-pragma-once", 1}};
  EXPECT_EQ(fired, expected);
}

TEST(Lint, NumberParseFiresInSrcAndTools) {
  const Fired expected = {{"number-parse", 6},
                          {"number-parse", 7},
                          {"number-parse", 8},
                          {"number-parse", 9},
                          {"number-parse", 10}};
  EXPECT_EQ(fire_fixture("src/model/number_parse.cpp", "number_parse.cpp"),
            expected);
  EXPECT_EQ(fire_fixture("tools/number_parse.cpp", "number_parse.cpp"),
            expected);
}

TEST(Lint, NumberParseAllowSuppresses) {
  EXPECT_TRUE(fire_fixture("src/model/number_parse_allowed.cpp",
                           "number_parse_allowed.cpp")
                  .empty());
}

TEST(Lint, NumberParseExemptInTestsBenchAndTheReader) {
  // tests/support/ and bench/ hold the strtod / stream references the
  // reader is checked against; the reader itself owns the grammar.
  for (const char* path : {"tests/support/number_reference.cpp",
                           "bench/number_parse.cpp",
                           "src/common/text_reader.cpp"}) {
    EXPECT_TRUE(fire_fixture(path, "number_parse.cpp").empty()) << path;
  }
}

TEST(Lint, AllowSyntaxFiresOnUnknownRuleAndMissingReason) {
  const Fired fired =
      fire_fixture("tools/allow_syntax.cpp", "allow_syntax.cpp");
  const Fired expected = {{"allow-syntax", 4}, {"allow-syntax", 5}};
  EXPECT_EQ(fired, expected);
}

TEST(Lint, UnusedApiFiresOnADeclarationWithoutAShippedCaller) {
  // unused_function is named by its definition, a test, a comment and a
  // string, none of which is a shipped caller; suppressed_function has no
  // caller either but carries a justified suppression.
  const std::vector<std::string> expected = {"src/widget/widget.hpp:10"};
  EXPECT_EQ(fire_unused_api(unused_api_tree()), expected);
}

TEST(Lint, UnusedApiCountsCallersInEveryShippedDirectory) {
  for (const char* dir : {"src/", "tools/", "bench/", "bench_e2e/",
                          "examples/"}) {
    std::vector<SourceFile> files = unused_api_tree();
    files.push_back({std::string(dir) + "caller.cpp",
                     "int f() { return widget::unused_function(2); }\n"});
    EXPECT_TRUE(fire_unused_api(files).empty()) << dir;
  }
}

TEST(Lint, UnusedApiSuppressionNamesTheRule) {
  std::vector<SourceFile> files = unused_api_tree();
  std::string& header = files[0].content;
  const std::size_t at = header.find("lint:allow(unused-api)");
  ASSERT_NE(at, std::string::npos);
  header.replace(at, 22, "lint:allow(wall-clock)");
  const std::vector<std::string> expected = {"src/widget/widget.hpp:10",
                                             "src/widget/widget.hpp:13"};
  EXPECT_EQ(fire_unused_api(files), expected);
}

TEST(Lint, UnusedApiSeesFunctionsAndPublicMembers) {
  // Every shape of declaration a src/ header holds; the functions declared
  // at namespace scope and the public members are checked, each at its
  // name's line.
  const std::string header =
      "#pragma once\n"                                         // 1
      "#define SF_MACRO(x) macro_target(x)\n"                  // 2
      "namespace streamflow {\n"                               // 3
      "template <typename T>\n"                                // 4
      "T templated(std::vector<T> values = {}, int n = 250'000);\n"  // 5
      "std::vector<double>\n"                                  // 6
      "multi_line(const Options& options = {});\n"             // 7
      "inline constexpr double kValue = compute(2.0);\n"       // 8
      "class Widget {\n"                                       // 9
      " public:\n"                                             // 10
      "  int member(int x) const;\n"                           // 11
      " private:\n"                                            // 12
      "  int hidden(int x) const;\n"                           // 13
      "};\n"                                                   // 14
      "bool operator==(const Widget& a, const Widget& b);\n"   // 15
      "[[nodiscard]] inline int with_body(int x) {\n"          // 16
      "  return x > 0 ? x : -x;\n"                             // 17
      "}\n"                                                    // 18
      "namespace inner {\n"                                    // 19
      "double nested(double x);\n"                             // 20
      "}  // namespace inner\n"                                // 21
      "}  // namespace streamflow\n";                          // 22
  const std::vector<std::string> expected = {
      "src/a.hpp:5", "src/a.hpp:7", "src/a.hpp:11", "src/a.hpp:16",
      "src/a.hpp:20"};
  EXPECT_EQ(fire_unused_api({{"src/a.hpp", header}}), expected);
}

TEST(Lint, UnusedApiKeysMembersOnTheirArgumentCount) {
  // A constructor, a member and an overload of another arity have no
  // shipped use; so has a wrapper named only inside its own body. The used
  // constructors (`T v(…)`, make_unique<T>(…)), the one-argument resize,
  // the defaulted form of scaled, the pointer to pointed, the destructor
  // and the private members stay quiet.
  const std::vector<std::string> expected = {
      "src/gadget/gadget.hpp:11", "src/gadget/gadget.hpp:16",
      "src/gadget/gadget.hpp:18", "src/gadget/gadget.hpp:21"};
  EXPECT_EQ(fire_unused_api(unused_members_tree()), expected);
}

TEST(Lint, UnusedApiCountsAShippedCallOfTheRightArity) {
  std::vector<SourceFile> files = unused_members_tree();
  files.push_back({"examples/caller.cpp",
                   "int f() {\n"
                   "  gadget::Gadget g(1, 2,\n"
                   "                  3);\n"
                   "  return g.unused_member() + g.resize(1, 2);\n"
                   "}\n"});
  const std::vector<std::string> expected = {"src/gadget/gadget.hpp:21"};
  EXPECT_EQ(fire_unused_api(files), expected);
}

TEST(Lint, UnusedApiIgnoresABareMentionOfAMember) {
  // critical_rate and seed are named only as fields and a local, and
  // counted only through a pointer into another class: none of the three
  // member functions is used. sampled is called and pointed is taken by
  // &Sensor::pointed.
  const std::vector<std::string> expected = {"src/sensor/sensor.hpp:20",
                                             "src/sensor/sensor.hpp:21",
                                             "src/sensor/sensor.hpp:24"};
  EXPECT_EQ(fire_unused_api(member_uses_tree()), expected);
}

TEST(Lint, UnusedApiCountsAMemberCallOrAPointerToItsOwnClass) {
  std::vector<SourceFile> files = member_uses_tree();
  files.push_back({"examples/caller.cpp",
                   "int f(const sensor::Sensor& s) {\n"
                   "  auto counter = &sensor::Sensor::counted;\n"
                   "  return s.critical_rate(1) + s.seed() + counter();\n"
                   "}\n"});
  EXPECT_TRUE(fire_unused_api(files).empty());
  // A call of the wrong arity still leaves the member unused.
  files.back().content = "int f(const sensor::Sensor& s) { return s.seed(1); }\n";
  const std::vector<std::string> expected = {"src/sensor/sensor.hpp:20",
                                             "src/sensor/sensor.hpp:21",
                                             "src/sensor/sensor.hpp:24"};
  EXPECT_EQ(fire_unused_api(files), expected);
}

TEST(Lint, UnusedApiReadsNoFunctionInAFunctionPointerField) {
  // `void (*refill)(…)` is a data member, not a function named `void`.
  const std::vector<SourceFile> files = {
      {"src/kernels.hpp",
       "#pragma once\n"
       "struct Kernels {\n"
       "  void (*refill)(double* out, int n, int stride);\n"
       "  void (&convert)(const double* in, double* out);\n"
       "};\n"}};
  EXPECT_TRUE(fire_unused_api(files).empty());
}

TEST(Lint, UnsetOptionFiresOnAFieldNoShippedCallerAssigns) {
  // Assignments, a member chain, a designated initializer and a pointer to
  // member set fields; a comparison and a test-only assignment do not.
  // Static members, member functions and non-*Options structs are not
  // checked.
  const std::vector<std::string> expected = {"src/knobs/knobs.hpp:16",
                                             "src/knobs/knobs.hpp:20"};
  EXPECT_EQ(fire_unset_option(unset_option_tree()), expected);
  EXPECT_TRUE(fire_unused_api(unset_option_tree()).empty());
}

TEST(Lint, UnsetOptionSuppressionNamesTheRule) {
  std::vector<SourceFile> files = unset_option_tree();
  std::string& header = files[0].content;
  const std::size_t at = header.find("lint:allow(unset-option)");
  ASSERT_NE(at, std::string::npos);
  header.replace(at, 24, "lint:allow(unused-api)");
  const std::vector<std::string> expected = {"src/knobs/knobs.hpp:16",
                                             "src/knobs/knobs.hpp:18",
                                             "src/knobs/knobs.hpp:20"};
  EXPECT_EQ(fire_unset_option(files), expected);
}

TEST(Lint, TokensInCommentsAndStringsNeverFire) {
  const std::string content =
      "#pragma once\n"
      "// std::mutex std::random_device float std::time( in prose\n"
      "inline const char* kDoc = \"std::rand() /dev/urandom float\";\n"
      "/* using namespace std; std::chrono::system_clock */\n";
  EXPECT_TRUE(fire("src/core/doc.hpp", content).empty());
}

TEST(Lint, RulesTableIsCompleteAndQueriable) {
  const std::set<std::string> expected = {
      "wall-clock",        "ambient-entropy",        "float-type",
      "unordered-iter",    "header-pragma-once",     "using-namespace-header",
      "raw-mutex",         "number-parse",           "unused-api",
      "unset-option",      "allow-syntax",
  };
  std::set<std::string> listed;
  for (const RuleInfo& rule : rules()) {
    EXPECT_FALSE(rule.summary.empty()) << rule.id;
    EXPECT_TRUE(is_known_rule(rule.id));
    listed.insert(rule.id);
  }
  EXPECT_EQ(listed, expected);
  EXPECT_FALSE(is_known_rule("not-a-rule"));
}

// Mutation-style completeness: every rule the engine advertises is proven
// able to fire by at least one fixture. A new rule added without a planted
// fixture fails here.
TEST(Lint, EveryAdvertisedRuleFiresOnSomeFixture) {
  const std::vector<std::pair<std::string, std::string>> runs = {
      {"src/engine/wall_clock.cpp", "wall_clock.cpp"},
      {"src/core/ambient_entropy.cpp", "ambient_entropy.cpp"},
      {"src/core/float_type.cpp", "float_type.cpp"},
      {"src/markov/unordered_iter.cpp", "unordered_iter.cpp"},
      {"src/common/header_pragma_once.hpp", "header_pragma_once.hpp"},
      {"src/core/using_namespace.hpp", "using_namespace.hpp"},
      {"src/engine/raw_mutex.cpp", "raw_mutex.cpp"},
      {"src/model/number_parse.cpp", "number_parse.cpp"},
      {"tools/allow_syntax.cpp", "allow_syntax.cpp"},
  };
  std::set<std::string> fired;
  for (const auto& [policy_path, fixture] : runs)
    for (const auto& [rule, line] : fire_fixture(policy_path, fixture))
      fired.insert(rule);
  for (const Violation& v : lint_unused_api(unused_api_tree()))
    fired.insert(v.rule);
  for (const Violation& v : lint_unset_option(unset_option_tree()))
    fired.insert(v.rule);
  std::set<std::string> advertised;
  for (const RuleInfo& rule : rules()) advertised.insert(rule.id);
  EXPECT_EQ(fired, advertised);
}

TEST(Lint, LintContentIsDeterministic) {
  const std::string content = read_fixture("unordered_iter.cpp");
  const Fired first = fire("src/a.cpp", content);
  const Fired second = fire("src/a.cpp", content);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

}  // namespace
}  // namespace streamflow::lint
