// Fixture tests for the sgcl_lint rule engine (common/lint.h): every
// rule has at least one snippet where it fires and one where it must
// not, so rules are regression-tested like any other subsystem.
#include "common/lint.h"

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/parallel.h"
#include "gtest/gtest.h"

namespace sgcl::lint {
namespace {

std::vector<Finding> LintSnippet(const std::string& path,
                                 const std::string& content,
                                 LintOptions options = {}) {
  Linter linter(std::move(options));
  linter.AddFile(path, content);
  return linter.Run();
}

std::vector<std::string> Rules(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  rules.reserve(findings.size());
  for (const Finding& f : findings) rules.push_back(f.rule);
  return rules;
}

// ---- sgcl-R2: determinism --------------------------------------------

constexpr char kR2Fires[] = R"(
void Seeds() {
  int a = rand();
  srand(42);
  std::random_device rd;
  uint64_t s = static_cast<uint64_t>(time(nullptr));
  auto t = std::chrono::system_clock::now();
}
)";

constexpr char kR2Clean[] = R"(
void Seeds() {
  Rng rng(42);
  auto t0 = std::chrono::steady_clock::now();
  int grand_total = my_rand(7);  // identifiers merely containing 'rand'
  double time_delta = time_offset(3);
}
)";

TEST(LintR2Test, FiresOnEveryNondeterminismSource) {
  const auto findings = LintSnippet("src/core/b.cc", kR2Fires);
  ASSERT_EQ(findings.size(), 5u);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "sgcl-R2");
    EXPECT_EQ(f.severity, Severity::kError);
  }
}

TEST(LintR2Test, SilentOnSeededRngAndSteadyClock) {
  EXPECT_TRUE(LintSnippet("src/core/b.cc", kR2Clean).empty());
}

TEST(LintR2Test, RngImplementationIsExemptByPath) {
  EXPECT_TRUE(LintSnippet("src/common/rng.cc", kR2Fires).empty());
}

TEST(LintR2Test, CommentsAndStringsDoNotFire) {
  constexpr char kSnippet[] =
      "// rand() in a comment\n"
      "const char* s = \"std::random_device\";\n"
      "/* time(nullptr) */\n";
  EXPECT_TRUE(LintSnippet("src/core/b.cc", kSnippet).empty());
}

// ---- sgcl-R3: side effects in checks ---------------------------------

constexpr char kR3Fires[] = R"(
void F(std::vector<int>* v, int i) {
  SGCL_CHECK(i++ < 3);
  SGCL_CHECK_EQ(i += 1, 2);
  SGCL_DCHECK(v->empty() || (i = 0));
  assert(v->size() > 0 && v->pop_back());
}
)";

constexpr char kR3Clean[] = R"(
void F(const std::vector<int>& v, int i) {
  SGCL_CHECK(i < 3);
  SGCL_CHECK_EQ(v.size(), 2u);
  SGCL_CHECK_GE(i, -1);
  SGCL_DCHECK(v.empty() == false);
  assert(i <= 3 && i >= 0);
  SGCL_CHECK(2 >= 1);
}
)";

TEST(LintR3Test, FiresOnSideEffectsInsideChecks) {
  const auto findings = LintSnippet("src/core/c.cc", kR3Fires);
  ASSERT_EQ(findings.size(), 4u);
  for (const Finding& f : findings) EXPECT_EQ(f.rule, "sgcl-R3");
  EXPECT_NE(findings[0].message.find("increment"), std::string::npos);
  EXPECT_NE(findings[3].message.find("pop_back"), std::string::npos);
}

TEST(LintR3Test, SilentOnPureComparisons) {
  EXPECT_TRUE(LintSnippet("src/core/c.cc", kR3Clean).empty());
}

TEST(LintR3Test, HandlesMultiLineArguments) {
  constexpr char kSnippet[] = R"(
void F(int i) {
  SGCL_CHECK(i <
             (i = 7));
}
)";
  const auto findings = LintSnippet("src/core/c.cc", kSnippet);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "sgcl-R3");
  EXPECT_EQ(findings[0].line, 3);
}

// ---- sgcl-R4: header hygiene -----------------------------------------

TEST(LintR4Test, ExpectedGuardDerivesFromPath) {
  EXPECT_EQ(ExpectedIncludeGuard("src/common/lint.h"),
            "SGCL_COMMON_LINT_H_");
  EXPECT_EQ(ExpectedIncludeGuard("tests/test_util.h"),
            "SGCL_TESTS_TEST_UTIL_H_");
  EXPECT_EQ(ExpectedIncludeGuard("src/nn/gat_conv.h"),
            "SGCL_NN_GAT_CONV_H_");
}

TEST(LintR4Test, FiresOnWrongGuardName) {
  const auto findings = LintSnippet(
      "src/common/d.h", "#ifndef WRONG_H_\n#define WRONG_H_\n#endif\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "sgcl-R4");
  EXPECT_NE(findings[0].message.find("SGCL_COMMON_D_H_"), std::string::npos);
}

TEST(LintR4Test, FiresOnMissingGuardAndMismatchedDefine) {
  EXPECT_EQ(Rules(LintSnippet("src/common/d.h", "int x;\n")),
            std::vector<std::string>{"sgcl-R4"});
  const auto findings = LintSnippet(
      "src/common/d.h",
      "#ifndef SGCL_COMMON_D_H_\n#define OTHER_H_\n#endif\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("matching #define"), std::string::npos);
}

TEST(LintR4Test, FiresOnUsingNamespaceInHeader) {
  const auto findings = LintSnippet(
      "src/common/d.h",
      "#ifndef SGCL_COMMON_D_H_\n#define SGCL_COMMON_D_H_\n"
      "using namespace std;\n#endif\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "sgcl-R4");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LintR4Test, SilentOnConformingHeaderAndOnSourceFiles) {
  EXPECT_TRUE(LintSnippet("src/common/d.h",
                          "#ifndef SGCL_COMMON_D_H_\n"
                          "#define SGCL_COMMON_D_H_\n#endif\n")
                  .empty());
  // .cc files are exempt from R4 entirely.
  EXPECT_TRUE(
      LintSnippet("src/common/d.cc", "using namespace std;\n").empty());
}

// ---- sgcl-R5: naked new/delete ---------------------------------------

constexpr char kR5Fires[] = R"(
void F() {
  int* p = new int(3);
  delete p;
  auto* a = new int[4];
  delete[] a;
}
)";

constexpr char kR5Clean[] = R"(
struct T {
  T(const T&) = delete;
  T& operator=(const T&) = delete;
};
void F() {
  auto p = std::make_unique<int>(3);
  std::vector<int> v(4);
}
)";

TEST(LintR5Test, FiresOnNakedNewAndDelete) {
  const auto findings = LintSnippet("src/core/e.cc", kR5Fires);
  ASSERT_EQ(findings.size(), 4u);
  for (const Finding& f : findings) EXPECT_EQ(f.rule, "sgcl-R5");
}

TEST(LintR5Test, SilentOnDeletedFunctionsAndSmartPointers) {
  EXPECT_TRUE(LintSnippet("src/core/e.cc", kR5Clean).empty());
}

// ---- sgcl-R6: raw writes in checkpoint paths -------------------------

constexpr char kR6Fires[] = R"(
void Save(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
}
)";

constexpr char kR6FiresCstdio[] = R"(
void Save(const char* path, const char* data, size_t n) {
  FILE* f = fopen(path, "wb");
  fwrite(data, 1, n, f);
}
)";

constexpr char kR6Clean[] = R"(
Status Save(const std::string& path, const std::string& bytes) {
  return AtomicWriteFile(path, bytes);
}
Result<std::string> Load(const std::string& path) {
  std::string bytes;
  SGCL_RETURN_NOT_OK(ReadFileToString(path, &bytes));
  return bytes;
}
)";

TEST(LintR6Test, FiresOnRawOfstreamInCheckpointSources) {
  const auto findings = LintSnippet("src/core/train_state.cc", kR6Fires);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "sgcl-R6");
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_NE(findings[0].message.find("AtomicWriteFile"), std::string::npos);
}

TEST(LintR6Test, FiresOnFopenAndFwrite) {
  const auto findings = LintSnippet("src/nn/checkpoint.cc", kR6FiresCstdio);
  ASSERT_EQ(findings.size(), 2u);
  for (const Finding& f : findings) EXPECT_EQ(f.rule, "sgcl-R6");
}

TEST(LintR6Test, SilentOnAtomicWritePathAndReads) {
  EXPECT_TRUE(LintSnippet("src/nn/checkpoint.cc", kR6Clean).empty());
}

// ---- sgcl-R7: blocking I/O in the serving layer ----------------------

constexpr char kR7Fires[] = R"(
Status Reload(const std::string& path, SgclModel* model) {
  return LoadCheckpoint(path, model);
}
)";

constexpr char kR7FiresStream[] = R"(
void Dump(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}
)";

TEST(LintR7Test, FiresOnCheckpointLoadInServeSources) {
  const auto findings = LintSnippet("src/serve/service.cc", kR7Fires);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "sgcl-R7");
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_NE(findings[0].message.find("serving layer"), std::string::npos);
  const auto model_file = LintSnippet(
      "src/serve/service.cc", "auto model = LoadModel(path);\n");
  ASSERT_EQ(model_file.size(), 1u);
  EXPECT_EQ(model_file[0].rule, "sgcl-R7");
}

TEST(LintR7Test, FiresOnRawStreamsInServeSources) {
  const auto findings = LintSnippet("src/serve/batcher.cc", kR7FiresStream);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "sgcl-R7");
}

TEST(LintR7Test, ToolsAndTestsAreOutOfScope) {
  // The CLI legitimately loads the checkpoint before handing the model
  // to the service; serve tests may read fixture files.
  EXPECT_TRUE(LintSnippet("tools/sgcl_cli.cc", kR7Fires).empty());
  EXPECT_TRUE(LintSnippet("tests/serve/service_test.cc", kR7Fires).empty());
  EXPECT_TRUE(LintSnippet("src/nn/gin_inference.cc", kR7Fires).empty());
}

TEST(LintR6Test, NonCheckpointAndTestFilesAreExempt) {
  // Same raw write elsewhere in the tree: not a checkpoint path.
  EXPECT_TRUE(LintSnippet("src/common/io.cc", kR6Fires).empty());
  // Corruption tests write torn checkpoint files on purpose.
  EXPECT_TRUE(
      LintSnippet("tests/core/train_state_test.cc", kR6Fires).empty());
}

// ---- suppression and allowlist ---------------------------------------

TEST(LintSuppressionTest, InlineNolintSilencesNamedRule) {
  constexpr char kSnippet[] =
      "void F() {\n"
      "  int* p = new int(3);  // NOLINT(sgcl-R5): pool-owned\n"
      "}\n";
  EXPECT_TRUE(LintSnippet("src/core/f.cc", kSnippet).empty());
}

TEST(LintSuppressionTest, NolintNextLineAndBareNolint) {
  constexpr char kNextLine[] =
      "void F() {\n"
      "  // NOLINTNEXTLINE(sgcl-R5)\n"
      "  int* p = new int(3);\n"
      "}\n";
  EXPECT_TRUE(LintSnippet("src/core/f.cc", kNextLine).empty());
  constexpr char kBare[] =
      "void F() {\n"
      "  int* p = new int(3);  // NOLINT\n"
      "}\n";
  EXPECT_TRUE(LintSnippet("src/core/f.cc", kBare).empty());
}

TEST(LintSuppressionTest, NolintForOtherRuleDoesNotSuppress) {
  constexpr char kSnippet[] =
      "void F() {\n"
      "  int* p = new int(3);  // NOLINT(sgcl-R2)\n"
      "}\n";
  EXPECT_EQ(Rules(LintSnippet("src/core/f.cc", kSnippet)),
            std::vector<std::string>{"sgcl-R5"});
}

TEST(LintAllowlistTest, FileRulePairExemptsOnlyThatFile) {
  LintOptions options;
  options.allow.emplace_back("src/core/g.cc", "sgcl-R5");
  constexpr char kSnippet[] = "void F() { int* p = new int(3); }\n";
  EXPECT_TRUE(LintSnippet("src/core/g.cc", kSnippet, options).empty());
  EXPECT_EQ(LintSnippet("src/core/h.cc", kSnippet, options).size(), 1u);
}

// ---- report formats --------------------------------------------------

TEST(LintReportTest, TextAndJsonAreDeterministicAndParseable) {
  Linter linter({});
  linter.AddFile("src/z.cc", "void F() { int* p = new int(1); }\n");
  linter.AddFile("src/a.cc", "void F() { int* p = new int(1); }\n");
  const auto findings = linter.Run();
  ASSERT_EQ(findings.size(), 2u);
  // Sorted by file regardless of AddFile order.
  EXPECT_EQ(findings[0].file, "src/a.cc");
  EXPECT_EQ(findings[1].file, "src/z.cc");

  const std::string text = FormatText(findings);
  EXPECT_NE(text.find("src/a.cc:1: error: [sgcl-R5]"), std::string::npos);

  // The JSON report round-trips through the in-repo parser.
  auto parsed = JsonValue::Parse(FormatJson(findings));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetDouble("count"), 2.0);
  const JsonValue* list = parsed->Find("findings");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->AsArray().size(), 2u);
  EXPECT_EQ(list->AsArray()[0].GetString("file"), "src/a.cc");
  EXPECT_EQ(list->AsArray()[0].GetString("rule"), "sgcl-R5");
  EXPECT_EQ(list->AsArray()[0].GetString("severity"), "error");

  // A multi-file tree with line-pass, flow-pass, and cross-file findings
  // reports byte-identically on one pool thread and on four.
  const std::vector<std::pair<std::string, std::string>> tree = {
      {"src/serve/flag.h",
       "#ifndef SGCL_SERVE_FLAG_H_\n#define SGCL_SERVE_FLAG_H_\n"
       "class Flag {\n"
       " public:\n"
       "  bool Get() const { return on_.load(); }\n"
       " private:\n"
       "  std::atomic<bool> on_{false};\n"
       "};\n#endif\n"},
      {"src/core/pair_ba.cc",
       "void Pair::BA() {\n"
       "  std::lock_guard<std::mutex> lb(b_);\n"
       "  std::lock_guard<std::mutex> la(a_);\n"
       "}\n"},
      {"src/core/b.cc", kR2Fires},
      {"src/core/pair.h",
       "#ifndef SGCL_CORE_PAIR_H_\n#define SGCL_CORE_PAIR_H_\n"
       "class Pair {\n"
       " public:\n"
       "  void AB();\n"
       "  void BA();\n"
       "  void Bump();\n"
       " private:\n"
       "  std::mutex a_;\n"
       "  std::mutex b_;\n"
       "  int hits_ SGCL_GUARDED_BY(a_) = 0;\n"
       "};\n#endif\n"},
      {"src/core/c.cc", kR3Fires},
      {"src/core/pair_ab.cc",
       "void Pair::AB() {\n"
       "  std::lock_guard<std::mutex> la(a_);\n"
       "  std::lock_guard<std::mutex> lb(b_);\n"
       "}\n"
       "void Pair::Bump() { ++hits_; }\n"},
      {"src/core/e.cc", kR5Fires},
  };
  const auto lint_tree = [&] {
    Linter multi({});
    for (const auto& [path, content] : tree) multi.AddFile(path, content);
    return multi.Run();
  };
  SetParallelThreads(1);
  const std::vector<Finding> serial = lint_tree();
  SetParallelThreads(4);
  const std::vector<Finding> parallel = lint_tree();
  SetParallelThreads(0);
  const std::vector<std::string> serial_rules = Rules(serial);
  const std::set<std::string> rules(serial_rules.begin(),
                                    serial_rules.end());
  for (const char* rule : {"sgcl-R2", "sgcl-R3", "sgcl-R5", "sgcl-R8",
                           "sgcl-R9", "sgcl-R10"}) {
    EXPECT_EQ(rules.count(rule), 1u) << rule;
  }
  EXPECT_EQ(FormatJson(serial), FormatJson(parallel));
}

TEST(LintReportTest, EmptyFindingsJson) {
  auto parsed = JsonValue::Parse(FormatJson({}));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetDouble("count"), 0.0);
}

}  // namespace
}  // namespace sgcl::lint
