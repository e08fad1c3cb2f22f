// Flow-pass engine tests: tokenizer goldens, declaration extraction,
// and positive + negative fixtures for the thread-safety rules
// sgcl-R8 (guarded members), sgcl-R9 (lock-order cycles, including the
// seeded cross-file cycle), and sgcl-R10 (atomics hygiene), plus
// stale-NOLINT reporting.
#include <algorithm>
#include <string>
#include <vector>

#include "common/lint.h"
#include "gtest/gtest.h"

namespace sgcl::lint {
namespace {

std::vector<Finding> LintFiles(
    const std::vector<std::pair<std::string, std::string>>& files,
    LintOptions options = {}) {
  Linter linter(std::move(options));
  for (const auto& [path, content] : files) linter.AddFile(path, content);
  return linter.Run();
}

int CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

// ---- tokenizer -------------------------------------------------------

TEST(TokenizerTest, BasicsCommentsAndLiterals) {
  const std::string src =
      "int x = 42;  // trailing comment\n"
      "/* block\n   comment */ std::string s = \"hi \\\" there\";\n"
      "char c = 'a';\n";
  const std::vector<Token> toks = Tokenize(src);
  std::vector<std::string> texts;
  for (const Token& t : toks) texts.push_back(t.text);
  const std::vector<std::string> expected = {
      "int", "x",  "=", "42", ";",    "std", "::",  "string", "s",
      "=",   "\"hi \\\" there\"",     ";",   "char", "c", "=", "'a'", ";"};
  EXPECT_EQ(texts, expected);
  // Line numbers survive the multi-line block comment.
  EXPECT_EQ(toks[5].text, "std");
  EXPECT_EQ(toks[5].line, 3);
}

TEST(TokenizerTest, RawStringsBecomeOneToken) {
  const std::string src =
      "auto s = R\"(no \"escape\" needed)\";\n"
      "auto t = R\"x(nested )\" close)x\"; int after = 1;\n";
  const std::vector<Token> toks = Tokenize(src);
  int strings = 0;
  for (const Token& t : toks) {
    if (t.kind == TokenKind::kString) {
      ++strings;
      EXPECT_EQ(t.text.rfind("R\"", 0), 0u);
    }
  }
  EXPECT_EQ(strings, 2);
  // Lexing resumes correctly after the custom-delimiter raw string.
  EXPECT_NE(std::find_if(toks.begin(), toks.end(),
                         [](const Token& t) { return t.text == "after"; }),
            toks.end());
}

TEST(TokenizerTest, NestedTemplatesCloseWithTwoTokens) {
  const std::vector<Token> toks =
      Tokenize("std::vector<std::pair<int, long>> v;");
  int closes = 0;
  for (const Token& t : toks) {
    if (t.text == ">") ++closes;
    EXPECT_NE(t.text, ">>");  // never lexed as a shift
  }
  EXPECT_EQ(closes, 2);
}

TEST(TokenizerTest, DirectivesAreSingleTokens) {
  const std::vector<Token> toks = Tokenize(
      "#include <mutex>\n"
      "#define TWO_LINES(a) \\\n  (a + 1)\n"
      "int x;\n");
  ASSERT_GE(toks.size(), 3u);
  EXPECT_EQ(toks[0].kind, TokenKind::kDirective);
  EXPECT_EQ(toks[0].text, "#include <mutex>");
  EXPECT_EQ(toks[1].kind, TokenKind::kDirective);
  EXPECT_NE(toks[1].text.find("(a + 1)"), std::string::npos);
  EXPECT_EQ(toks[2].text, "int");
  EXPECT_EQ(toks[2].line, 4);
}

TEST(TokenizerTest, NumbersWithSeparatorsAndSuffixes) {
  const std::vector<Token> toks = Tokenize("x = 1'000'000; y = 0xFFull;");
  EXPECT_EQ(toks[2].kind, TokenKind::kNumber);
  EXPECT_EQ(toks[2].text, "1'000'000");
  EXPECT_EQ(toks[6].text, "0xFFull");
}

// ---- declaration extraction ------------------------------------------

constexpr char kAnnotatedClass[] = R"cc(
#include "common/thread_annotations.h"
class Board {
 public:
  void Publish(int v);
  int ReadLocked() const SGCL_REQUIRES(mu_);
 private:
  mutable std::mutex mu_;
  int value_ SGCL_GUARDED_BY(mu_) = 0;
  std::atomic<long> hits_ SGCL_GUARDED_BY(mu_){0};
  std::atomic<bool> on_{false};
};
)cc";

TEST(ExtractDeclsTest, FindsGuardedMembersRequiresAndTypes) {
  const FileDecls d = ExtractDecls(kAnnotatedClass);
  ASSERT_EQ(d.guarded_members.size(), 2u);
  EXPECT_EQ(d.guarded_members[0].class_name, "Board");
  EXPECT_EQ(d.guarded_members[0].member, "value_");
  EXPECT_EQ(d.guarded_members[0].mutex, "mu_");
  EXPECT_FALSE(d.guarded_members[0].atomic);
  EXPECT_EQ(d.guarded_members[1].member, "hits_");
  EXPECT_TRUE(d.guarded_members[1].atomic);
  ASSERT_EQ(d.requires_methods.size(), 1u);
  EXPECT_EQ(d.requires_methods[0].method, "ReadLocked");
  EXPECT_EQ(d.requires_methods[0].mutexes,
            std::vector<std::string>{"mu_"});
  EXPECT_EQ(d.mutex_members, std::vector<std::string>{"Board::mu_"});
  ASSERT_EQ(d.atomic_members.size(), 2u);
  EXPECT_EQ(d.atomic_members[0], "Board::hits_");
  EXPECT_EQ(d.atomic_members[1], "Board::on_");
}

// ---- sgcl-R8 ---------------------------------------------------------

constexpr char kR8Header[] = R"cc(
class Counter {
 public:
  void Add(int v);
  void Bad(int v);
  int GetLocked() const SGCL_REQUIRES(mu_);
 private:
  mutable std::mutex mu_;
  int total_ SGCL_GUARDED_BY(mu_) = 0;
};
)cc";

TEST(LintR8Test, UnlockedAccessIsFlagged) {
  const std::vector<Finding> findings = LintFiles(
      {{"src/core/counter.h", kR8Header},
       {"src/core/counter.cc",
        "void Counter::Add(int v) {\n"
        "  std::lock_guard<std::mutex> lock(mu_);\n"
        "  total_ += v;\n"
        "}\n"
        "void Counter::Bad(int v) { total_ += v; }\n"
        "int Counter::GetLocked() const { return total_; }\n"}});
  ASSERT_EQ(CountRule(findings, "sgcl-R8"), 1);
  const auto it = std::find_if(
      findings.begin(), findings.end(),
      [](const Finding& f) { return f.rule == "sgcl-R8"; });
  EXPECT_EQ(it->file, "src/core/counter.cc");
  EXPECT_EQ(it->line, 5);
  EXPECT_NE(it->message.find("total_"), std::string::npos);
  EXPECT_NE(it->message.find("Counter::mu_"), std::string::npos);
}

TEST(LintR8Test, UniqueLockAndScopedLockCount) {
  const std::vector<Finding> findings = LintFiles(
      {{"src/core/counter.h", kR8Header},
       {"src/core/counter.cc",
        "void Counter::Add(int v) {\n"
        "  std::unique_lock<std::mutex> lock(mu_);\n"
        "  total_ += v;\n"
        "}\n"
        "void Counter::Bad(int v) {\n"
        "  std::scoped_lock lock(mu_);\n"
        "  total_ += v;\n"
        "}\n"}});
  EXPECT_EQ(CountRule(findings, "sgcl-R8"), 0);
}

TEST(LintR8Test, LockScopeEndsAtBrace) {
  const std::vector<Finding> findings = LintFiles(
      {{"src/core/counter.h", kR8Header},
       {"src/core/counter.cc",
        "void Counter::Add(int v) {\n"
        "  {\n"
        "    std::lock_guard<std::mutex> lock(mu_);\n"
        "    total_ += v;\n"
        "  }\n"
        "  total_ += v;\n"
        "}\n"}});
  ASSERT_EQ(CountRule(findings, "sgcl-R8"), 1);
  const auto it = std::find_if(
      findings.begin(), findings.end(),
      [](const Finding& f) { return f.rule == "sgcl-R8"; });
  EXPECT_EQ(it->line, 6);
}

TEST(LintR8Test, RequiresAnnotationSatisfies) {
  // Both the out-of-line definition of a REQUIRES-declared method and
  // an inline-annotated definition hold the capability on entry.
  const std::vector<Finding> findings = LintFiles(
      {{"src/core/counter.h", kR8Header},
       {"src/core/counter.cc",
        "int Counter::GetLocked() const { return total_; }\n"}});
  EXPECT_EQ(CountRule(findings, "sgcl-R8"), 0);
}

TEST(LintR8Test, ConstructorsAreExempt) {
  const std::vector<Finding> findings = LintFiles(
      {{"src/core/counter.h", kR8Header},
       {"src/core/counter.cc",
        "Counter::Counter() { total_ = 0; }\n"
        "Counter::~Counter() { total_ = -1; }\n"}});
  EXPECT_EQ(CountRule(findings, "sgcl-R8"), 0);
}

TEST(LintR8Test, AtomicWithExplicitOrderEscapes) {
  const char* header =
      "class Flag {\n"
      " public:\n"
      "  void Raise();\n"
      "  bool Peek() const;\n"
      " private:\n"
      "  mutable std::mutex mu_;\n"
      "  std::atomic<bool> set_ SGCL_GUARDED_BY(mu_){false};\n"
      "};\n";
  const std::vector<Finding> ok = LintFiles(
      {{"src/core/flag.h", header},
       {"src/core/flag.cc",
        "bool Flag::Peek() const {\n"
        "  return set_.load(std::memory_order_relaxed);\n"
        "}\n"}});
  EXPECT_EQ(CountRule(ok, "sgcl-R8"), 0);
  const std::vector<Finding> bad = LintFiles(
      {{"src/core/flag.h", header},
       {"src/core/flag.cc",
        "bool Flag::Peek() const { return set_.load(); }\n"}});
  EXPECT_EQ(CountRule(bad, "sgcl-R8"), 1);
}

TEST(LintR8Test, OtherClassesAndObjectsAreNotConfused) {
  // A same-named member of another class, and access through a
  // different object, must not be flagged.
  const std::vector<Finding> findings = LintFiles(
      {{"src/core/counter.h", kR8Header},
       {"src/core/other.cc",
        "class Other {\n"
        " public:\n"
        "  int total_ = 0;\n"
        "  void Bump() { total_++; }\n"
        "};\n"
        "int Probe(const Counter& c, Other& o) {\n"
        "  o.total_ = 3;\n"
        "  return o.total_;\n"
        "}\n"}});
  EXPECT_EQ(CountRule(findings, "sgcl-R8"), 0);
}

TEST(LintR8Test, NolintSuppresses) {
  const std::vector<Finding> findings = LintFiles(
      {{"src/core/counter.h", kR8Header},
       {"src/core/counter.cc",
        "void Counter::Bad(int v) {\n"
        "  total_ += v;  // NOLINT(sgcl-R8): benign init-order write\n"
        "}\n"}});
  EXPECT_EQ(CountRule(findings, "sgcl-R8"), 0);
}

// ---- sgcl-R9 ---------------------------------------------------------

constexpr char kTwoMutexHeader[] = R"cc(
class Pair {
 public:
  void AB();
  void BA();
 private:
  std::mutex a_;
  std::mutex b_;
};
)cc";

TEST(LintR9Test, SeededCrossFileCycleIsCaught) {
  // The acceptance-criteria fixture: file 1 locks a_ then b_, file 2
  // locks b_ then a_ — a classic lock-order deadlock, visible only by
  // merging acquisition edges across files.
  const std::vector<Finding> findings = LintFiles(
      {{"src/core/pair.h", kTwoMutexHeader},
       {"src/core/pair_ab.cc",
        "void Pair::AB() {\n"
        "  std::lock_guard<std::mutex> la(a_);\n"
        "  std::lock_guard<std::mutex> lb(b_);\n"
        "}\n"},
       {"src/core/pair_ba.cc",
        "void Pair::BA() {\n"
        "  std::lock_guard<std::mutex> lb(b_);\n"
        "  std::lock_guard<std::mutex> la(a_);\n"
        "}\n"}});
  ASSERT_EQ(CountRule(findings, "sgcl-R9"), 2);
  for (const Finding& f : findings) {
    if (f.rule != "sgcl-R9") continue;
    EXPECT_EQ(f.severity, Severity::kError);
    EXPECT_NE(f.message.find("lock-order cycle"), std::string::npos);
    EXPECT_NE(f.message.find("Pair::a_"), std::string::npos);
    EXPECT_NE(f.message.find("Pair::b_"), std::string::npos);
  }
}

TEST(LintR9Test, ConsistentOrderIsClean) {
  const std::vector<Finding> findings = LintFiles(
      {{"src/core/pair.h", kTwoMutexHeader},
       {"src/core/pair_ab.cc",
        "void Pair::AB() {\n"
        "  std::lock_guard<std::mutex> la(a_);\n"
        "  std::lock_guard<std::mutex> lb(b_);\n"
        "}\n"},
       {"src/core/pair_ba.cc",
        "void Pair::BA() {\n"
        "  std::lock_guard<std::mutex> la(a_);\n"
        "  std::lock_guard<std::mutex> lb(b_);\n"
        "}\n"}});
  EXPECT_EQ(CountRule(findings, "sgcl-R9"), 0);
}

TEST(LintR9Test, SequentialLocksDoNotMakeEdges) {
  // Scopes matter: a_ released before b_ is taken, so there is no
  // held-while-acquiring edge and no cycle.
  const std::vector<Finding> findings = LintFiles(
      {{"src/core/pair.h", kTwoMutexHeader},
       {"src/core/pair_ab.cc",
        "void Pair::AB() {\n"
        "  { std::lock_guard<std::mutex> la(a_); }\n"
        "  { std::lock_guard<std::mutex> lb(b_); }\n"
        "}\n"},
       {"src/core/pair_ba.cc",
        "void Pair::BA() {\n"
        "  { std::lock_guard<std::mutex> lb(b_); }\n"
        "  { std::lock_guard<std::mutex> la(a_); }\n"
        "}\n"}});
  EXPECT_EQ(CountRule(findings, "sgcl-R9"), 0);
}

TEST(LintR9Test, NolintRemovesTheEdge) {
  const std::vector<Finding> findings = LintFiles(
      {{"src/core/pair.h", kTwoMutexHeader},
       {"src/core/pair_ab.cc",
        "void Pair::AB() {\n"
        "  std::lock_guard<std::mutex> la(a_);\n"
        "  std::lock_guard<std::mutex> lb(b_);  // NOLINT(sgcl-R9): vetted\n"
        "}\n"},
       {"src/core/pair_ba.cc",
        "void Pair::BA() {\n"
        "  std::lock_guard<std::mutex> lb(b_);\n"
        "  std::lock_guard<std::mutex> la(a_);\n"
        "}\n"}});
  EXPECT_EQ(CountRule(findings, "sgcl-R9"), 0);
}

// ---- sgcl-R10 --------------------------------------------------------

TEST(LintR10Test, DefaultOrderFlaggedOnHotPathOnly) {
  const std::string src =
      "class S {\n"
      " public:\n"
      "  bool Get() const { return on_.load(); }\n"
      "  void Set(bool v) { on_.store(v); }\n"
      " private:\n"
      "  std::atomic<bool> on_{false};\n"
      "};\n";
  EXPECT_EQ(CountRule(LintFiles({{"src/serve/s.h", src}}), "sgcl-R10"), 2);
  // The same code off the hot path is not R10's business.
  EXPECT_EQ(CountRule(LintFiles({{"src/core/s.h", src}}), "sgcl-R10"), 0);
}

TEST(LintR10Test, ExplicitOrderIsClean) {
  const std::string src =
      "class S {\n"
      " public:\n"
      "  bool Get() const { return on_.load(std::memory_order_acquire); }\n"
      "  void Set(bool v) { on_.store(v, std::memory_order_release); }\n"
      " private:\n"
      "  std::atomic<bool> on_{false};\n"
      "};\n";
  EXPECT_EQ(CountRule(LintFiles({{"src/serve/s.h", src}}), "sgcl-R10"), 0);
}

TEST(LintR10Test, NonAtomicLoadStoreIgnored) {
  const std::string src =
      "struct W { void load(); void store(int); };\n"
      "class S {\n"
      " public:\n"
      "  void Go() { w_.load(); w_.store(1); }\n"
      " private:\n"
      "  W w_;\n"
      "};\n";
  EXPECT_EQ(CountRule(LintFiles({{"src/serve/w.h", src}}), "sgcl-R10"), 0);
}

TEST(LintR10Test, VolatileFlaggedOnHotPath) {
  const std::string src = "volatile int spin_flag = 0;\n";
  const std::vector<Finding> findings =
      LintFiles({{"src/serve/flag.cc", src}});
  ASSERT_EQ(CountRule(findings, "sgcl-R10"), 1);
  EXPECT_NE(findings[0].message.find("volatile"), std::string::npos);
}

// ---- stale suppressions ----------------------------------------------

TEST(StaleNolintTest, UnusedNolintReportedOnlyWhenOptedIn) {
  const std::string src =
      "int a = 1;  // NOLINT(sgcl-R5): nothing to suppress anymore\n"
      "int* p = new int;  // NOLINT(sgcl-R5)\n";
  EXPECT_EQ(CountRule(LintFiles({{"src/core/a.cc", src}}), "sgcl-nolint"),
            0);
  LintOptions options;
  options.report_stale_nolint = true;
  const std::vector<Finding> findings =
      LintFiles({{"src/core/a.cc", src}}, options);
  ASSERT_EQ(CountRule(findings, "sgcl-nolint"), 1);
  const Finding& f = findings[0];
  EXPECT_EQ(f.line, 1);
  EXPECT_EQ(f.severity, Severity::kWarning);
  EXPECT_NE(f.message.find("sgcl-R5"), std::string::npos);
}

TEST(StaleNolintTest, ProseAndStringMentionsAreNotStale) {
  // A doc comment *about* NOLINT and a string literal containing one
  // are not suppression directives gone stale.
  const std::string src =
      "// Suppress findings with NOLINT(sgcl-R5) on the line.\n"
      "const char* kFixture = \"int x;  // NOLINT(sgcl-R5)\";\n";
  LintOptions options;
  options.report_stale_nolint = true;
  EXPECT_EQ(
      CountRule(LintFiles({{"src/core/doc.cc", src}}, options), "sgcl-nolint"),
      0);
}

TEST(StaleNolintTest, NolintNextLineTracksItsTarget) {
  const std::string src =
      "// NOLINTNEXTLINE(sgcl-R5)\n"
      "int* p = new int;\n"
      "// NOLINTNEXTLINE(sgcl-R5)\n"
      "int q = 0;\n";
  LintOptions options;
  options.report_stale_nolint = true;
  const std::vector<Finding> findings =
      LintFiles({{"src/core/b.cc", src}}, options);
  ASSERT_EQ(CountRule(findings, "sgcl-nolint"), 1);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(StaleNolintTest, StaleAllowlistEntryReported) {
  LintOptions options;
  options.report_stale_nolint = true;
  options.allowlist_path = "tools/test_allowlist.txt";
  options.allow.push_back({"src/core/used.cc", "sgcl-R5", 3});
  options.allow.push_back({"src/core/gone.cc", "sgcl-R2", 7});
  const std::vector<Finding> findings =
      LintFiles({{"src/core/used.cc", "int* p = new int;\n"}}, options);
  ASSERT_EQ(CountRule(findings, "sgcl-nolint"), 1);
  const Finding& f = findings[0];
  EXPECT_EQ(f.file, "tools/test_allowlist.txt");
  EXPECT_EQ(f.line, 7);
  EXPECT_NE(f.message.find("src/core/gone.cc:sgcl-R2"), std::string::npos);
}

}  // namespace
}  // namespace sgcl::lint
