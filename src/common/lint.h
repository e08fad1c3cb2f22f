// sgcl_lint: in-repo static analyzer enforcing project invariants that
// no compiler checks. A discarded Status/Result is the compiler's job:
// both are [[nodiscard]] and the build adds -Werror=unused-result. Two
// passes share one engine (DESIGN.md §9): a line pass over
// comment/string-scrubbed lines for the classic rules R2-R7, and a flow
// pass over a real token stream with scope tracking and a per-function
// symbol table for the thread-safety rules R8-R10, which understand the
// capability annotations in common/thread_annotations.h.
//
// Rules:
//   sgcl-R2  determinism: bans rand()/srand(), std::random_device,
//            time(nullptr)-style seeding, and std::chrono::system_clock
//            outside src/common/rng.* (allowlist covers legitimate
//            wall-clock timestamps in telemetry/logging).
//   sgcl-R3  no side effects inside SGCL_CHECK*/SGCL_DCHECK/assert
//            arguments (++/--, assignment, mutating-method heuristics):
//            checks compile out or short-circuit, so effects inside them
//            change behavior between build modes.
//   sgcl-R4  header hygiene: include-guard name must be derived from the
//            file path (src/common/lint.h -> SGCL_COMMON_LINT_H_), and
//            no `using namespace` at namespace scope in headers.
//   sgcl-R5  no naked new/delete outside the allowlist (intentionally
//            leaked singletons carry inline NOLINT suppressions).
//   sgcl-R6  crash consistency: checkpoint-path sources (any src/ or
//            tools/ file whose name contains "checkpoint" or
//            "train_state") must not write files with raw primitives
//            (std::ofstream, fopen, fwrite) — persistence goes through
//            AtomicWriteFile (common/io.h) so a crash can never publish
//            a torn checkpoint. Tests are exempt: they craft torn files
//            on purpose.
//   sgcl-R7  serving purity: src/serve/ sources must not do blocking
//            file I/O or load checkpoints/datasets (std::[io]fstream,
//            fopen/fread/fwrite, LoadCheckpoint, LoadDataset,
//            ParseJsonFile, ...). The serving hot path works only on
//            models the CLI loaded before Start; a disk access inside a
//            request handler or the dispatch thread stalls every
//            in-flight request behind it.
//   sgcl-R8  guarded-member discipline: a member annotated
//            SGCL_GUARDED_BY(mu) is read or written in a method that
//            neither holds a std::lock_guard / std::unique_lock /
//            std::scoped_lock on `mu` in an enclosing scope nor is
//            annotated SGCL_REQUIRES(mu). Constructors/destructors are
//            exempt (no concurrent access during construction), and an
//            atomic guarded member accessed with an explicit
//            std::memory_order argument is accepted (documented-relaxed
//            escape hatch).
//   sgcl-R9  lock-order deadlocks: the repo-wide mutex acquisition
//            graph (an edge A -> B whenever B is acquired while A is
//            held) must be acyclic. Every acquisition edge on a cycle
//            is reported at its site. A NOLINT(sgcl-R9) on the
//            acquisition line removes that edge from the graph (the
//            ordering has been vetted by a human).
//   sgcl-R10 atomics hygiene in hot-path files: atomic load()/store()
//            without an explicit memory-order argument (the implicit
//            seq_cst is almost never what a hot path wants — and when
//            it is, it should say so), and any `volatile` (volatile is
//            not a synchronization primitive).
//
// Suppression: `// NOLINT(sgcl-RN)` on the offending line or
// `// NOLINTNEXTLINE(sgcl-RN)` on the line above; a bare `// NOLINT`
// suppresses every rule on that line. The allowlist file
// (tools/sgcl_lint_allowlist.txt) grants whole-file exemptions per rule
// with a recorded reason. Suppressions that no longer suppress anything
// are themselves reported (rule sgcl-nolint) under
// --report-stale-nolint.
#ifndef SGCL_COMMON_LINT_H_
#define SGCL_COMMON_LINT_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace sgcl::lint {

enum class Severity { kWarning, kError };

struct Finding {
  std::string file;  // repo-relative path as given to AddFile
  int line = 0;      // 1-based
  std::string rule;  // "sgcl-R2" .. "sgcl-R10", or "sgcl-nolint"
  Severity severity = Severity::kError;
  std::string message;
};

// Whole-file exemption: rule "*" exempts the file from every rule.
// `line` is the entry's line in the allowlist file (0 when constructed
// programmatically) — used to point stale-entry reports at the entry.
struct AllowEntry {
  std::string file;
  std::string rule;
  int line = 0;
};

struct LintOptions {
  std::vector<AllowEntry> allow;
  // Path the allow entries were loaded from (stale-entry reports point
  // here); empty when the allowlist was built programmatically.
  std::string allowlist_path;
  // Report NOLINT comments and allowlist entries that suppress nothing
  // (rule sgcl-nolint, warning).
  bool report_stale_nolint = false;
};

// Parses an allowlist file. Format, one entry per line:
//   <repo-relative-path>:<rule>   # reason
// Blank lines and lines starting with '#' are ignored. The reason
// comment is mandatory so every exemption is documented.
Result<LintOptions> LoadAllowlist(const std::string& path);

// ---- Tokenizer (flow pass, exposed for tests) ------------------------

enum class TokenKind {
  kIdentifier,  // identifiers and keywords
  kNumber,      // pp-number (incl. digit separators, suffixes)
  kString,      // string literal, raw or plain, lexeme includes quotes
  kChar,        // character literal
  kPunct,       // operator/punctuator ("::", "->", single chars, ...)
  kDirective,   // one whole preprocessor line ("#include <x>", ...)
};

struct Token {
  TokenKind kind = TokenKind::kPunct;
  std::string text;
  int line = 0;  // 1-based line of the token's first character
  int col = 0;   // 0-based byte offset in that line
};

// Lexes C++ source: comments are skipped; string/char literals
// (including raw strings and encoding prefixes) become single tokens; a
// preprocessor directive (with backslash continuations) becomes one
// kDirective token. Never fails: unexpected bytes lex as one-char
// kPunct tokens.
std::vector<Token> Tokenize(const std::string& content);

// ---- Declaration tables (flow pass, phase 1) -------------------------

// Per-file declarations the flow rules need repo-wide: annotated
// guarded members, SGCL_REQUIRES methods, and mutex/atomic members per
// class.
struct FileDecls {
  struct GuardedMember {
    std::string class_name;
    std::string member;
    std::string mutex;  // guard expression, verbatim ("mu_")
    bool atomic = false;
  };
  struct RequiresMethod {
    std::string class_name;
    std::string method;
    std::vector<std::string> mutexes;
  };
  std::vector<GuardedMember> guarded_members;
  std::vector<RequiresMethod> requires_methods;
  std::vector<std::string> mutex_members;   // "Class::member"
  std::vector<std::string> atomic_members;  // "Class::member"
};

FileDecls ExtractDecls(const std::string& content);

// ---- Orchestration ---------------------------------------------------

// Two-phase analyzer: AddFile every source, then Run extracts each
// file's declarations (guarded members and REQUIRES methods for
// sgcl-R8/R9) into repo-wide tables, lints every file against them, and
// closes the repo-wide acquisition graph. Both phases fan out over the
// shared thread pool into per-file slots, so the findings — ordered by
// (file, line, rule) — are identical for every pool size and every
// AddFile order.
class Linter {
 public:
  explicit Linter(LintOptions options);

  void AddFile(std::string path, std::string content);

  std::vector<Finding> Run() const;

 private:
  struct FileEntry {
    std::string path;
    std::string content;
  };

  LintOptions options_;
  std::vector<FileEntry> files_;
};

// One line per finding: "path:line: severity: [rule] message".
std::string FormatText(const std::vector<Finding>& findings);

// Deterministic JSON report: {"count":N,"findings":[...]} with findings
// in the same (file, line, rule) order as FormatText. Parseable by
// common/json (tests round-trip it).
std::string FormatJson(const std::vector<Finding>& findings);

// The include guard mandated for a header at `path` (repo-relative):
// strip a leading "src/", prefix "SGCL_", uppercase, map non-alnum to
// '_', append a trailing '_'.
std::string ExpectedIncludeGuard(const std::string& path);

}  // namespace sgcl::lint

#endif  // SGCL_COMMON_LINT_H_
