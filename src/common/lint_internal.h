// Internals shared between the lint engine's two translation units:
// lint.cc (line pass, suppressions, orchestration) and lint_flow.cc
// (tokenizer, declaration tables, flow pass). Not part of the public
// API — include common/lint.h instead.
#ifndef SGCL_COMMON_LINT_INTERNAL_H_
#define SGCL_COMMON_LINT_INTERNAL_H_

#include <string>
#include <utility>
#include <vector>

#include "common/lint.h"

namespace sgcl::lint::internal {

// Splits `content` into lines and blanks out comments, string literals
// (including raw strings), and char literals, preserving line structure
// and length so column-free line reporting stays accurate. `raw` gets
// the untouched lines (NOLINT directives live inside comments).
// `comment_cols`, when non-null, receives per line the column where a
// trailing // comment starts, or -1 when the line has none — the
// stale-NOLINT check uses it to tell a real suppression comment from
// prose that merely mentions NOLINT.
void ScrubLines(const std::string& content, std::vector<std::string>* raw,
                std::vector<std::string>* scrubbed,
                std::vector<int>* comment_cols);

// Merged view over every file's declarations. Classes are keyed by
// unqualified name (namespace collisions are accepted — the repo has
// none — and documented in DESIGN.md §9).
struct GlobalTables {
  std::vector<FileDecls::GuardedMember> guarded_members; // sorted
  std::vector<FileDecls::RequiresMethod> requires_methods;
  std::vector<std::string> mutex_members;                // sorted unique
  std::vector<std::string> atomic_members;               // sorted unique
};

GlobalTables BuildTables(const std::vector<FileDecls>& decls);

// One mutex-acquisition-order edge: `to` was acquired while `from` was
// held, at file:line.
struct LockEdge {
  std::string from;
  std::string to;
  std::string file;
  int line = 0;
};

// A NOLINT comment that suppressed nothing (candidate sgcl-nolint).
struct StaleNolint {
  int line = 0;         // line of the comment
  std::string rules;    // its category list as written ("sgcl-R5"), or "*"
};

struct FileAnalysis {
  std::vector<Finding> findings;  // post-suppression; excludes R9 cycles
  std::vector<LockEdge> edges;    // post-suppression acquisition edges
  std::vector<StaleNolint> stale_nolints;
  // Allowlist entries that actually suppressed a finding in this file.
  std::vector<std::pair<std::string, std::string>> used_allow;
};

// Runs both passes over one file against the repo-wide declaration
// tables. Thread safe and deterministic: Linter::Run analyzes files
// concurrently and merges them in path order.
FileAnalysis AnalyzeFile(const std::string& path, const std::string& content,
                         const GlobalTables& tables,
                         const LintOptions& options);

// sgcl-R9: finds cycles in the repo-wide acquisition graph and reports
// every edge on a cycle at its site. Deterministic (sorted output).
std::vector<Finding> LockCycleFindings(const std::vector<LockEdge>& edges);

// Folds per-file analyses (paths[i] described by analyses[i]) into the
// final report: per-file findings, stale NOLINT comments, sgcl-R9
// cycles over the merged acquisition graph, and stale allowlist
// entries. Order-insensitive input, sorted output.
std::vector<Finding> MergeAnalyses(const std::vector<std::string>& paths,
                                   const std::vector<FileAnalysis>& analyses,
                                   const LintOptions& options);

// Pre-suppression output of the flow pass over one file.
struct FlowResult {
  std::vector<Finding> findings;  // sgcl-R8 and sgcl-R10
  std::vector<LockEdge> edges;    // raw acquisition edges for sgcl-R9
};

FlowResult RunFlowPass(const std::string& path,
                       const std::vector<Token>& tokens,
                       const GlobalTables& tables);

// Files where sgcl-R10 (atomics hygiene) applies: the serving layer,
// the streaming data plane, and the concurrent common/ primitives.
bool IsHotPathFile(const std::string& path);

}  // namespace sgcl::lint::internal

#endif  // SGCL_COMMON_LINT_INTERNAL_H_
