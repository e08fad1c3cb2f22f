// Line pass, suppression handling, and orchestration of the lint
// engine. The flow pass (tokenizer, declaration tables, R8-R10) lives
// in lint_flow.cc; the split keeps each half reviewable.
#include "common/lint.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/lint_internal.h"
#include "common/metrics.h"  // JsonEscape
#include "common/parallel.h"
#include "common/string_util.h"

namespace sgcl::lint {
namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

// True when s[pos..] starts an occurrence of `ident` as a whole token.
bool TokenAt(const std::string& s, size_t pos, const std::string& ident) {
  if (s.compare(pos, ident.size(), ident) != 0) return false;
  if (pos > 0 && IsIdentChar(s[pos - 1])) return false;
  const size_t end = pos + ident.size();
  return end >= s.size() || !IsIdentChar(s[end]);
}

size_t SkipSpaces(const std::string& s, size_t pos) {
  while (pos < s.size() &&
         std::isspace(static_cast<unsigned char>(s[pos]))) {
    ++pos;
  }
  return pos;
}

}  // namespace

namespace internal {

void ScrubLines(const std::string& content, std::vector<std::string>* raw,
                std::vector<std::string>* scrubbed,
                std::vector<int>* comment_cols) {
  raw->clear();
  scrubbed->clear();
  if (comment_cols != nullptr) comment_cols->clear();
  std::vector<std::string> lines;
  {
    std::string cur;
    for (char c : content) {
      if (c == '\n') {
        lines.push_back(cur);
        cur.clear();
      } else {
        cur += c;
      }
    }
    lines.push_back(cur);
  }

  enum class State { kCode, kBlockComment, kRawString };
  State state = State::kCode;
  std::string raw_delim;  // for kRawString: the )delim" terminator
  for (const std::string& line : lines) {
    raw->push_back(line);
    int comment_col = -1;
    std::string out = line;
    size_t i = 0;
    while (i < out.size()) {
      if (state == State::kBlockComment) {
        const size_t close = out.find("*/", i);
        const size_t stop = close == std::string::npos ? out.size() : close;
        for (size_t j = i; j < stop; ++j) out[j] = ' ';
        if (close == std::string::npos) {
          i = out.size();
        } else {
          out[close] = out[close + 1] = ' ';
          i = close + 2;
          state = State::kCode;
        }
        continue;
      }
      if (state == State::kRawString) {
        const size_t close = out.find(raw_delim, i);
        const size_t stop =
            close == std::string::npos ? out.size() : close + raw_delim.size();
        for (size_t j = i; j < stop; ++j) out[j] = ' ';
        if (close == std::string::npos) {
          i = out.size();
        } else {
          i = close + raw_delim.size();
          state = State::kCode;
        }
        continue;
      }
      const char c = out[i];
      if (c == '/' && i + 1 < out.size() && out[i + 1] == '/') {
        comment_col = static_cast<int>(i);
        for (size_t j = i; j < out.size(); ++j) out[j] = ' ';
        break;
      }
      if (c == '/' && i + 1 < out.size() && out[i + 1] == '*') {
        out[i] = out[i + 1] = ' ';
        i += 2;
        state = State::kBlockComment;
        continue;
      }
      if (c == 'R' && i + 1 < out.size() && out[i + 1] == '"' &&
          (i == 0 || !IsIdentChar(out[i - 1]))) {
        const size_t open = out.find('(', i + 2);
        if (open != std::string::npos) {
          // Built character-wise: GCC 12's -Wrestrict misfires on
          // std::string concatenation/append here (PR105329).
          raw_delim.clear();
          raw_delim += ')';
          for (size_t j = i + 2; j < open; ++j) raw_delim += out[j];
          raw_delim += '"';
          for (size_t j = i; j <= open; ++j) out[j] = ' ';
          i = open + 1;
          state = State::kRawString;
          continue;
        }
      }
      if (c == '\'' && i > 0 && IsIdentChar(out[i - 1])) {
        ++i;  // digit separator (1'000'000), not a char literal
        continue;
      }
      if (c == '"' || c == '\'') {
        const char quote = c;
        size_t j = i + 1;
        while (j < out.size()) {
          if (out[j] == '\\') {
            j += 2;
            continue;
          }
          if (out[j] == quote) break;
          ++j;
        }
        const size_t stop = std::min(j, out.size() - 1);
        for (size_t k = i; k <= stop; ++k) out[k] = ' ';
        i = stop + 1;
        continue;
      }
      ++i;
    }
    scrubbed->push_back(out);
    if (comment_cols != nullptr) comment_cols->push_back(comment_col);
  }
}

}  // namespace internal

namespace {

// ---- suppressions ----------------------------------------------------

// One NOLINT / NOLINTNEXTLINE comment. Only a directive that opens its
// comment (`// NOLINT...`) and names at least one sgcl rule (or is
// bare) is `eligible` for stale reporting: prose that merely mentions
// NOLINT, or string-literal fixtures containing one, never is.
struct NolintComment {
  int line_idx = 0;      // 0-based line of the comment itself
  std::string rules;     // as written: "*" or "sgcl-R5, sgcl-R9"
  bool eligible = false;
  bool used = false;
};

struct Suppressions {
  std::vector<NolintComment> comments;
  // Per 0-based target line: (comment index, rule-or-"*") pairs.
  std::vector<std::vector<std::pair<int, std::string>>> by_line;
};

Suppressions ParseSuppressions(const std::vector<std::string>& raw,
                               const std::vector<int>& comment_cols) {
  Suppressions out;
  out.by_line.resize(raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    const std::string& line = raw[i];
    size_t pos = 0;
    while ((pos = line.find("NOLINT", pos)) != std::string::npos) {
      const bool nextline =
          line.compare(pos, std::string("NOLINTNEXTLINE").size(),
                       "NOLINTNEXTLINE") == 0;
      size_t after = pos + (nextline ? 14 : 6);
      const size_t target =
          nextline ? (i + 1 < raw.size() ? i + 1 : raw.size()) : i;
      NolintComment comment;
      comment.line_idx = static_cast<int>(i);
      const int ccol = comment_cols[i];
      comment.eligible =
          ccol >= 0 &&
          SkipSpaces(line, static_cast<size_t>(ccol) + 2) == pos;
      std::vector<std::string> rules;
      if (after < line.size() && line[after] == '(') {
        const size_t close = line.find(')', after);
        const std::string cats =
            close == std::string::npos
                ? line.substr(after + 1)
                : line.substr(after + 1, close - after - 1);
        for (const std::string& cat : StrSplit(cats, ',')) {
          const std::string c = Trim(cat);
          if (c.rfind("sgcl-", 0) == 0) rules.push_back(c);
        }
        if (rules.empty()) comment.eligible = false;  // not our categories
        for (size_t r = 0; r < rules.size(); ++r) {
          comment.rules += (r > 0 ? ", " : "") + rules[r];
        }
      } else {
        // A bare directive must end the comment or carry a `: reason`;
        // "NOLINT comments are consulted..." is prose, not a directive.
        const bool word_end =
            after >= line.size() ||
            (!std::isalnum(static_cast<unsigned char>(line[after])) &&
             line[after] != '_');
        const size_t next = SkipSpaces(line, after);
        const bool terminated = next >= line.size() || line[next] == ':';
        if (!word_end || !terminated) {
          pos = after;
          continue;
        }
        rules.push_back("*");
        comment.rules = "*";
      }
      const int ci = static_cast<int>(out.comments.size());
      out.comments.push_back(comment);
      if (target < raw.size()) {
        for (const std::string& r : rules) {
          out.by_line[target].push_back({ci, r});
        }
      }
      pos = after;
    }
  }
  return out;
}

// ---- sgcl-R3 helpers -------------------------------------------------

const char* const kCheckMacros[] = {
    "SGCL_CHECK_EQ", "SGCL_CHECK_NE", "SGCL_CHECK_LT", "SGCL_CHECK_LE",
    "SGCL_CHECK_GT", "SGCL_CHECK_GE", "SGCL_CHECK_OP", "SGCL_CHECK",
    "SGCL_DCHECK",   "assert",
};

const char* const kMutatingMethods[] = {
    "push_back", "pop_back", "emplace_back", "emplace", "insert",
    "erase",     "clear",    "reset",        "resize",  "pop",
    "push",      "assign",   "append",       "Increment", "Observe",
    "Submit",    "Set",
};

// Scans a check-macro argument for side-effect constructs. Returns a
// description of the first one found, or "".
std::string FindSideEffect(const std::string& arg) {
  for (size_t i = 0; i + 1 < arg.size(); ++i) {
    if ((arg[i] == '+' && arg[i + 1] == '+') ||
        (arg[i] == '-' && arg[i + 1] == '-')) {
      return "increment/decrement";
    }
  }
  for (size_t i = 0; i < arg.size(); ++i) {
    if (arg[i] != '=') continue;
    if (i + 1 < arg.size() && arg[i + 1] == '=') continue;  // ==
    const char prev = i > 0 ? arg[i - 1] : '\0';
    if (prev == '=' || prev == '!') continue;  // ==, !=
    if (prev == '<' || prev == '>') {
      // <= / >= are comparisons, <<= / >>= are assignments.
      const char prev2 = i > 1 ? arg[i - 2] : '\0';
      if (prev2 != prev) continue;
      return "compound assignment";
    }
    if (prev == '+' || prev == '-' || prev == '*' || prev == '/' ||
        prev == '%' || prev == '&' || prev == '|' || prev == '^') {
      return "compound assignment";
    }
    return "assignment";
  }
  for (const char* method : kMutatingMethods) {
    const std::string dot = std::string(".") + method + "(";
    const std::string arrow = std::string("->") + method + "(";
    if (arg.find(dot) != std::string::npos ||
        arg.find(arrow) != std::string::npos) {
      return StrFormat("call to mutating method '%s'", method);
    }
  }
  return "";
}

std::string RuleMessageR2(const std::string& what) {
  return StrFormat(
      "%s breaks bitwise determinism; use common/rng (seeded PRNG) or add "
      "an allowlist entry for legitimate wall-clock use",
      what.c_str());
}

// ---- line pass (sgcl-R2..R7), pre-suppression ------------------------

void LineRuleFindings(const std::string& path,
                      const std::vector<std::string>& scrubbed,
                      std::vector<Finding>* out) {
  const bool is_header =
      path.size() > 2 && path.compare(path.size() - 2, 2, ".h") == 0;

  const auto emit = [&](size_t line_idx, const char* rule, Severity severity,
                        std::string message) {
    Finding f;
    f.file = path;
    f.line = static_cast<int>(line_idx + 1);
    f.rule = rule;
    f.severity = severity;
    f.message = std::move(message);
    out->push_back(std::move(f));
  };

  const bool rng_impl = path.rfind("src/common/rng.", 0) == 0;
  // R6 scope: production checkpoint-path sources. Tests are exempt —
  // corruption tests write torn files on purpose.
  const bool checkpoint_path =
      path.rfind("tests/", 0) != 0 &&
      (path.find("checkpoint") != std::string::npos ||
       path.find("train_state") != std::string::npos);
  // R7 scope: the serving layer proper. Tools (which legitimately load
  // the checkpoint before handing the model to ServeService) and tests
  // are out of scope by construction.
  const bool serve_path = path.rfind("src/serve/", 0) == 0;

  for (size_t li = 0; li < scrubbed.size(); ++li) {
    const std::string& line = scrubbed[li];

    // R2: nondeterminism sources.
    if (!rng_impl) {
      for (size_t i = 0; i < line.size(); ++i) {
        if (TokenAt(line, i, "rand") || TokenAt(line, i, "srand")) {
          const size_t len = line[i] == 's' ? 5 : 4;
          if (SkipSpaces(line, i + len) < line.size() &&
              line[SkipSpaces(line, i + len)] == '(') {
            emit(li, "sgcl-R2", Severity::kError,
                 RuleMessageR2(line[i] == 's' ? "srand()" : "rand()"));
          }
        } else if (TokenAt(line, i, "random_device")) {
          emit(li, "sgcl-R2", Severity::kError,
               RuleMessageR2("std::random_device"));
        } else if (TokenAt(line, i, "system_clock")) {
          emit(li, "sgcl-R2", Severity::kError,
               RuleMessageR2("std::chrono::system_clock"));
        } else if (TokenAt(line, i, "time")) {
          size_t j = SkipSpaces(line, i + 4);
          if (j < line.size() && line[j] == '(') {
            j = SkipSpaces(line, j + 1);
            if (TokenAt(line, j, "nullptr") || TokenAt(line, j, "NULL") ||
                (j < line.size() && line[j] == '0')) {
              emit(li, "sgcl-R2", Severity::kError,
                   RuleMessageR2("time(nullptr)-style seeding"));
            }
          }
        }
      }
    }

    // R3: side effects inside check macros (argument may span lines).
    for (size_t i = 0; i < line.size(); ++i) {
      const char* matched = nullptr;
      for (const char* macro : kCheckMacros) {
        if (TokenAt(line, i, macro)) {
          matched = macro;
          break;
        }
      }
      if (matched == nullptr) continue;
      // Skip the macro's own #define in check.h.
      if (Trim(line).rfind("#define", 0) == 0) break;
      size_t pos = i + std::string(matched).size();
      std::string arg;
      int depth = 0;
      size_t lj = li;
      bool done = false;
      while (lj < scrubbed.size() && lj < li + 30 && !done) {
        const std::string& cur = scrubbed[lj];
        size_t start = lj == li ? pos : 0;
        for (size_t k = start; k < cur.size(); ++k) {
          if (cur[k] == '(') {
            ++depth;
            if (depth == 1) continue;
          }
          if (cur[k] == ')') {
            --depth;
            if (depth == 0) {
              done = true;
              break;
            }
          }
          if (depth >= 1) arg += cur[k];
        }
        arg += ' ';
        ++lj;
      }
      if (done) {
        const std::string effect = FindSideEffect(arg);
        if (!effect.empty()) {
          emit(li, "sgcl-R3", Severity::kError,
               StrFormat("%s inside %s: checks must be side-effect free "
                         "(they compile out or abort)",
                         effect.c_str(), matched));
        }
      }
      i += std::string(matched).size() - 1;
    }

    // R6: raw file-writing primitives in checkpoint-path sources.
    if (checkpoint_path) {
      for (const char* prim : {"ofstream", "fopen", "fwrite"}) {
        for (size_t i = 0; i < line.size(); ++i) {
          if (TokenAt(line, i, prim)) {
            emit(li, "sgcl-R6", Severity::kError,
                 StrFormat("raw '%s' in a checkpoint path bypasses the "
                           "atomic-write API; persist through "
                           "AtomicWriteFile (common/io.h) so a crash can "
                           "never publish a torn checkpoint",
                           prim));
            break;
          }
        }
      }
    }

    // R7: blocking file I/O or checkpoint/dataset loading in src/serve/.
    if (serve_path) {
      for (const char* prim :
           {"ofstream", "ifstream", "fstream", "fopen", "fread", "fwrite",
            "LoadCheckpoint", "LoadTrainCheckpoint", "LoadModel",
            "LoadDataset", "ParseJsonFile", "AtomicWriteFile",
            "ReadFileToString"}) {
        for (size_t i = 0; i < line.size(); ++i) {
          if (TokenAt(line, i, prim)) {
            emit(li, "sgcl-R7", Severity::kError,
                 StrFormat("'%s' in the serving layer: src/serve/ must not "
                           "touch the filesystem — load checkpoints and "
                           "datasets in the CLI before ServeService::Start "
                           "so request handlers never block on disk",
                           prim));
            break;
          }
        }
      }
    }

    // R4b: using namespace in headers.
    if (is_header) {
      for (size_t i = 0; i < line.size(); ++i) {
        if (TokenAt(line, i, "using")) {
          const size_t j = SkipSpaces(line, i + 5);
          if (TokenAt(line, j, "namespace")) {
            emit(li, "sgcl-R4", Severity::kError,
                 "'using namespace' in a header leaks into every includer");
          }
        }
      }
    }

    // R5: naked new / delete.
    for (size_t i = 0; i < line.size(); ++i) {
      if (TokenAt(line, i, "new")) {
        const size_t j = SkipSpaces(line, i + 3);
        const bool allocates =
            j < line.size() && (IsIdentStart(line[j]) || line[j] == '(');
        // `operator new` declarations are not allocations.
        const std::string before = Trim(line.substr(0, i));
        const bool is_operator_decl =
            before.size() >= 8 &&
            before.compare(before.size() - 8, 8, "operator") == 0;
        if (allocates && !is_operator_decl) {
          emit(li, "sgcl-R5", Severity::kError,
               "naked 'new': use make_unique/containers, or suppress for "
               "intentionally leaked singletons");
        }
      } else if (TokenAt(line, i, "delete")) {
        size_t j = SkipSpaces(line, i + 6);
        if (j + 1 < line.size() && line[j] == '[' && line[j + 1] == ']') {
          j = SkipSpaces(line, j + 2);
        }
        const bool deletes =
            j < line.size() && (IsIdentStart(line[j]) || line[j] == '*' ||
                                line[j] == '(');
        const std::string before = Trim(line.substr(0, i));
        const bool deleted_fn = !before.empty() && before.back() == '=';
        if (deletes && !deleted_fn) {
          emit(li, "sgcl-R5", Severity::kError,
               "naked 'delete': owning pointers belong in unique_ptr");
        }
      }
    }
  }

  // R4a: include-guard name must derive from the file path.
  if (is_header) {
    const std::string expected = ExpectedIncludeGuard(path);
    size_t guard_line = std::string::npos;
    std::string actual;
    for (size_t li = 0; li < scrubbed.size(); ++li) {
      const std::string t = Trim(scrubbed[li]);
      if (t.rfind("#ifndef", 0) == 0) {
        actual = Trim(t.substr(7));
        guard_line = li;
        break;
      }
    }
    if (guard_line == std::string::npos) {
      emit(0, "sgcl-R4", Severity::kError,
           StrFormat("missing include guard (expected #ifndef %s)",
                     expected.c_str()));
    } else if (actual != expected) {
      emit(guard_line, "sgcl-R4", Severity::kError,
           StrFormat("include guard '%s' does not match path (expected %s)",
                     actual.c_str(), expected.c_str()));
    } else {
      // The matching #define must follow.
      bool defined = false;
      for (size_t li = guard_line + 1; li < scrubbed.size(); ++li) {
        const std::string t = Trim(scrubbed[li]);
        if (t.rfind("#define", 0) == 0) {
          defined = Trim(t.substr(7)) == expected;
          break;
        }
      }
      if (!defined) {
        emit(guard_line, "sgcl-R4", Severity::kError,
             StrFormat("#ifndef %s is not followed by a matching #define",
                       expected.c_str()));
      }
    }
  }
}

void SortFindings(std::vector<Finding>* findings) {
  std::sort(findings->begin(), findings->end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
}

const char* SeverityToString(Severity severity) {
  return severity == Severity::kWarning ? "warning" : "error";
}

}  // namespace

Result<LintOptions> LoadAllowlist(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound(StrFormat("allowlist: cannot open %s",
                                      path.c_str()));
  }
  LintOptions options;
  options.allowlist_path = path;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::string entry = line;
    const size_t hash = line.find('#');
    std::string reason;
    if (hash != std::string::npos) {
      entry = line.substr(0, hash);
      reason = Trim(line.substr(hash + 1));
    }
    entry = Trim(entry);
    if (entry.empty()) continue;  // blank or pure comment line
    const size_t colon = entry.rfind(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument(
          StrFormat("allowlist %s:%d: expected '<path>:<rule>  # reason', "
                    "got '%s'",
                    path.c_str(), lineno, entry.c_str()));
    }
    const std::string file = Trim(entry.substr(0, colon));
    const std::string rule = Trim(entry.substr(colon + 1));
    bool valid_rule = rule == "*";
    if (!valid_rule && rule.rfind("sgcl-R", 0) == 0) {
      const std::string num = rule.substr(6);
      int value = 0;
      valid_rule = !num.empty() && num.size() <= 2 &&
                   num.find_first_not_of("0123456789") == std::string::npos;
      if (valid_rule) value = std::stoi(num);
      valid_rule = valid_rule && value >= 2 && value <= 10;
    }
    if (file.empty() || !valid_rule) {
      return Status::InvalidArgument(
          StrFormat("allowlist %s:%d: bad entry '%s' (rule must be "
                    "sgcl-R2..sgcl-R10 or *)",
                    path.c_str(), lineno, entry.c_str()));
    }
    if (reason.empty()) {
      return Status::InvalidArgument(
          StrFormat("allowlist %s:%d: entry '%s' needs a '# reason' comment",
                    path.c_str(), lineno, entry.c_str()));
    }
    options.allow.push_back({file, rule, lineno});
  }
  return options;
}

namespace internal {

FileAnalysis AnalyzeFile(const std::string& path, const std::string& content,
                         const GlobalTables& tables,
                         const LintOptions& options) {
  std::vector<std::string> raw, scrubbed;
  std::vector<int> comment_cols;
  ScrubLines(content, &raw, &scrubbed, &comment_cols);
  Suppressions sup = ParseSuppressions(raw, comment_cols);

  std::vector<Finding> candidates;
  LineRuleFindings(path, scrubbed, &candidates);
  FlowResult flow = RunFlowPass(path, Tokenize(content), tables);
  for (Finding& f : flow.findings) candidates.push_back(std::move(f));

  FileAnalysis out;
  std::set<std::pair<std::string, std::string>> used_allow;
  // NOLINT comments are consulted before the allowlist, so an inline
  // suppression always counts as "used" even when an allowlist entry
  // would also cover the finding.
  const auto comment_suppressed = [&](int line_1based,
                                      const std::string& rule) {
    const size_t idx = static_cast<size_t>(line_1based - 1);
    if (line_1based <= 0 || idx >= sup.by_line.size()) return false;
    bool any = false;
    for (const auto& [ci, r] : sup.by_line[idx]) {
      if (r == "*" || r == rule) {
        sup.comments[ci].used = true;
        any = true;
      }
    }
    return any;
  };
  const auto allowed = [&](const std::string& rule) {
    for (const AllowEntry& e : options.allow) {
      if (e.file == path && (e.rule == "*" || e.rule == rule)) {
        used_allow.insert({e.file, e.rule});
        return true;
      }
    }
    return false;
  };

  for (Finding& f : candidates) {
    if (comment_suppressed(f.line, f.rule)) continue;
    if (allowed(f.rule)) continue;
    out.findings.push_back(std::move(f));
  }
  for (LockEdge& e : flow.edges) {
    if (comment_suppressed(e.line, "sgcl-R9")) continue;
    if (allowed("sgcl-R9")) continue;
    out.edges.push_back(std::move(e));
  }
  if (options.report_stale_nolint) {
    for (const NolintComment& c : sup.comments) {
      if (c.eligible && !c.used) {
        out.stale_nolints.push_back({c.line_idx + 1, c.rules});
      }
    }
  }
  out.used_allow.assign(used_allow.begin(), used_allow.end());
  SortFindings(&out.findings);
  return out;
}

std::vector<Finding> MergeAnalyses(const std::vector<std::string>& paths,
                                   const std::vector<FileAnalysis>& analyses,
                                   const LintOptions& options) {
  std::vector<Finding> findings;
  std::vector<LockEdge> edges;
  std::set<std::pair<std::string, std::string>> used_allow;
  const size_t n = std::min(paths.size(), analyses.size());
  for (size_t i = 0; i < n; ++i) {
    const FileAnalysis& a = analyses[i];
    findings.insert(findings.end(), a.findings.begin(), a.findings.end());
    edges.insert(edges.end(), a.edges.begin(), a.edges.end());
    for (const StaleNolint& s : a.stale_nolints) {
      Finding f;
      f.file = paths[i];
      f.line = s.line;
      f.rule = "sgcl-nolint";
      f.severity = Severity::kWarning;
      f.message = StrFormat("NOLINT(%s) suppresses nothing here; remove it",
                            s.rules.c_str());
      findings.push_back(std::move(f));
    }
    used_allow.insert(a.used_allow.begin(), a.used_allow.end());
  }
  std::vector<Finding> cycles = LockCycleFindings(edges);
  for (Finding& f : cycles) findings.push_back(std::move(f));
  if (options.report_stale_nolint) {
    for (const AllowEntry& e : options.allow) {
      if (used_allow.count({e.file, e.rule}) != 0) continue;
      const std::string where = options.allowlist_path.empty()
                                    ? e.file
                                    : options.allowlist_path;
      Finding f;
      f.file = where;
      f.line = e.line;
      f.rule = "sgcl-nolint";
      f.severity = Severity::kWarning;
      f.message = StrFormat("allowlist entry '%s:%s' no longer suppresses "
                            "anything; delete it",
                            e.file.c_str(), e.rule.c_str());
      findings.push_back(std::move(f));
    }
  }
  SortFindings(&findings);
  return findings;
}

}  // namespace internal

Linter::Linter(LintOptions options) : options_(std::move(options)) {}

void Linter::AddFile(std::string path, std::string content) {
  files_.push_back({std::move(path), std::move(content)});
}

std::vector<Finding> Linter::Run() const {
  std::vector<const FileEntry*> files;
  files.reserve(files_.size());
  for (const FileEntry& file : files_) files.push_back(&file);
  std::sort(files.begin(), files.end(),
            [](const FileEntry* a, const FileEntry* b) {
              return a->path < b->path;
            });
  std::vector<std::string> paths;
  paths.reserve(files.size());
  for (const FileEntry* file : files) paths.push_back(file->path);
  const int64_t n = static_cast<int64_t>(files.size());

  // Phase 1: every file's declarations, merged into repo-wide tables.
  std::vector<FileDecls> decls(files.size());
  ParallelFor(0, n, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      decls[i] = ExtractDecls(files[i]->content);
    }
  });
  const internal::GlobalTables tables = internal::BuildTables(decls);

  // Phase 2: per-file analysis into per-file slots, merged in path order
  // so the report is identical for every pool size.
  std::vector<internal::FileAnalysis> analyses(files.size());
  ParallelFor(0, n, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      analyses[i] = internal::AnalyzeFile(paths[i], files[i]->content,
                                          tables, options_);
    }
  });
  return internal::MergeAnalyses(paths, analyses, options_);
}

std::string ExpectedIncludeGuard(const std::string& path) {
  std::string rel = path;
  if (rel.rfind("src/", 0) == 0) rel = rel.substr(4);
  std::string guard = "SGCL_";
  for (char c : rel) {
    guard += std::isalnum(static_cast<unsigned char>(c))
                 ? static_cast<char>(
                       std::toupper(static_cast<unsigned char>(c)))
                 : '_';
  }
  guard += '_';
  return guard;
}

std::string FormatText(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += StrFormat("%s:%d: %s: [%s] %s\n", f.file.c_str(), f.line,
                     SeverityToString(f.severity), f.rule.c_str(),
                     f.message.c_str());
  }
  return out;
}

std::string FormatJson(const std::vector<Finding>& findings) {
  std::string out = StrFormat("{\"count\":%zu,\"findings\":[",
                              findings.size());
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i > 0) out += ',';
    out += StrFormat(
        "{\"file\":\"%s\",\"line\":%d,\"rule\":\"%s\",\"severity\":\"%s\","
        "\"message\":\"%s\"}",
        JsonEscape(f.file).c_str(), f.line, f.rule.c_str(),
        SeverityToString(f.severity), JsonEscape(f.message).c_str());
  }
  out += "]}\n";
  return out;
}

}  // namespace sgcl::lint
