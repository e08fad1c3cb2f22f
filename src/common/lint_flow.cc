// Flow pass of the lint engine (DESIGN.md §9): a real tokenizer, scope
// tracking, and a per-function symbol table powering the thread-safety
// rules sgcl-R8..R10. The pass is deliberately a *linter*, not a
// compiler: it tracks braces, template argument lists, and the handful
// of declaration shapes this codebase uses, and it errs on the side of
// silence when a construct is outside that grammar. Two deliberate
// differences from clang's -Wthread-safety analysis are documented in
// DESIGN.md: lambdas inherit the enclosing function's held-lock set
// (clang analyzes them as separate functions), and std::unique_lock is
// modeled as a capability holder (libc++'s annotations do not annotate
// it), which is exactly why the two checkers are complementary.
#include <algorithm>
#include <cctype>
#include <map>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include "common/lint_internal.h"
#include "common/string_util.h"

namespace sgcl::lint {
namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool IsSimpleIdent(const std::string& s) {
  if (s.empty() || !IsIdentStart(s[0])) return false;
  for (char c : s) {
    if (!IsIdentChar(c)) return false;
  }
  return true;
}

// Multi-char punctuators, longest first. "<<" and ">>" are deliberately
// absent: lexing them as two tokens keeps template-angle matching a
// simple depth count (Foo<Bar<T>> closes with two '>' tokens).
const char* const kPuncts[] = {
    "...", "->*", "<=>", "::", "->", ".*", "++", "--", "+=", "-=",
    "*=",  "/=",  "%=",  "&=", "|=", "^=", "==", "!=", "<=", ">=",
    "&&",  "||",
};

bool IsRawStringPrefixAt(const std::string& s, size_t i, size_t* prefix_len) {
  static const char* const kPrefixes[] = {"R\"", "u8R\"", "uR\"", "UR\"",
                                          "LR\""};
  if (i > 0 && IsIdentChar(s[i - 1])) return false;
  for (const char* p : kPrefixes) {
    const size_t n = std::string(p).size();
    if (s.compare(i, n, p) == 0) {
      *prefix_len = n;
      return true;
    }
  }
  return false;
}

}  // namespace

std::vector<Token> Tokenize(const std::string& content) {
  std::vector<Token> out;
  const size_t n = content.size();
  size_t i = 0;
  int line = 1;
  size_t line_start = 0;
  const auto advance_line = [&](size_t pos) {
    ++line;
    line_start = pos + 1;
  };
  const auto col = [&](size_t pos) { return static_cast<int>(pos - line_start); };
  const auto push = [&](TokenKind kind, size_t begin, size_t end, int tline,
                        int tcol) {
    out.push_back({kind, content.substr(begin, end - begin), tline, tcol});
  };
  while (i < n) {
    const char c = content[i];
    if (c == '\n') {
      advance_line(i);
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Comments.
    if (c == '/' && i + 1 < n && content[i + 1] == '/') {
      while (i < n && content[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && content[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(content[i] == '*' && content[i + 1] == '/')) {
        if (content[i] == '\n') advance_line(i);
        ++i;
      }
      i = i + 1 < n ? i + 2 : n;
      continue;
    }
    // Preprocessor directive ('#' first on its line): one token for the
    // whole line including backslash continuations.
    if (c == '#' && (out.empty() || out.back().line < line)) {
      const size_t begin = i;
      const int tline = line, tcol = col(i);
      while (i < n) {
        if (content[i] == '\n') {
          if (i > begin && content[i - 1] == '\\') {
            advance_line(i);
            ++i;
            continue;
          }
          break;
        }
        ++i;
      }
      push(TokenKind::kDirective, begin, i, tline, tcol);
      continue;
    }
    // Raw string literal.
    size_t prefix_len = 0;
    if (IsRawStringPrefixAt(content, i, &prefix_len)) {
      const size_t begin = i;
      const int tline = line, tcol = col(i);
      size_t j = i + prefix_len;  // just past the opening quote
      std::string delim;
      while (j < n && content[j] != '(') delim += content[j++];
      const std::string close = ")" + delim + "\"";
      size_t end = content.find(close, j);
      end = end == std::string::npos ? n : end + close.size();
      for (size_t k = i; k < end; ++k) {
        if (content[k] == '\n') advance_line(k);
      }
      push(TokenKind::kString, begin, end, tline, tcol);
      i = end;
      continue;
    }
    // Identifier / keyword.
    if (IsIdentStart(c)) {
      const size_t begin = i;
      while (i < n && IsIdentChar(content[i])) ++i;
      push(TokenKind::kIdentifier, begin, i, line, col(begin));
      continue;
    }
    // Number (pp-number: digits, idents, quotes as separators, dots,
    // signed exponents).
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(content[i + 1])))) {
      const size_t begin = i;
      while (i < n) {
        const char d = content[i];
        if (IsIdentChar(d) || d == '.' || d == '\'') {
          ++i;
          continue;
        }
        if ((d == '+' || d == '-') && i > begin &&
            (content[i - 1] == 'e' || content[i - 1] == 'E' ||
             content[i - 1] == 'p' || content[i - 1] == 'P')) {
          ++i;
          continue;
        }
        break;
      }
      push(TokenKind::kNumber, begin, i, line, col(begin));
      continue;
    }
    // String / char literal (escape-aware, single line in practice).
    if (c == '"' || c == '\'') {
      const size_t begin = i;
      const int tline = line, tcol = col(i);
      size_t j = i + 1;
      while (j < n && content[j] != c) {
        if (content[j] == '\\' && j + 1 < n) ++j;
        if (content[j] == '\n') advance_line(j);
        ++j;
      }
      j = j < n ? j + 1 : n;
      push(c == '"' ? TokenKind::kString : TokenKind::kChar, begin, j, tline,
           tcol);
      i = j;
      continue;
    }
    // Punctuator: longest match from the table, else one char.
    size_t len = 1;
    for (const char* p : kPuncts) {
      const size_t pn = std::string(p).size();
      if (content.compare(i, pn, p) == 0) {
        len = pn;
        break;
      }
    }
    push(TokenKind::kPunct, i, i + len, line, col(i));
    i += len;
  }
  return out;
}

namespace {

using internal::FlowResult;
using internal::GlobalTables;

Finding MakeFinding(const std::string& file, int line, const char* rule,
                    Severity severity, std::string message) {
  Finding f;
  f.file = file;
  f.line = line;
  f.rule = rule;
  f.severity = severity;
  f.message = std::move(message);
  return f;
}


bool TextIs(const Token& t, const char* s) { return t.text == s; }

bool IsMutexTypeName(const std::string& s) {
  return s == "mutex" || s == "shared_mutex" || s == "recursive_mutex" ||
         s == "timed_mutex" || s == "recursive_timed_mutex" ||
         s == "shared_timed_mutex";
}

bool IsAtomicTypeName(const std::string& s) {
  return s == "atomic" || s.rfind("atomic_", 0) == 0;
}

bool IsLockHolderType(const std::string& s) {
  return s == "lock_guard" || s == "unique_lock" || s == "scoped_lock" ||
         s == "shared_lock";
}

// Index of the brace matching tokens[open] (which must be "{"), or the
// last token when unbalanced.
size_t MatchingBrace(const std::vector<Token>& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kPunct) continue;
    if (toks[i].text == "{") ++depth;
    if (toks[i].text == "}" && --depth == 0) return i;
  }
  return toks.size() - 1;
}

// Index just past a template argument list opening at tokens[open]
// ("<"). Bails (returns open) when the scan hits a token that cannot
// appear in template arguments, so `a < b` is not eaten.
size_t SkipAngles(const std::vector<Token>& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    const std::string& s = toks[i].text;
    if (s == "<") ++depth;
    if (s == ">" && --depth == 0) return i + 1;
    if (s == ";" || s == "{" || s == "}") return open;
  }
  return open;
}

// Pending tokens of the current statement with template-parameter
// groups (`template <...>`) removed — classification looks at the
// declaration shape, and `template <class T>` must not read as a class
// definition. With strip_annotations, SGCL_*(...) annotation-macro
// groups go too, so `int hits_ SGCL_GUARDED_BY(mu_){0};` classifies as
// a brace-initialized member, not a function body.
std::vector<Token> StripTemplates(const std::vector<Token>& pending,
                                  bool strip_annotations = false) {
  std::vector<Token> out;
  for (size_t i = 0; i < pending.size(); ++i) {
    if (pending[i].text == "template" && i + 1 < pending.size() &&
        pending[i + 1].text == "<") {
      int depth = 0;
      size_t j = i + 1;
      for (; j < pending.size(); ++j) {
        if (pending[j].text == "<") ++depth;
        if (pending[j].text == ">" && --depth == 0) break;
      }
      i = j;
      continue;
    }
    if (strip_annotations && pending[i].text.rfind("SGCL_", 0) == 0 &&
        i + 1 < pending.size() && pending[i + 1].text == "(") {
      int depth = 0;
      size_t j = i + 1;
      for (; j < pending.size(); ++j) {
        if (pending[j].text == "(") ++depth;
        if (pending[j].text == ")" && --depth == 0) break;
      }
      i = j;
      continue;
    }
    out.push_back(pending[i]);
  }
  return out;
}

bool IsSpecifier(const std::string& s) {
  return s == "inline" || s == "static" || s == "constexpr" ||
         s == "friend" || s == "typedef" || s == "extern" ||
         s == "mutable" || s == "virtual" || s == "explicit" ||
         s == "thread_local" || s == "consteval" || s == "constinit";
}

struct Scope {
  enum class Kind { kFile, kNamespace, kClass, kFunction, kBlock };
  Scope() = default;
  explicit Scope(Kind k) : kind(k) {}
  Kind kind = Kind::kBlock;
  std::string class_name;  // kClass: this class; kFunction: owning class
  std::string func_name;   // kFunction only
  bool ctor_dtor = false;
  int paren_depth = 0;  // per-scope so lambda bodies restart counting
  std::vector<std::string> locks;  // canonical mutexes acquired here
  // kFunction only: RAII lock variables and local atomics in scope.
  std::map<std::string, std::vector<std::string>> lock_vars;
  std::set<std::string> local_atomics;
};

// Canonical mutex name: a member mutex becomes "Class::name" so
// acquisition edges match across translation units; anything else
// (globals, accessor calls) keeps its spelled form.
std::string CanonMutex(std::string expr, const std::string& class_name,
                       const GlobalTables* tables) {
  if (expr.rfind("this->", 0) == 0) expr = expr.substr(6);
  while (!expr.empty() && expr[0] == '&') expr = expr.substr(1);
  if (!IsSimpleIdent(expr) || class_name.empty() || tables == nullptr) {
    return expr;
  }
  const std::string qualified = class_name + "::" + expr;
  if (std::binary_search(tables->mutex_members.begin(),
                         tables->mutex_members.end(), qualified)) {
    return qualified;
  }
  return expr;
}

// The shared statement/scope walker. In decl mode (decls != nullptr)
// it harvests annotations and member types; in flow mode
// (flow != nullptr, with tables and path) it tracks held locks and
// emits R8/R10 findings plus R9 acquisition edges.
class Walker {
 public:
  Walker(const std::vector<Token>& toks, const GlobalTables* tables,
         const std::string* path, FileDecls* decls, FlowResult* flow)
      : toks_(toks), tables_(tables), path_(path), decls_(decls),
        flow_(flow) {
    hot_path_ = path_ != nullptr && internal::IsHotPathFile(*path_);
  }

  void Run() {
    stack_.push_back(Scope(Scope::Kind::kFile));
    for (size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.kind == TokenKind::kDirective) continue;
      Scope& cur = stack_.back();
      if (t.kind == TokenKind::kPunct) {
        if (t.text == "(") {
          ++cur.paren_depth;
          pending_.push_back(t);
          continue;
        }
        if (t.text == ")") {
          if (cur.paren_depth > 0) --cur.paren_depth;
          pending_.push_back(t);
          continue;
        }
        if (t.text == ";" && cur.paren_depth == 0) {
          EndStatement();
          pending_.clear();
          continue;
        }
        if (t.text == "{") {
          if (cur.paren_depth > 0) {
            // Lambda body or braced init inside an argument list: a
            // block that inherits the held-lock set.
            stack_.push_back(Scope(Scope::Kind::kBlock));
            pending_.clear();
            continue;
          }
          size_t skip_to = 0;
          Scope next = Classify(i, &skip_to);
          if (skip_to != 0) {
            // Brace-init / enum body: swallow the group, keep the
            // statement open, and leave a marker so a constructor's
            // init list still classifies its real body as a function.
            i = skip_to;
            pending_.push_back({TokenKind::kPunct, "<init>", t.line, t.col});
            continue;
          }
          stack_.push_back(std::move(next));
          pending_.clear();
          continue;
        }
        if (t.text == "}") {
          if (stack_.size() > 1) stack_.pop_back();
          pending_.clear();
          continue;
        }
        pending_.push_back(t);
        continue;
      }
      if (t.kind == TokenKind::kIdentifier && flow_ != nullptr) {
        FlowAtIdent(i);
      }
      pending_.push_back(t);
    }
  }

 private:
  const Scope* EnclosingFunction() const {
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->kind == Scope::Kind::kFunction) return &*it;
    }
    return nullptr;
  }
  Scope* EnclosingFunctionMutable() {
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->kind == Scope::Kind::kFunction) return &*it;
    }
    return nullptr;
  }
  const Scope* EnclosingClass() const {
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->kind == Scope::Kind::kClass) return &*it;
    }
    return nullptr;
  }

  std::vector<std::string> HeldLocks() const {
    std::vector<std::string> held;
    for (const Scope& s : stack_) {
      held.insert(held.end(), s.locks.begin(), s.locks.end());
    }
    return held;
  }

  // ---- scope classification ------------------------------------------

  // Decides what the "{" at toks_[brace] opens, based on the pending
  // statement tokens. When the brace is a brace-init/enum group that
  // should be swallowed without opening a scope, sets *skip_to to the
  // matching "}" index and the returned scope is unused.
  Scope Classify(size_t brace, size_t* skip_to) {
    const std::vector<Token> p =
        StripTemplates(pending_, /*strip_annotations=*/true);
    size_t s = 0;
    while (s < p.size() && IsSpecifier(p[s].text)) ++s;
    const Scope& parent = stack_.back();

    if (s < p.size() && p[s].text == "namespace") {
      return Scope(Scope::Kind::kNamespace);
    }
    if (s < p.size() && (p[s].text == "enum" || p[s].text == "union")) {
      *skip_to = MatchingBrace(toks_, brace);
      return {};
    }
    if (s < p.size() && (p[s].text == "class" || p[s].text == "struct")) {
      Scope sc(Scope::Kind::kClass);
      sc.class_name = ClassNameFrom(p, s + 1);
      return sc;
    }

    if (parent.kind == Scope::Kind::kFunction ||
        parent.kind == Scope::Kind::kBlock) {
      static const char* const kControl[] = {"if",     "for",  "while",
                                             "switch", "do",   "else",
                                             "try",    "catch", "return"};
      if (p.empty()) return Scope(Scope::Kind::kBlock);
      for (const char* kw : kControl) {
        if (p[0].text == kw) return Scope(Scope::Kind::kBlock);
      }
      const std::string& last = p.back().text;
      if (last == ")" || last == "]") return Scope(Scope::Kind::kBlock);
      *skip_to = MatchingBrace(toks_, brace);  // braced initializer
      return {};
    }

    // File / namespace / class scope: function definition or an
    // initializer group.
    if (LooksLikeFunction(p)) return MakeFunctionScope(pending_);
    *skip_to = MatchingBrace(toks_, brace);
    return {};
  }

  static std::string ClassNameFrom(const std::vector<Token>& p, size_t from) {
    std::string name;
    int paren = 0;
    for (size_t i = from; i < p.size(); ++i) {
      const std::string& s = p[i].text;
      if (s == "(") ++paren;
      if (s == ")") {
        --paren;
        continue;
      }
      if (paren > 0) continue;
      if (s == ":") break;  // base clause
      if (p[i].kind == TokenKind::kIdentifier && s != "final" &&
          s != "alignas") {
        name = s;
      }
    }
    return name;
  }

  static bool LooksLikeFunction(const std::vector<Token>& p) {
    if (p.empty()) return false;
    bool has_paren = false;
    for (const Token& t : p) {
      if (t.text == "(") has_paren = true;
    }
    if (!has_paren) return false;
    const std::string& last = p.back().text;
    if (last == ")" || last == "const" || last == "noexcept" ||
        last == "override" || last == "final" || last == "mutable" ||
        last == "<init>") {
      return true;
    }
    // Trailing return type: `auto f(...) -> T {`.
    for (size_t i = 1; i < p.size(); ++i) {
      if (p[i].text == "->" && p[i - 1].text == ")") return true;
    }
    return false;
  }

  Scope MakeFunctionScope(const std::vector<Token>& pending) {
    const std::vector<Token> p = StripTemplates(pending);
    Scope fn(Scope::Kind::kFunction);
    // First "(" at angle depth 0 opens the parameter list.
    size_t paren = p.size();
    int angle = 0;
    for (size_t i = 0; i < p.size(); ++i) {
      const std::string& s = p[i].text;
      if (s == "<" && i > 0 && p[i - 1].kind == TokenKind::kIdentifier &&
          p[i - 1].text != "operator") {
        ++angle;
      } else if (s == ">" && angle > 0) {
        --angle;
      } else if (s == "(" && angle == 0) {
        paren = i;
        break;
      }
    }
    // Name chain walks back over `A::B::name` / `~name`.
    std::string method, qualifier;
    bool dtor = false;
    if (paren != p.size() && paren > 0) {
      size_t i = paren - 1;
      if (p[i].kind == TokenKind::kIdentifier) {
        method = p[i].text;
        while (i >= 1) {
          if (p[i - 1].text == "~") {
            dtor = true;
            --i;
            continue;
          }
          if (i >= 2 && p[i - 1].text == "::" &&
              p[i - 2].kind == TokenKind::kIdentifier) {
            if (qualifier.empty()) qualifier = p[i - 2].text;
            i -= 2;
            continue;
          }
          break;
        }
      }
    }
    const Scope* cls = EnclosingClass();
    fn.class_name = !qualifier.empty()
                        ? qualifier
                        : (cls != nullptr ? cls->class_name : std::string());
    fn.func_name = method;
    fn.ctor_dtor = dtor || (!method.empty() && method == fn.class_name);
    // Entry capabilities: inline SGCL_REQUIRES(...) plus any recorded
    // declaration for (class, method).
    for (size_t i = 0; i + 1 < p.size(); ++i) {
      if ((p[i].text == "SGCL_REQUIRES" ||
           p[i].text == "SGCL_REQUIRES_SHARED") &&
          p[i + 1].text == "(") {
        for (const std::string& m : MacroArgs(p, i + 1)) {
          fn.locks.push_back(CanonMutex(m, fn.class_name, tables_));
        }
      }
    }
    if (tables_ != nullptr) {
      for (const auto& rm : tables_->requires_methods) {
        if (rm.class_name == fn.class_name && rm.method == fn.func_name) {
          for (const std::string& m : rm.mutexes) {
            fn.locks.push_back(CanonMutex(m, fn.class_name, tables_));
          }
        }
      }
    }
    return fn;
  }

  // Comma-split arguments of the paren group opening at p[open],
  // each joined from its token texts.
  static std::vector<std::string> MacroArgs(const std::vector<Token>& p,
                                            size_t open) {
    std::vector<std::string> args;
    std::string cur;
    int depth = 0;
    for (size_t i = open; i < p.size(); ++i) {
      const std::string& s = p[i].text;
      if (s == "(" || s == "{" || s == "[") {
        if (++depth == 1) continue;
      } else if (s == ")" || s == "}" || s == "]") {
        if (--depth == 0) break;
      } else if (s == "," && depth == 1) {
        if (!cur.empty()) args.push_back(cur);
        cur.clear();
        continue;
      }
      cur += s;
    }
    if (!cur.empty()) args.push_back(cur);
    return args;
  }

  // ---- statement-end declaration harvesting --------------------------

  void EndStatement() {
    if (pending_.empty()) return;
    const Scope& cur = stack_.back();
    if (cur.kind == Scope::Kind::kClass && decls_ != nullptr) {
      HarvestMemberDecl(cur.class_name);
    }
    if (flow_ != nullptr &&
        (cur.kind == Scope::Kind::kFunction ||
         cur.kind == Scope::Kind::kBlock || cur.kind == Scope::Kind::kFile ||
         cur.kind == Scope::Kind::kNamespace)) {
      HarvestLocalAtomic();
    }
  }

  // Declarator name: last identifier before a top-level '=' (or before
  // the statement end), skipping the "<init>" marker.
  static std::string DeclaratorName(const std::vector<Token>& p) {
    std::string name;
    for (const Token& t : p) {
      if (t.text == "=") break;
      if (t.kind == TokenKind::kIdentifier) name = t.text;
    }
    return name;
  }

  void HarvestMemberDecl(const std::string& class_name) {
    const std::vector<Token>& p = pending_;
    // Member-vs-method shape and the declarator name are judged with
    // annotation-macro groups removed: SGCL_GUARDED_BY(mu_)'s parens
    // must not make a data member look like a method declaration.
    const std::vector<Token> bare =
        StripTemplates(p, /*strip_annotations=*/true);
    bool has_paren = false;
    bool is_atomic = false;
    bool is_mutex = false;
    for (const Token& t : bare) {
      if (t.text == "(") has_paren = true;
      if (t.kind == TokenKind::kIdentifier) {
        if (IsAtomicTypeName(t.text)) is_atomic = true;
        if (IsMutexTypeName(t.text)) is_mutex = true;
      }
    }
    for (size_t i = 0; i < p.size(); ++i) {
      if ((p[i].text == "SGCL_GUARDED_BY" ||
           p[i].text == "SGCL_PT_GUARDED_BY") &&
          i > 0 && p[i - 1].kind == TokenKind::kIdentifier &&
          i + 1 < p.size() && p[i + 1].text == "(") {
        const std::vector<std::string> args = MacroArgs(p, i + 1);
        if (!args.empty()) {
          decls_->guarded_members.push_back(
              {class_name, p[i - 1].text, args[0], is_atomic});
        }
      }
      if ((p[i].text == "SGCL_REQUIRES" ||
           p[i].text == "SGCL_REQUIRES_SHARED") &&
          i + 1 < p.size() && p[i + 1].text == "(") {
        // Out-of-body method declaration: name precedes the first "(".
        std::string method;
        for (size_t j = 0; j + 1 < i; ++j) {
          if (p[j + 1].text == "(" &&
              p[j].kind == TokenKind::kIdentifier) {
            method = p[j].text;
            break;
          }
        }
        if (!method.empty()) {
          decls_->requires_methods.push_back(
              {class_name, method, MacroArgs(p, i + 1)});
        }
      }
    }
    if (has_paren) return;  // method declaration, not a data member
    const std::string name = DeclaratorName(bare);
    if (name.empty()) return;
    if (is_mutex) decls_->mutex_members.push_back(class_name + "::" + name);
    if (is_atomic) decls_->atomic_members.push_back(class_name + "::" + name);
  }

  void HarvestLocalAtomic() {
    bool is_atomic = false;
    bool has_paren = false;
    for (const Token& t : pending_) {
      if (t.text == "(") has_paren = true;
      if (t.kind == TokenKind::kIdentifier && IsAtomicTypeName(t.text)) {
        is_atomic = true;
      }
    }
    if (!is_atomic || has_paren) return;
    const std::string name = DeclaratorName(pending_);
    if (name.empty()) return;
    Scope* fn = EnclosingFunctionMutable();
    if (fn != nullptr) {
      fn->local_atomics.insert(name);
    } else {
      file_atomics_.insert(name);
    }
  }

  // ---- flow rules at an identifier token -----------------------------

  void FlowAtIdent(size_t i) {
    const Token& t = toks_[i];
    const Scope* fn = EnclosingFunction();
    if (fn == nullptr) {
      if (hot_path_ && t.text == "volatile") EmitVolatile(t);
      return;
    }
    if (IsLockHolderType(t.text)) {
      HandleLockDecl(i);
      return;
    }
    if ((t.text == "lock" || t.text == "unlock") && i >= 2 &&
        TextIs(toks_[i - 1], ".") &&
        toks_[i - 2].kind == TokenKind::kIdentifier && i + 2 < toks_.size() &&
        TextIs(toks_[i + 1], "(") && TextIs(toks_[i + 2], ")")) {
      HandleLockCall(toks_[i - 2].text, t.text == "lock", t.line);
      return;
    }
    if (hot_path_) {
      if (t.text == "volatile") {
        EmitVolatile(t);
        return;
      }
      if ((t.text == "load" || t.text == "store") && i >= 2 &&
          (TextIs(toks_[i - 1], ".") || TextIs(toks_[i - 1], "->")) &&
          toks_[i - 2].kind == TokenKind::kIdentifier) {
        CheckAtomicOrder(i, fn);
      }
    }
    CheckGuardedAccess(i, fn);
  }

  void HandleLockDecl(size_t i) {
    size_t j = i + 1;
    if (j < toks_.size() && TextIs(toks_[j], "<")) j = SkipAngles(toks_, j);
    if (j + 1 >= toks_.size() ||
        toks_[j].kind != TokenKind::kIdentifier ||
        (!TextIs(toks_[j + 1], "(") && !TextIs(toks_[j + 1], "{"))) {
      return;  // not a variable declaration (template arg, sizeof, ...)
    }
    const std::string var = toks_[j].text;
    // Collect the constructor arguments.
    std::vector<Token> group;
    const std::string open = toks_[j + 1].text;
    const std::string close = open == "(" ? ")" : "}";
    int depth = 0;
    size_t k = j + 1;
    for (; k < toks_.size(); ++k) {
      if (toks_[k].text == open) ++depth;
      if (toks_[k].text == close && --depth == 0) break;
      group.push_back(toks_[k]);
    }
    if (!group.empty()) group.erase(group.begin());  // drop the opener
    std::vector<std::string> mutexes;
    bool deferred = false;
    const Scope* fn = EnclosingFunction();
    const std::string cls = fn != nullptr ? fn->class_name : std::string();
    std::string cur;
    int adepth = 0;
    const auto flush = [&]() {
      if (cur.empty()) return;
      if (cur.find("defer_lock") != std::string::npos) {
        deferred = true;
      } else if (cur.find("adopt_lock") == std::string::npos &&
                 cur.find("try_to_lock") == std::string::npos) {
        mutexes.push_back(CanonMutex(cur, cls, tables_));
      }
      cur.clear();
    };
    for (const Token& g : group) {
      const std::string& s = g.text;
      if (s == "(" || s == "{" || s == "[" || s == "<") ++adepth;
      if (s == ")" || s == "}" || s == "]" || s == ">") --adepth;
      if (s == "," && adepth == 0) {
        flush();
        continue;
      }
      cur += s;
    }
    flush();
    Scope* owner = EnclosingFunctionMutable();
    if (owner != nullptr) owner->lock_vars[var] = mutexes;
    if (!deferred) AcquireAll(mutexes, toks_[i].line);
  }

  void AcquireAll(const std::vector<std::string>& mutexes, int line) {
    for (const std::string& m : mutexes) {
      if (m.empty()) continue;
      for (const std::string& h : HeldLocks()) {
        if (h != m && path_ != nullptr) {
          flow_->edges.push_back({h, m, *path_, line});
        }
      }
      stack_.back().locks.push_back(m);
    }
  }

  void HandleLockCall(const std::string& receiver, bool acquire, int line) {
    // Resolve: RAII lock variable first, then a known mutex member.
    std::vector<std::string> mutexes;
    Scope* fn = EnclosingFunctionMutable();
    if (fn != nullptr) {
      auto it = fn->lock_vars.find(receiver);
      if (it != fn->lock_vars.end()) mutexes = it->second;
    }
    if (mutexes.empty()) {
      const std::string cls = fn != nullptr ? fn->class_name : std::string();
      const std::string canon = CanonMutex(receiver, cls, tables_);
      if (std::binary_search(tables_->mutex_members.begin(),
                             tables_->mutex_members.end(), canon)) {
        mutexes.push_back(canon);
      }
    }
    if (mutexes.empty()) return;
    if (acquire) {
      AcquireAll(mutexes, line);
      return;
    }
    for (const std::string& m : mutexes) {
      for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
        auto pos = std::find(it->locks.begin(), it->locks.end(), m);
        if (pos != it->locks.end()) {
          it->locks.erase(pos);
          break;
        }
      }
    }
  }

  bool Holds(const std::string& canon_mutex) const {
    for (const Scope& s : stack_) {
      if (std::find(s.locks.begin(), s.locks.end(), canon_mutex) !=
          s.locks.end()) {
        return true;
      }
    }
    return false;
  }

  // True when toks_[i] names a member of the current object: a bare
  // identifier, or one reached through `this->` / `this.`.
  bool IsSelfAccess(size_t i) const {
    if (i == 0) return true;
    const std::string& prev = toks_[i - 1].text;
    if (prev == "." || prev == "->") {
      return i >= 2 && TextIs(toks_[i - 2], "this");
    }
    if (prev == "::") return false;  // qualified name, not an access
    return true;
  }

  // Explicit memory-order argument in the call group starting at the
  // "(" after a `.load` / `.store` style call?
  static bool HasMemoryOrderArg(const std::vector<Token>& toks, size_t open) {
    int depth = 0;
    for (size_t i = open; i < toks.size(); ++i) {
      const std::string& s = toks[i].text;
      if (s == "(") ++depth;
      if (s == ")" && --depth == 0) break;
      if (toks[i].kind == TokenKind::kIdentifier &&
          s.rfind("memory_order", 0) == 0) {
        return true;
      }
    }
    return false;
  }

  void CheckGuardedAccess(size_t i, const Scope* fn) {
    if (tables_ == nullptr || fn->ctor_dtor) return;
    const Token& t = toks_[i];
    const FileDecls::GuardedMember* gm = nullptr;
    for (const auto& g : tables_->guarded_members) {
      if (g.member == t.text && g.class_name == fn->class_name) {
        gm = &g;
        break;
      }
    }
    if (gm == nullptr || !IsSelfAccess(i)) return;
    const std::string guard = CanonMutex(gm->mutex, fn->class_name, tables_);
    if (Holds(guard)) return;
    if (gm->atomic && i + 2 < toks_.size() &&
        (TextIs(toks_[i + 1], ".") || TextIs(toks_[i + 1], "->")) &&
        toks_[i + 2].kind == TokenKind::kIdentifier) {
      // Documented-relaxed escape hatch: an atomic guarded member used
      // with an explicit memory order is a deliberate unlocked access.
      size_t open = i + 3;
      if (open < toks_.size() && TextIs(toks_[open], "(") &&
          HasMemoryOrderArg(toks_, open)) {
        return;
      }
    }
    const std::pair<int, std::string> key{t.line, t.text};
    if (!reported_r8_.insert(key).second) return;
    flow_->findings.push_back(MakeFinding(
        *path_, t.line, "sgcl-R8", Severity::kError,
        StrFormat("'%s' is guarded by '%s' but accessed without holding it; "
                  "take a lock_guard/unique_lock/scoped_lock on it or "
                  "annotate the method SGCL_REQUIRES(%s)",
                  t.text.c_str(), guard.c_str(), gm->mutex.c_str())));
  }

  void CheckAtomicOrder(size_t i, const Scope* fn) {
    const Token& t = toks_[i];
    const std::string& recv = toks_[i - 2].text;
    bool is_atomic = false;
    if (!fn->class_name.empty() && tables_ != nullptr &&
        std::binary_search(tables_->atomic_members.begin(),
                           tables_->atomic_members.end(),
                           fn->class_name + "::" + recv)) {
      is_atomic = true;
    }
    for (auto it = stack_.rbegin(); !is_atomic && it != stack_.rend(); ++it) {
      if (it->local_atomics.count(recv) != 0) is_atomic = true;
    }
    if (file_atomics_.count(recv) != 0) is_atomic = true;
    if (!is_atomic) return;
    if (i + 1 >= toks_.size() || !TextIs(toks_[i + 1], "(")) return;
    // Count top-level arguments of the call.
    int depth = 0;
    int args = 0;
    int commas = 0;
    for (size_t k = i + 1; k < toks_.size(); ++k) {
      const std::string& s = toks_[k].text;
      if (s == "(") {
        if (++depth == 1) continue;
      }
      if (s == ")" && --depth == 0) break;
      if (s == "," && depth == 1) {
        ++commas;
        continue;
      }
      if (args == 0) args = 1;
    }
    if (args != 0) args += commas;
    const bool missing = t.text == "load" ? args == 0 : args == 1;
    if (!missing) return;
    flow_->findings.push_back(MakeFinding(
        *path_, t.line, "sgcl-R10", Severity::kWarning,
        StrFormat("atomic %s() without an explicit memory order "
                  "defaults to seq_cst on a hot path; spell the "
                  "ordering (std::memory_order_seq_cst if that is "
                  "really what you want)",
                  t.text.c_str())));
  }

  void EmitVolatile(const Token& t) {
    flow_->findings.push_back(MakeFinding(
        *path_, t.line, "sgcl-R10", Severity::kWarning,
        "'volatile' is not a synchronization primitive; use std::atomic "
        "with an explicit memory order"));
  }

  const std::vector<Token>& toks_;
  const GlobalTables* tables_;
  const std::string* path_;
  FileDecls* decls_;
  FlowResult* flow_;
  bool hot_path_ = false;
  std::vector<Scope> stack_;
  std::vector<Token> pending_;
  std::set<std::string> file_atomics_;
  std::set<std::pair<int, std::string>> reported_r8_;
};

}  // namespace

FileDecls ExtractDecls(const std::string& content) {
  FileDecls decls;
  const std::vector<Token> toks = Tokenize(content);
  Walker(toks, nullptr, nullptr, &decls, nullptr).Run();
  return decls;
}

namespace internal {

GlobalTables BuildTables(const std::vector<FileDecls>& decls) {
  GlobalTables t;
  for (const FileDecls& d : decls) {
    t.guarded_members.insert(t.guarded_members.end(),
                             d.guarded_members.begin(),
                             d.guarded_members.end());
    t.requires_methods.insert(t.requires_methods.end(),
                              d.requires_methods.begin(),
                              d.requires_methods.end());
    t.mutex_members.insert(t.mutex_members.end(), d.mutex_members.begin(),
                           d.mutex_members.end());
    t.atomic_members.insert(t.atomic_members.end(), d.atomic_members.begin(),
                            d.atomic_members.end());
  }
  const auto uniq = [](std::vector<std::string>* v) {
    std::sort(v->begin(), v->end());
    v->erase(std::unique(v->begin(), v->end()), v->end());
  };
  uniq(&t.mutex_members);
  uniq(&t.atomic_members);
  const auto gm_key = [](const FileDecls::GuardedMember& g) {
    return g.class_name + "\x1f" + g.member + "\x1f" + g.mutex +
           (g.atomic ? "\x1f" "a" : "");
  };
  std::sort(t.guarded_members.begin(), t.guarded_members.end(),
            [&](const auto& a, const auto& b) { return gm_key(a) < gm_key(b); });
  t.guarded_members.erase(
      std::unique(t.guarded_members.begin(), t.guarded_members.end(),
                  [&](const auto& a, const auto& b) {
                    return gm_key(a) == gm_key(b);
                  }),
      t.guarded_members.end());
  const auto rm_key = [](const FileDecls::RequiresMethod& r) {
    std::string k = r.class_name + "\x1f" + r.method;
    for (const std::string& m : r.mutexes) k += "\x1f" + m;
    return k;
  };
  std::sort(t.requires_methods.begin(), t.requires_methods.end(),
            [&](const auto& a, const auto& b) { return rm_key(a) < rm_key(b); });
  t.requires_methods.erase(
      std::unique(t.requires_methods.begin(), t.requires_methods.end(),
                  [&](const auto& a, const auto& b) {
                    return rm_key(a) == rm_key(b);
                  }),
      t.requires_methods.end());
  return t;
}

bool IsHotPathFile(const std::string& path) {
  static const char* const kPrefixes[] = {
      "src/serve/",
      "src/data/prefetcher.",
      "src/data/shard_store.",
      "src/common/parallel.",
      "src/common/trace.",
      "src/common/metrics.",
      "src/common/http_server.",
  };
  for (const char* p : kPrefixes) {
    if (path.rfind(p, 0) == 0) return true;
  }
  return false;
}

FlowResult RunFlowPass(const std::string& path,
                       const std::vector<Token>& tokens,
                       const GlobalTables& tables) {
  FlowResult result;
  Walker(tokens, &tables, &path, nullptr, &result).Run();
  return result;
}

std::vector<Finding> LockCycleFindings(const std::vector<LockEdge>& edges) {
  // Adjacency over unique (from, to) pairs; every concrete site of a
  // pair that lies on a cycle is reported.
  std::map<std::string, std::set<std::string>> adj;
  for (const LockEdge& e : edges) {
    if (!e.from.empty() && !e.to.empty() && e.from != e.to) {
      adj[e.from].insert(e.to);
    }
  }
  // Path from -> to (BFS, lexicographically stable), empty if none.
  const auto path_between = [&](const std::string& from,
                                const std::string& to) {
    std::map<std::string, std::string> parent;
    std::queue<std::string> q;
    q.push(from);
    parent[from] = from;
    while (!q.empty()) {
      const std::string cur = q.front();
      q.pop();
      if (cur == to) break;
      auto it = adj.find(cur);
      if (it == adj.end()) continue;
      for (const std::string& next : it->second) {
        if (parent.insert({next, cur}).second) q.push(next);
      }
    }
    std::vector<std::string> path;
    if (parent.count(to) == 0) return path;
    for (std::string cur = to; cur != from; cur = parent[cur]) {
      path.push_back(cur);
    }
    path.push_back(from);
    std::reverse(path.begin(), path.end());
    return path;
  };
  std::vector<Finding> findings;
  std::set<std::string> seen;
  for (const LockEdge& e : edges) {
    if (e.from.empty() || e.to.empty() || e.from == e.to) continue;
    const std::vector<std::string> back = path_between(e.to, e.from);
    if (back.empty()) continue;  // edge not on a cycle
    std::string cycle = e.from;
    for (const std::string& n : back) cycle += " -> " + n;
    const std::string key =
        StrFormat("%s:%d:%s>%s", e.file.c_str(), e.line, e.from.c_str(),
                  e.to.c_str());
    if (!seen.insert(key).second) continue;
    findings.push_back(MakeFinding(
        e.file, e.line, "sgcl-R9", Severity::kError,
        StrFormat("acquiring '%s' while holding '%s' closes a lock-order "
                  "cycle (%s); pick one global acquisition order, or "
                  "suppress this edge with NOLINT(sgcl-R9) after review",
                  e.to.c_str(), e.from.c_str(), cycle.c_str())));
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.message < b.message;
            });
  return findings;
}

}  // namespace internal
}  // namespace sgcl::lint
