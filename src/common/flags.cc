#include "common/flags.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "common/string_util.h"

namespace sgcl {
namespace {

const char* TypeName(int type) {
  static const char* kNames[] = {"string", "int", "int", "uint",
                                 "float",  "bool"};
  return kNames[type];
}

// Strict numeric parses: the whole token must convert, no trailing junk,
// no out-of-range values (the std::atoi path these replace turned
// "--epochs=abc" into 0 without a word).
//
// The strto* family also skips leading whitespace and accepts a leading
// '+', and strtoull negates a '-' (" -1" became 2^64-1), so the first
// character is checked here: no whitespace, no '+', and '-' only where
// the type is signed.
bool StartsCleanly(const std::string& s, bool allow_minus) {
  if (s.empty()) return false;
  const unsigned char c = static_cast<unsigned char>(s[0]);
  return !std::isspace(c) && c != '+' && (allow_minus || c != '-');
}

bool ParseInt64(const std::string& s, int64_t* out) {
  if (!StartsCleanly(s, /*allow_minus=*/true)) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool ParseUint64(const std::string& s, uint64_t* out) {
  if (!StartsCleanly(s, /*allow_minus=*/false)) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

// Finite values only: strtod also reads "nan" and "inf", which pass
// every range check a caller writes as `v < lo || v > hi`.
bool ParseDouble(const std::string& s, double* out) {
  if (!StartsCleanly(s, /*allow_minus=*/true)) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size() || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseBool(const std::string& s, bool* out) {
  if (s == "true" || s == "1") {
    *out = true;
    return true;
  }
  if (s == "false" || s == "0") {
    *out = false;
    return true;
  }
  return false;
}

}  // namespace

FlagSet::FlagSet(std::string usage) : usage_(std::move(usage)) {}

void FlagSet::Register(const std::string& name, Type type, void* target,
                       const std::string& help, bool required,
                       std::string default_str) {
  SGCL_CHECK(target != nullptr);
  SGCL_CHECK(Find(name) == nullptr);  // duplicate flag registration
  Flag flag;
  flag.name = name;
  flag.type = type;
  flag.target = target;
  flag.help = help;
  flag.required = required;
  flag.default_str = std::move(default_str);
  flags_.push_back(std::move(flag));
}

void FlagSet::String(const std::string& name, std::string* target,
                     const std::string& help, bool required) {
  Register(name, Type::kString, target, help, required,
           "\"" + *target + "\"");
}

void FlagSet::Int(const std::string& name, int* target,
                  const std::string& help, bool required) {
  Register(name, Type::kInt, target, help, required,
           StrFormat("%d", *target));
}

void FlagSet::Int64(const std::string& name, int64_t* target,
                    const std::string& help, bool required) {
  Register(name, Type::kInt64, target, help, required,
           StrFormat("%lld", static_cast<long long>(*target)));
}

void FlagSet::Uint64(const std::string& name, uint64_t* target,
                     const std::string& help, bool required) {
  Register(name, Type::kUint64, target, help, required,
           StrFormat("%llu", static_cast<unsigned long long>(*target)));
}

void FlagSet::Double(const std::string& name, double* target,
                     const std::string& help, bool required) {
  Register(name, Type::kDouble, target, help, required,
           StrFormat("%g", *target));
}

void FlagSet::Bool(const std::string& name, bool* target,
                   const std::string& help) {
  Register(name, Type::kBool, target, help, /*required=*/false,
           *target ? "true" : "false");
}

FlagSet::Flag* FlagSet::Find(const std::string& name) {
  for (Flag& f : flags_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

const FlagSet::Flag* FlagSet::Find(const std::string& name) const {
  for (const Flag& f : flags_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

Status FlagSet::SetValue(Flag* flag, const std::string& value,
                         bool has_value) {
  if (flag->type == Type::kBool) {
    bool parsed = true;
    if (has_value && !ParseBool(value, &parsed)) {
      return Status::InvalidArgument(StrFormat(
          "flag --%s expects true/false/1/0, got \"%s\"",
          flag->name.c_str(), value.c_str()));
    }
    *static_cast<bool*>(flag->target) = parsed;
    flag->set = true;
    return Status::OK();
  }
  if (!has_value) {
    return Status::InvalidArgument(
        StrFormat("flag --%s requires a value (--%s=<%s>)",
                  flag->name.c_str(), flag->name.c_str(),
                  TypeName(static_cast<int>(flag->type))));
  }
  bool ok = false;
  switch (flag->type) {
    case Type::kString:
      *static_cast<std::string*>(flag->target) = value;
      ok = true;
      break;
    case Type::kInt: {
      int64_t v = 0;
      ok = ParseInt64(value, &v) && v >= INT32_MIN && v <= INT32_MAX;
      if (ok) *static_cast<int*>(flag->target) = static_cast<int>(v);
      break;
    }
    case Type::kInt64: {
      int64_t v = 0;
      ok = ParseInt64(value, &v);
      if (ok) *static_cast<int64_t*>(flag->target) = v;
      break;
    }
    case Type::kUint64: {
      uint64_t v = 0;
      ok = ParseUint64(value, &v);
      if (ok) *static_cast<uint64_t*>(flag->target) = v;
      break;
    }
    case Type::kDouble: {
      double v = 0.0;
      ok = ParseDouble(value, &v);
      if (ok) *static_cast<double*>(flag->target) = v;
      break;
    }
    case Type::kBool:
      break;  // handled above
  }
  if (!ok) {
    return Status::InvalidArgument(
        StrFormat("flag --%s expects a value of type %s, got \"%s\"",
                  flag->name.c_str(),
                  TypeName(static_cast<int>(flag->type)), value.c_str()));
  }
  flag->set = true;
  return Status::OK();
}

Status FlagSet::Parse(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return Status::OK();
    }
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument(
          StrFormat("unexpected positional argument \"%s\"", arg.c_str()));
    }
    const size_t eq = arg.find('=');
    const std::string name =
        eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
    const bool has_value = eq != std::string::npos;
    const std::string value = has_value ? arg.substr(eq + 1) : "";
    Flag* flag = Find(name);
    if (flag == nullptr) {
      return Status::InvalidArgument(StrFormat(
          "unknown flag --%s (see --help)", name.c_str()));
    }
    SGCL_RETURN_NOT_OK(SetValue(flag, value, has_value));
  }
  for (const Flag& f : flags_) {
    if (f.required && !f.set) {
      return Status::InvalidArgument(
          StrFormat("missing required flag --%s", f.name.c_str()));
    }
  }
  return Status::OK();
}

bool FlagSet::IsSet(const std::string& name) const {
  const Flag* flag = Find(name);
  return flag != nullptr && flag->set;
}

std::string FlagSet::Help() const {
  std::string out = "usage: " + usage_ + " [--flags]\n";
  size_t width = 0;
  std::vector<std::string> heads;
  heads.reserve(flags_.size());
  for (const Flag& f : flags_) {
    std::string head = StrFormat("  --%s=<%s>", f.name.c_str(),
                                 TypeName(static_cast<int>(f.type)));
    width = std::max(width, head.size());
    heads.push_back(std::move(head));
  }
  for (size_t i = 0; i < flags_.size(); ++i) {
    const Flag& f = flags_[i];
    out += heads[i];
    out.append(width - heads[i].size() + 2, ' ');
    out += f.help;
    out += f.required ? " (required)"
                      : StrFormat(" (default: %s)", f.default_str.c_str());
    out += '\n';
  }
  return out;
}

}  // namespace sgcl
