// Small string formatting helpers (libstdc++ 12 lacks <format>).
#ifndef SGCL_COMMON_STRING_UTIL_H_
#define SGCL_COMMON_STRING_UTIL_H_

#include <cstdarg>
#include <string>
#include <vector>

namespace sgcl {

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> StrSplit(const std::string& s, char sep);

}  // namespace sgcl

#endif  // SGCL_COMMON_STRING_UTIL_H_
