// Arrow-style Status / Result error model.
//
// Library functions that can fail on user input return Status (or Result<T>
// when they produce a value). Internal invariant violations use SGCL_CHECK.
// The library never throws.
#ifndef SGCL_COMMON_STATUS_H_
#define SGCL_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "common/check.h"

namespace sgcl {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kOutOfRange = 2,
  kNotFound = 3,
  kAlreadyExists = 4,
  kFailedPrecondition = 5,
  kUnimplemented = 6,
  kInternal = 7,
  kUnavailable = 8,
};

// Returns a stable human-readable name for `code` ("OK", "InvalidArgument"...).
const char* StatusCodeToString(StatusCode code);

// A cheap, copyable success-or-error value. [[nodiscard]] on the class
// makes the compiler flag any call whose returned Status is silently
// dropped — the core of the error model. The build makes that diagnostic
// an error (-Werror=unused-result); tests/testdata/discarded_status.cc
// pins the call forms it covers.
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  // Transient overload / shutting down; callers may retry after backoff
  // (the serving layer maps this to HTTP 503 + Retry-After).
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

// A value-or-error. Accessing the value of an errored Result is a fatal
// programming error; callers must test ok() (or use ValueOrDie in tests).
template <typename T>
class [[nodiscard]] Result {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): intentional implicit
  // conversions so `return value;` and `return status;` both work.
  Result(T value) : value_(std::move(value)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Result(Status status) : status_(std::move(status)) {
    SGCL_CHECK(!status_.ok());  // A Result built from a Status must be an error.
  }

  [[nodiscard]] bool ok() const { return status_.ok(); }
  [[nodiscard]] const Status& status() const { return status_; }

  const T& value() const& {
    SGCL_CHECK(ok());
    return *value_;
  }
  T& value() & {
    SGCL_CHECK(ok());
    return *value_;
  }
  T&& value() && {
    SGCL_CHECK(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace sgcl

// Propagates a non-OK Status out of the current function.
#define SGCL_RETURN_NOT_OK(expr)          \
  do {                                    \
    ::sgcl::Status _st = (expr);          \
    if (!_st.ok()) return _st;            \
  } while (0)

// Evaluates a Result expression, propagating the error or binding the value.
#define SGCL_ASSIGN_OR_RETURN(lhs, rexpr)      \
  auto SGCL_CONCAT_(_res_, __LINE__) = (rexpr); \
  if (!SGCL_CONCAT_(_res_, __LINE__).ok())      \
    return SGCL_CONCAT_(_res_, __LINE__).status(); \
  lhs = std::move(SGCL_CONCAT_(_res_, __LINE__)).value()

#define SGCL_CONCAT_IMPL_(a, b) a##b
#define SGCL_CONCAT_(a, b) SGCL_CONCAT_IMPL_(a, b)

#endif  // SGCL_COMMON_STATUS_H_
