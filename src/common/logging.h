// Minimal leveled logger with pluggable sinks.
//
// Usage: SGCL_LOG(INFO) << "epoch " << e << " loss " << loss;
// The global threshold defaults to INFO and can be raised (e.g. in benches)
// via SetLogLevel.
//
// Records always go to stderr in the classic "[I file:line] msg" form;
// additional sinks can be attached with AddLogSink. JsonlLogSink writes
// one structured JSON object per record (run id, monotonic time, wall
// time, dense thread id, level, source, message) so log lines correlate
// with the metrics registry and trace spans of the same run: thread ids
// are trace.h's dense TraceThreadId numbering and timestamps its
// TraceNowUs clock, while the run id (SetRunId) is stamped on all three
// export formats.
#ifndef SGCL_COMMON_LOGGING_H_
#define SGCL_COMMON_LOGGING_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace sgcl {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

// Stable single-character / full names for a level ("I" / "info").
const char* LogLevelLetter(LogLevel level);
const char* LogLevelName(LogLevel level);

// Process-wide run correlation id, stamped on structured log records and
// surfaced by the telemetry endpoints. Empty until a tool sets it.
void SetRunId(const std::string& run_id);
std::string GetRunId();

// A fully-formed log record as handed to sinks (threshold already
// applied).
struct LogRecord {
  LogLevel level = LogLevel::kInfo;
  const char* file = "";  // __FILE__ of the call site
  int line = 0;
  int tid = 0;         // TraceThreadId() dense thread id
  int64_t mono_us = 0; // TraceNowUs() microseconds
  int64_t wall_ms = 0; // system_clock milliseconds since the Unix epoch
  std::string run_id;  // GetRunId() at record time
  std::string message;
};

// Sink interface. Write may be called concurrently from any thread;
// implementations synchronize internally.
class LogSink {
 public:
  virtual ~LogSink() = default;
  virtual void Write(const LogRecord& record) = 0;
};

// Attach / detach a sink (not owned; detach before destroying it).
void AddLogSink(LogSink* sink);
void RemoveLogSink(LogSink* sink);

// Structured JSONL file sink. Open() appends to `path` (so multiple runs
// can share one file, distinguished by run_id) and fails fast with
// InvalidArgument when the path is unwritable. Each record is one line:
// {"run_id":...,"t_mono_us":...,"t_wall_ms":...,"tid":...,"level":...,
//  "src":"file:line","msg":...}
class JsonlLogSink : public LogSink {
 public:
  static Result<std::unique_ptr<JsonlLogSink>> Open(const std::string& path);
  ~JsonlLogSink() override;

  void Write(const LogRecord& record) override;

 private:
  JsonlLogSink(std::ofstream out, std::string path);

  std::mutex mu_;
  std::ofstream out_ SGCL_GUARDED_BY(mu_);
  std::string path_;
};

namespace internal {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace sgcl

#define SGCL_LOG_DEBUG ::sgcl::LogLevel::kDebug
#define SGCL_LOG_INFO ::sgcl::LogLevel::kInfo
#define SGCL_LOG_WARNING ::sgcl::LogLevel::kWarning
#define SGCL_LOG_ERROR ::sgcl::LogLevel::kError

#define SGCL_LOG(severity)                                              \
  ::sgcl::internal::LogMessage(SGCL_LOG_##severity, __FILE__, __LINE__) \
      .stream()

#endif  // SGCL_COMMON_LOGGING_H_
