#include "common/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"

namespace sgcl {
namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::kInfo)};

// Sink registry and run id share one mutex; log volume is low enough
// (stage/epoch granularity, never per-node) that a lock per record is
// fine.
std::mutex& SinkMutex() {
  // Intentionally leaked: usable during static destruction.
  static std::mutex* mu = new std::mutex();  // NOLINT(sgcl-R5)
  return *mu;
}

std::vector<LogSink*>& Sinks() {
  // NOLINTNEXTLINE(sgcl-R5): intentionally leaked singleton
  static std::vector<LogSink*>* sinks = new std::vector<LogSink*>();
  return *sinks;
}

std::string& RunIdStorage() {
  static std::string* id = new std::string();  // NOLINT(sgcl-R5): leaked singleton
  return *id;
}

// Trims a path down to its basename for compact log lines.
const char* Basename(const char* path) {
  const char* base = path;
  for (const char* p = path; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  return base;
}

}  // namespace

void SetLogLevel(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

const char* LogLevelLetter(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
  }
  return "?";
}

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarning:
      return "warning";
    case LogLevel::kError:
      return "error";
  }
  return "unknown";
}

void SetRunId(const std::string& run_id) {
  std::lock_guard<std::mutex> lock(SinkMutex());
  RunIdStorage() = run_id;
}

std::string GetRunId() {
  std::lock_guard<std::mutex> lock(SinkMutex());
  return RunIdStorage();
}

void AddLogSink(LogSink* sink) {
  std::lock_guard<std::mutex> lock(SinkMutex());
  Sinks().push_back(sink);
}

void RemoveLogSink(LogSink* sink) {
  std::lock_guard<std::mutex> lock(SinkMutex());
  auto& sinks = Sinks();
  for (auto it = sinks.begin(); it != sinks.end(); ++it) {
    if (*it == sink) {
      sinks.erase(it);
      return;
    }
  }
}

Result<std::unique_ptr<JsonlLogSink>> JsonlLogSink::Open(
    const std::string& path) {
  std::ofstream out(path, std::ios::app);
  if (!out) {
    return Status::InvalidArgument("cannot open log file for append: " +
                                   path);
  }
  return std::unique_ptr<JsonlLogSink>(
      // NOLINTNEXTLINE(sgcl-R5): private ctor, make_unique cannot reach it
      new JsonlLogSink(std::move(out), path));
}

JsonlLogSink::JsonlLogSink(std::ofstream out, std::string path)
    : out_(std::move(out)), path_(std::move(path)) {}

JsonlLogSink::~JsonlLogSink() = default;

void JsonlLogSink::Write(const LogRecord& record) {
  std::string line = "{\"run_id\":\"" + JsonEscape(record.run_id) + "\"";
  line += ",\"t_mono_us\":" + std::to_string(record.mono_us);
  line += ",\"t_wall_ms\":" + std::to_string(record.wall_ms);
  line += ",\"tid\":" + std::to_string(record.tid);
  line += std::string(",\"level\":\"") + LogLevelName(record.level) + "\"";
  line += ",\"src\":\"" + JsonEscape(Basename(record.file)) + ":" +
          std::to_string(record.line) + "\"";
  line += ",\"msg\":\"" + JsonEscape(record.message) + "\"}";
  std::lock_guard<std::mutex> lock(mu_);
  out_ << line << '\n';
  out_.flush();  // logs must survive a crash; volume is low
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level), file_(file), line_(line) {}

LogMessage::~LogMessage() {
  if (static_cast<int>(level_) <
      g_level.load(std::memory_order_relaxed)) {
    return;
  }
  LogRecord record;
  record.level = level_;
  record.file = file_;
  record.line = line_;
  record.tid = TraceThreadId();
  record.mono_us = TraceNowUs();
  record.wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::system_clock::now().time_since_epoch())
                       .count();
  record.message = stream_.str();

  std::fprintf(stderr, "[%s %s:%d] %s\n", LogLevelLetter(level_),
               Basename(file_), line_, record.message.c_str());

  // One acquisition covers the run id read and the sink fan-out; sink
  // Write implementations must therefore never log or touch the sink
  // registry themselves.
  std::lock_guard<std::mutex> lock(SinkMutex());
  record.run_id = RunIdStorage();
  for (LogSink* sink : Sinks()) sink->Write(record);
}

}  // namespace internal
}  // namespace sgcl
