#include "common/telemetry.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"

namespace sgcl {
namespace {

// Value of `key` in a raw query string ("a=1&b=2"); empty when absent.
// No %-decoding: every /v1/traces parameter is numeric.
std::string QueryParam(const std::string& query, const std::string& key) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < amp &&
        query.compare(pos, eq - pos, key) == 0) {
      return query.substr(eq + 1, amp - eq - 1);
    }
    pos = amp + 1;
  }
  return std::string();
}

int64_t QueryInt(const std::string& query, const std::string& key,
                 int64_t fallback) {
  const std::string v = QueryParam(query, key);
  if (v.empty()) return fallback;
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(v.c_str(), &end, 10);
  if (errno != 0 || end == v.c_str() || *end != '\0') return fallback;
  return parsed;
}

}  // namespace

std::string GenerateRunId() {
  static std::atomic<int> counter{0};
  const auto wall = std::chrono::duration_cast<std::chrono::seconds>(
                        std::chrono::system_clock::now().time_since_epoch())
                        .count();
  return StrFormat("run-%08llx-%04x-%d",
                   static_cast<unsigned long long>(wall),
                   static_cast<unsigned>(getpid()) & 0xffff,
                   counter.fetch_add(1) + 1);
}

void RunStatusBoard::BeginRun(const std::string& command, int total_epochs) {
  Fields fresh;
  fresh.command = command;
  fresh.state = "running";
  fresh.total_epochs = total_epochs;
  std::lock_guard<std::mutex> lock(mu_);
  fields_ = std::move(fresh);
}

void RunStatusBoard::RecordEpoch(
    int epoch, int total_epochs, double loss, double seconds,
    const std::map<std::string, double>& stage_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  fields_.completed_epochs = epoch + 1;
  fields_.total_epochs = total_epochs;
  fields_.last_epoch_seconds = seconds;
  fields_.losses.push_back(loss);
  for (const auto& [stage, secs] : stage_seconds) {
    fields_.stage_seconds[stage] += secs;
  }
}

void RunStatusBoard::EndRun(bool ok) {
  std::lock_guard<std::mutex> lock(mu_);
  fields_.state = ok ? "done" : "failed";
}

void RunStatusBoard::RecordCheckpoint(const std::string& path,
                                      double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  ++fields_.checkpoint_count;
  fields_.last_checkpoint_path = path;
  fields_.checkpoint_seconds += seconds;
}

void RunStatusBoard::RecordWorkerConnected(int rank, bool connected) {
  std::lock_guard<std::mutex> lock(mu_);
  fields_.workers[rank].connected = connected;
}

void RunStatusBoard::RecordWorkerLeaf(int rank, int64_t round) {
  std::lock_guard<std::mutex> lock(mu_);
  WorkerRow& row = fields_.workers[rank];
  row.last_round = round;
  ++row.leaves;
}

std::string RunStatusBoard::ToJson() const {
  Fields f;
  {
    std::lock_guard<std::mutex> lock(mu_);
    f = fields_;
  }
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - f.start)
          .count();
  // The in-progress epoch is 1-based and clamps at total once finished.
  const int in_progress =
      f.state == "running" ? std::min(f.completed_epochs + 1, f.total_epochs)
                           : f.completed_epochs;
  std::string json = "{\"run_id\":\"" + JsonEscape(GetRunId()) + "\"";
  json += ",\"state\":\"" + JsonEscape(f.state) + "\"";
  json += ",\"command\":\"" + JsonEscape(f.command) + "\"";
  json += ",\"uptime_seconds\":" + JsonDouble(uptime);
  json += ",\"epoch\":" + std::to_string(in_progress);
  json += ",\"completed_epochs\":" + std::to_string(f.completed_epochs);
  json += ",\"total_epochs\":" + std::to_string(f.total_epochs);
  json += ",\"last_loss\":" + (f.losses.empty() ? std::string("null")
                                                 : JsonDouble(f.losses.back()));
  json += ",\"last_epoch_seconds\":" + JsonDouble(f.last_epoch_seconds);
  json += ",\"losses\":[";
  for (size_t i = 0; i < f.losses.size(); ++i) {
    if (i > 0) json += ',';
    json += JsonDouble(f.losses[i]);
  }
  json += "],\"stage_seconds\":{";
  bool first = true;
  for (const auto& [stage, secs] : f.stage_seconds) {
    if (!first) json += ',';
    first = false;
    // Appended piecewise: GCC 12's -Wrestrict misfires on chained
    // std::string operator+ here (PR105329).
    json.append("\"").append(JsonEscape(stage)).append("\":");
    json.append(JsonDouble(secs));
  }
  json += "}";
  if (f.checkpoint_count > 0) {
    json += ",\"checkpoint\":{\"count\":" + std::to_string(f.checkpoint_count);
    json.append(",\"last_path\":\"")
        .append(JsonEscape(f.last_checkpoint_path))
        .append("\"");
    json += ",\"total_seconds\":" + JsonDouble(f.checkpoint_seconds) + "}";
  }
  if (!f.workers.empty()) {
    json += ",\"workers\":[";
    bool first_worker = true;
    for (const auto& [rank, row] : f.workers) {
      if (!first_worker) json += ',';
      first_worker = false;
      json.append("{\"rank\":").append(std::to_string(rank));
      json.append(",\"connected\":").append(row.connected ? "true" : "false");
      json.append(",\"last_round\":").append(std::to_string(row.last_round));
      json.append(",\"leaves\":").append(std::to_string(row.leaves));
      json.append("}");
    }
    json += "]";
  }
  json += "}";
  return json;
}

void RegisterDiagnosticsHandlers(HttpServer* server,
                                 std::chrono::steady_clock::time_point start) {
  server->Handle("/metrics", [](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = MetricsRegistry::Global().Snapshot().ToPrometheusText();
    return response;
  });
  server->Handle("/healthz", [start](const HttpRequest&) {
    const double uptime = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    HttpResponse response;
    response.content_type = "application/json";
    response.body = "{\"status\":\"ok\",\"version\":\"" +
                    std::string(kSgclVersion) + "\",\"run_id\":\"" +
                    JsonEscape(GetRunId()) + "\",\"uptime_seconds\":" +
                    JsonDouble(uptime) + ",\"pid\":" +
                    std::to_string(getpid()) + ",\"compiler\":\"" +
                    JsonEscape(__VERSION__) + "\"}";
    return response;
  });
  // Sampled trace ring: every committed trace as chrome JSON (the dump
  // tools/trace_report reads), a list (newest first, ?min_duration_us=
  // &limit= filters) and per-trace span trees at /v1/traces/<hex id>.
  server->Handle("/trace", [](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = TraceRing::Global().ToChromeTraceJson();
    return response;
  });
  server->Handle("/v1/traces", [](const HttpRequest& request) {
    HttpResponse response;
    response.content_type = "application/json";
    const int64_t min_duration_us =
        QueryInt(request.query, "min_duration_us", 0);
    const int64_t limit = QueryInt(request.query, "limit", 0);
    response.body = TraceRing::Global().ListJson(min_duration_us,
                                                 static_cast<int>(limit));
    return response;
  });
  server->HandlePrefix("/v1/traces/", [](const HttpRequest& request) {
    HttpResponse response;
    response.content_type = "application/json";
    const std::string id_text =
        request.path.substr(std::string("/v1/traces/").size());
    const uint64_t trace_id = ParseTraceId(id_text);
    std::string tree =
        trace_id == 0 ? std::string() : TraceRing::Global().TreeJson(trace_id);
    if (tree.empty()) {
      response.status = 404;
      response.body = StrFormat(
          "{\"error\":{\"code\":404,\"message\":\"unknown trace %s\"}}",
          JsonEscape(id_text).c_str());
      return response;
    }
    response.body = std::move(tree);
    return response;
  });
}

TelemetryServer::~TelemetryServer() { Stop(); }

Status TelemetryServer::Start(int port, const RunStatusBoard* board) {
  start_ = std::chrono::steady_clock::now();
  RegisterDiagnosticsHandlers(&server_, start_);
  server_.Handle("/status", [board](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    if (board == nullptr) {
      response.body = "{\"state\":\"idle\"}";
    } else {
      response.body = board->ToJson();
    }
    return response;
  });
  SGCL_RETURN_NOT_OK(server_.Start(port));
  SGCL_LOG(INFO) << "telemetry listening on http://127.0.0.1:"
                 << server_.port()
                 << " (/metrics /healthz /status /trace /v1/traces)";
  return Status::OK();
}

void TelemetryServer::Stop() { server_.Stop(); }

}  // namespace sgcl
