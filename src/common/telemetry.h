// Live telemetry facade: one HttpServer wired to the process-wide
// observability state, so a training/bench run can be scraped while it
// is running instead of only inspected post-hoc via --metrics-out.
//
// Endpoints (all GET, loopback only):
//   /metrics  Prometheus text exposition of the global MetricsRegistry
//             (text/plain; version=0.0.4).
//   /healthz  JSON liveness: status, uptime, run id, version, build info.
//   /status   JSON live run progress from the RunStatusBoard (state,
//             in-progress epoch, last losses, per-stage seconds).
//   /trace    chrome://tracing JSON of the trace ring's committed traces
//             (empty traceEvents when nothing is sampled).
//   /v1/traces       Sampled trace ring summaries, newest first
//                    (?min_duration_us=, ?limit=).
//   /v1/traces/<id>  Span tree for one sampled trace (16-hex-digit id).
//
// Correlation: every export is stamped with the process run id
// (logging's SetRunId/GetRunId), the same id the JSONL log sink writes,
// so logs, metrics, status, and traces join on one key.
#ifndef SGCL_COMMON_TELEMETRY_H_
#define SGCL_COMMON_TELEMETRY_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/http_server.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace sgcl {

// Semantic version reported by /healthz.
inline constexpr const char* kSgclVersion = "0.4.0";

// Process-unique correlation id: wall-clock seconds, pid, and a process
// counter, e.g. "run-68b2c1a4-1f3a-1".
std::string GenerateRunId();

// Thread-safe live view of the current run, published by the trainer's
// on_epoch_end observer (wired in the CLI) and read by /status. Writers
// take a short mutex per epoch — far off any hot path.
class RunStatusBoard {
 public:
  // Marks a run in progress (state "running") and resets epoch state.
  void BeginRun(const std::string& command, int total_epochs);
  // Publishes a completed epoch; /status then shows epoch `epoch + 1`
  // of `total` as in progress until the next call or EndRun.
  void RecordEpoch(int epoch, int total_epochs, double loss, double seconds,
                   const std::map<std::string, double>& stage_seconds);
  // Final state: "done" or "failed".
  void EndRun(bool ok);
  // Publishes a completed checkpoint save (wired to
  // PretrainOptions::on_checkpoint); /status then reports the latest
  // checkpoint path, count, and cumulative save seconds.
  void RecordCheckpoint(const std::string& path, double seconds);
  // Distributed worker rows, fed by the all-reduce coordinator in rank
  // 0's process. /status renders them as a "workers" array: connection
  // state, the last round each rank submitted a leaf for (-1 before the
  // first), and its cumulative leaf count.
  void RecordWorkerConnected(int rank, bool connected);
  void RecordWorkerLeaf(int rank, int64_t round);

  // One JSON object: run_id, state, command, uptime_seconds,
  // completed_epochs, epoch (in progress, 1-based), total_epochs,
  // last_loss, last_epoch_seconds, losses (per completed epoch),
  // cumulative stage_seconds, checkpoint {count, last_path,
  // total_seconds} when any checkpoint was saved, and workers
  // [{rank, connected, last_round, leaves}] when distributed. Formats a
  // copy taken under the lock, so a scrape never holds up a writer.
  std::string ToJson() const;

 private:
  struct WorkerRow {
    bool connected = false;
    int64_t last_round = -1;
    int64_t leaves = 0;
  };
  // Everything /status shows.
  struct Fields {
    std::string command;
    std::string state = "idle";
    int completed_epochs = 0;
    int total_epochs = 0;
    double last_epoch_seconds = 0.0;
    std::vector<double> losses;
    std::map<std::string, double> stage_seconds;
    int checkpoint_count = 0;
    std::string last_checkpoint_path;
    double checkpoint_seconds = 0.0;
    std::map<int, WorkerRow> workers;
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
  };

  mutable std::mutex mu_;
  Fields fields_ SGCL_GUARDED_BY(mu_);
};

// Registers the shared diagnostics handlers — GET /metrics (Prometheus
// text of the global registry), GET /healthz (JSON liveness stamped
// with run id/version/uptime), and the GET /trace (chrome JSON) and
// /v1/traces[/<id>] views of the global TraceRing — on any HttpServer. Used by both the
// telemetry endpoint and the inference service (serve/service.*) so
// every HTTP surface in the process is scrapable the same way. `start`
// anchors the reported uptime.
void RegisterDiagnosticsHandlers(HttpServer* server,
                                 std::chrono::steady_clock::time_point start);

// Owns the HTTP server plus the endpoint handlers. Scoped: Stop() (or
// destruction) joins the server thread.
class TelemetryServer {
 public:
  TelemetryServer() = default;
  ~TelemetryServer();

  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  // Starts serving on 127.0.0.1:`port` (0 = ephemeral; see port()).
  // `board` may be null, in which case /status reports state "idle";
  // when non-null it must outlive the server.
  Status Start(int port, const RunStatusBoard* board);
  void Stop();

  int port() const { return server_.port(); }
  bool running() const { return server_.running(); }
  int64_t requests_served() const { return server_.requests_served(); }

 private:
  HttpServer server_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace sgcl

#endif  // SGCL_COMMON_TELEMETRY_H_
