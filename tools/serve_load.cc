// Load generator / latency bench for `sgcl_cli serve`.
//
//   serve_load --port=P [--endpoint=embed|predict] [--concurrency=C]
//              [--duration-s=S] [--warmup-s=W] [--qps=Q]
//              [--graphs-per-request=G] [--nodes=N] [--extra-edge-factor=F]
//              [--pool=R] [--seed=S] [--name-prefix=serve/batched]
//              [--out-json=current.json] [--slowest-traces=K]
//
// Drives POST /v1/{embed,predict} over keep-alive connections with a
// seeded synthetic graph mix: `--pool` request bodies are generated and
// serialized up front (connected random graphs of ~--nodes nodes with
// uniform features), then `--concurrency` worker threads replay them
// round-robin — closed-loop when --qps=0, paced open-loop otherwise.
// Samples inside the warmup window are discarded.
//
// Reporting: p50/p95/p99/mean latency, achieved QPS, HTTP error counts,
// and the server's own batch-occupancy stats scraped from GET /status
// (the micro-batcher's batch_graphs histogram). --out-json writes a
// bench_diff-readable file: achieved QPS (higher is better) and the
// latency quantiles in microseconds, with QPS, occupancy, request counts
// and the load configuration recorded in the "context" object.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bench_compare.h"
#include "common/flags.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"

namespace sgcl {
namespace {

using Clock = std::chrono::steady_clock;

// Minimal blocking keep-alive HTTP/1.1 client: Content-Length framing,
// one reconnect attempt per roundtrip.
class HttpClient {
 public:
  explicit HttpClient(int port) : port_(port) {}
  ~HttpClient() { CloseFd(); }

  // Sends a fully serialized request, reads one response. Returns the
  // HTTP status code; fills `body` when non-null.
  Result<int> Roundtrip(const std::string& request, std::string* body) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      if (fd_ < 0) {
        const Status st = Connect();
        if (!st.ok()) return st;
        if (attempt > 0) ++reconnects_;
      }
      if (!SendAll(request)) {
        CloseFd();
        continue;  // stale keep-alive connection: reconnect once
      }
      auto status_code = ReadResponse(body);
      if (status_code.ok()) return status_code;
      CloseFd();
    }
    return Status::Unavailable("connection failed twice");
  }

  int64_t reconnects() const { return reconnects_; }

  // Trace id echoed by the server in X-Sgcl-Trace on the most recent
  // response (empty when the request was not sampled).
  const std::string& last_trace_id() const { return last_trace_id_; }

 private:
  Status Connect() {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return Status::Internal("socket() failed");
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    if (connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) < 0) {
      CloseFd();
      return Status::Unavailable(
          StrFormat("connect(127.0.0.1:%d) failed: %s", port_,
                    strerror(errno)));
    }
    return Status::OK();
  }

  void CloseFd() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }

  bool SendAll(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  Result<int> ReadResponse(std::string* body) {
    std::string buf;
    size_t header_end = std::string::npos;
    char chunk[4096];
    while (header_end == std::string::npos) {
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return Status::Unavailable("recv failed in headers");
      buf.append(chunk, static_cast<size_t>(n));
      header_end = buf.find("\r\n\r\n");
    }
    // Status line: HTTP/1.1 NNN ...
    const size_t sp = buf.find(' ');
    if (sp == std::string::npos || sp + 4 > buf.size()) {
      return Status::Internal("malformed status line");
    }
    const int code = std::atoi(buf.c_str() + sp + 1);
    // Content-Length framing (the server always sends it).
    size_t content_length = 0;
    last_trace_id_.clear();
    {
      const std::string lower = [&] {
        std::string h = buf.substr(0, header_end);
        std::transform(h.begin(), h.end(), h.begin(), ::tolower);
        return h;
      }();
      const size_t pos = lower.find("content-length:");
      if (pos == std::string::npos) {
        return Status::Internal("response without Content-Length");
      }
      content_length = static_cast<size_t>(
          std::atoll(lower.c_str() + pos + std::strlen("content-length:")));
      if (lower.find("connection: close") != std::string::npos) {
        must_close_ = true;
      }
      // Trace ids are lowercase hex, so parsing the lowered headers is
      // lossless.
      const size_t tpos = lower.find("x-sgcl-trace:");
      if (tpos != std::string::npos) {
        size_t v = tpos + std::strlen("x-sgcl-trace:");
        while (v < lower.size() && lower[v] == ' ') ++v;
        size_t end = v;
        while (end < lower.size() && std::isxdigit(lower[end])) ++end;
        last_trace_id_ = lower.substr(v, end - v);
      }
    }
    const size_t body_start = header_end + 4;
    while (buf.size() < body_start + content_length) {
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return Status::Unavailable("recv failed in body");
      buf.append(chunk, static_cast<size_t>(n));
    }
    if (body != nullptr) *body = buf.substr(body_start, content_length);
    if (must_close_) {
      CloseFd();
      must_close_ = false;
    }
    return code;
  }

  int port_;
  int fd_ = -1;
  bool must_close_ = false;
  int64_t reconnects_ = 0;
  std::string last_trace_id_;
};

// A connected random graph: spanning tree over `nodes` plus
// `extra_edge_factor * nodes` random extra edges. Features are either
// one-hot rows (the TU-dataset shape the model trains on: one random
// category per node) or dense uniform floats.
std::string GraphJson(Rng* rng, int64_t nodes, int64_t feat_dim,
                      double extra_edge_factor, bool onehot) {
  std::string features;
  char buf[32];
  if (onehot) {
    for (int64_t v = 0; v < nodes; ++v) {
      const int64_t hot = rng->UniformInt(feat_dim);
      for (int64_t j = 0; j < feat_dim; ++j) {
        if (v > 0 || j > 0) features += ',';
        features += j == hot ? '1' : '0';
      }
    }
  } else {
    for (int64_t i = 0; i < nodes * feat_dim; ++i) {
      if (i > 0) features += ',';
      std::snprintf(buf, sizeof(buf), "%.6g", rng->Uniform());
      features += buf;
    }
  }
  std::string edges;
  bool first = true;
  auto add_edge = [&](int64_t a, int64_t b) {
    if (!first) edges += ',';
    first = false;
    edges += StrFormat("%lld,%lld", static_cast<long long>(a),
                       static_cast<long long>(b));
  };
  for (int64_t v = 1; v < nodes; ++v) {
    add_edge(rng->UniformInt(v), v);  // spanning tree: parent < v
  }
  const int64_t extra =
      static_cast<int64_t>(extra_edge_factor * static_cast<double>(nodes));
  for (int64_t e = 0; e < extra && nodes >= 2; ++e) {
    const int64_t a = rng->UniformInt(nodes);
    const int64_t b = rng->UniformInt(nodes);
    if (a != b) add_edge(a, b);
  }
  return StrFormat("{\"num_nodes\":%lld,\"features\":[%s],\"edges\":[%s]}",
                   static_cast<long long>(nodes), features.c_str(),
                   edges.c_str());
}

std::string SerializeRequest(const std::string& path, const std::string& body,
                             int port) {
  return StrFormat("POST %s HTTP/1.1\r\nHost: 127.0.0.1:%d\r\n"
                   "Content-Type: application/json\r\n"
                   "Content-Length: %zu\r\nConnection: keep-alive\r\n\r\n",
                   path.c_str(), port, body.size()) +
         body;
}

struct WorkerStats {
  std::vector<double> lat_us;  // post-warmup samples
  // (latency_us, trace_id) for post-warmup responses the server sampled
  // (X-Sgcl-Trace header present) — feeds --slowest-traces.
  std::vector<std::pair<double, std::string>> traced;
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t http_errors = 0;
  int64_t transport_errors = 0;
  int64_t reconnects = 0;
};

double Quantile(std::vector<double>* sorted, double q) {
  if (sorted->empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted->size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted->size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return (*sorted)[lo] * (1.0 - frac) + (*sorted)[hi] * frac;
}

int Run(int argc, char** argv) {
  int port = 0;
  std::string endpoint = "embed";
  int concurrency = 4;
  double duration_s = 5.0;
  double warmup_s = 0.5;
  double qps = 0.0;
  int64_t graphs_per_request = 4;
  int64_t nodes = 12;
  double extra_edge_factor = 0.5;
  std::string features = "onehot";
  int64_t pool = 64;
  uint64_t seed = 1;
  std::string name_prefix = "serve/batched";
  std::string out_json;
  int64_t slowest_traces = 0;
  FlagSet flags("serve_load");
  flags.Int("port", &port, "sgcl_cli serve port (required)");
  flags.String("endpoint", &endpoint, "embed|predict");
  flags.Int("concurrency", &concurrency, "concurrent client connections");
  flags.Double("duration-s", &duration_s, "measured load duration");
  flags.Double("warmup-s", &warmup_s,
               "initial seconds whose samples are discarded");
  flags.Double("qps", &qps,
               "target request rate across all connections; 0 = closed "
               "loop (send as fast as responses return)");
  flags.Int64("graphs-per-request", &graphs_per_request,
              "graphs per POST body");
  flags.Int64("nodes", &nodes, "nodes per generated graph");
  flags.Double("extra-edge-factor", &extra_edge_factor,
               "extra random edges per node beyond the spanning tree");
  flags.String("features", &features,
               "onehot (TU-style categorical rows) | uniform (dense "
               "random floats)");
  flags.Int64("pool", &pool, "distinct pre-serialized request bodies");
  flags.Uint64("seed", &seed, "graph-mix seed");
  flags.String("name-prefix", &name_prefix,
               "benchmark entry prefix in --out-json");
  flags.String("out-json", &out_json,
               "write results as a bench_diff-readable JSON file");
  flags.Int64("slowest-traces", &slowest_traces,
              "print the trace ids of the K worst-latency sampled "
              "requests (needs the server started with "
              "--trace-sample-rate > 0; look them up at /v1/traces/<id>)");
  const Status st = flags.Parse(argc, argv, 1);
  if (flags.help_requested()) {
    std::printf("%s", flags.Help().c_str());
    return 0;
  }
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n%s", st.ToString().c_str(),
                 flags.Help().c_str());
    return 2;
  }
  if (port <= 0) {
    std::fprintf(stderr, "error: --port is required (see sgcl_cli serve)\n");
    return 2;
  }
  if (endpoint != "embed" && endpoint != "predict") {
    std::fprintf(stderr, "error: --endpoint must be embed or predict\n");
    return 2;
  }
  if (features != "onehot" && features != "uniform") {
    std::fprintf(stderr, "error: --features must be onehot or uniform\n");
    return 2;
  }
  if (concurrency < 1 || pool < 1 || graphs_per_request < 1 || nodes < 2 ||
      duration_s <= 0.0) {
    std::fprintf(stderr, "error: implausible load configuration\n");
    return 2;
  }
  // Model metadata from the server (feature dimension sizes the mix).
  HttpClient probe(port);
  std::string info_body;
  auto info_code = probe.Roundtrip(
      StrFormat("GET /v1/info HTTP/1.1\r\nHost: 127.0.0.1:%d\r\n"
                "Connection: keep-alive\r\n\r\n", port),
      &info_body);
  if (!info_code.ok() || *info_code != 200) {
    std::fprintf(stderr, "error: GET /v1/info failed (%s)\n",
                 info_code.ok() ? std::to_string(*info_code).c_str()
                                : info_code.status().ToString().c_str());
    return 2;
  }
  auto info = JsonValue::Parse(info_body);
  if (!info.ok()) {
    std::fprintf(stderr, "error: /v1/info: %s\n",
                 info.status().ToString().c_str());
    return 2;
  }
  const JsonValue* model = info->Find("model");
  const int64_t feat_dim = static_cast<int64_t>(
      model != nullptr ? model->GetDouble("feat_dim", 0) : 0);
  if (feat_dim <= 0) {
    std::fprintf(stderr, "error: /v1/info reported no feat_dim\n");
    return 2;
  }

  // Pre-serialized request pool: the per-request client cost during the
  // measured window is just send/recv.
  const std::string path = "/v1/" + endpoint;
  Rng rng(seed);
  std::vector<std::string> requests;
  requests.reserve(static_cast<size_t>(pool));
  for (int64_t r = 0; r < pool; ++r) {
    std::string graphs;
    for (int64_t g = 0; g < graphs_per_request; ++g) {
      if (g > 0) graphs += ',';
      // +/- 25% node-count jitter keeps batches ragged like real traffic.
      const int64_t lo = std::max<int64_t>(2, nodes - nodes / 4);
      const int64_t n = lo + rng.UniformInt(nodes + nodes / 4 - lo + 1);
      graphs += GraphJson(&rng, n, feat_dim, extra_edge_factor,
                          features == "onehot");
    }
    requests.push_back(
        SerializeRequest(path, "{\"graphs\":[" + graphs + "]}", port));
  }

  const auto start = Clock::now();
  const auto warmup_end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(warmup_s));
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(warmup_s + duration_s));
  std::vector<WorkerStats> stats(static_cast<size_t>(concurrency));
  std::vector<std::thread> workers;
  for (int w = 0; w < concurrency; ++w) {
    workers.emplace_back([&, w] {
      WorkerStats& mine = stats[static_cast<size_t>(w)];
      HttpClient client(port);
      const double interval_s =
          qps > 0.0 ? static_cast<double>(concurrency) / qps : 0.0;
      int64_t k = 0;
      size_t next = static_cast<size_t>(w) % requests.size();
      while (Clock::now() < deadline) {
        if (interval_s > 0.0) {
          const auto slot =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              static_cast<double>(k) * interval_s));
          std::this_thread::sleep_until(slot);
          ++k;
          if (slot >= deadline) break;
        }
        const auto t0 = Clock::now();
        auto code = client.Roundtrip(requests[next], nullptr);
        const auto t1 = Clock::now();
        next = (next + static_cast<size_t>(concurrency)) % requests.size();
        ++mine.sent;
        if (!code.ok()) {
          ++mine.transport_errors;
          continue;
        }
        if (*code == 200) {
          ++mine.ok;
        } else {
          ++mine.http_errors;
        }
        if (t1 > warmup_end && *code == 200) {
          const double us =
              std::chrono::duration<double, std::micro>(t1 - t0).count();
          mine.lat_us.push_back(us);
          if (!client.last_trace_id().empty()) {
            mine.traced.emplace_back(us, client.last_trace_id());
          }
        }
      }
      mine.reconnects = client.reconnects();
    });
  }
  for (std::thread& t : workers) t.join();
  const double measured_s =
      std::chrono::duration<double>(Clock::now() - warmup_end).count();

  std::vector<double> lat;
  std::vector<std::pair<double, std::string>> traced;
  int64_t sent = 0, ok = 0, http_errors = 0, transport_errors = 0,
          reconnects = 0;
  for (WorkerStats& s : stats) {
    lat.insert(lat.end(), s.lat_us.begin(), s.lat_us.end());
    traced.insert(traced.end(), s.traced.begin(), s.traced.end());
    sent += s.sent;
    ok += s.ok;
    http_errors += s.http_errors;
    transport_errors += s.transport_errors;
    reconnects += s.reconnects;
  }
  std::sort(lat.begin(), lat.end());
  const double achieved_qps =
      measured_s > 0.0 ? static_cast<double>(lat.size()) / measured_s : 0.0;
  double mean = 0.0;
  for (double v : lat) mean += v;
  if (!lat.empty()) mean /= static_cast<double>(lat.size());
  const double p50 = Quantile(&lat, 0.50);
  const double p95 = Quantile(&lat, 0.95);
  const double p99 = Quantile(&lat, 0.99);

  // Server-side batching stats for the driven endpoint.
  double batch_mean = 0.0, batch_p95 = 0.0;
  int64_t batches = 0, rejected = 0;
  std::string status_body;
  auto status_code = probe.Roundtrip(
      StrFormat("GET /status HTTP/1.1\r\nHost: 127.0.0.1:%d\r\n"
                "Connection: keep-alive\r\n\r\n", port),
      &status_body);
  if (status_code.ok() && *status_code == 200) {
    auto parsed = JsonValue::Parse(status_body);
    if (parsed.ok()) {
      const JsonValue* ep = parsed->Find(endpoint);
      if (ep != nullptr) {
        batches = static_cast<int64_t>(ep->GetDouble("batches", 0));
        rejected = static_cast<int64_t>(ep->GetDouble("rejected", 0));
        const JsonValue* occupancy = ep->Find("batch_graphs");
        if (occupancy != nullptr) {
          batch_mean = occupancy->GetDouble("mean", 0.0);
          batch_p95 = occupancy->GetDouble("p95", 0.0);
        }
      }
    }
  }

  std::printf(
      "%s: %lld requests (%lld ok, %lld http errors, %lld transport, "
      "%lld reconnects), %.1f s measured\n",
      path.c_str(), static_cast<long long>(sent), static_cast<long long>(ok),
      static_cast<long long>(http_errors),
      static_cast<long long>(transport_errors),
      static_cast<long long>(reconnects), measured_s);
  std::printf("  qps %.1f | latency us p50 %.0f p95 %.0f p99 %.0f mean %.0f "
              "(%zu samples)\n",
              achieved_qps, p50, p95, p99, mean, lat.size());
  std::printf("  server batches %lld, occupancy mean %.2f p95 %.2f, "
              "rejected %lld\n",
              static_cast<long long>(batches), batch_mean, batch_p95,
              static_cast<long long>(rejected));

  if (slowest_traces > 0) {
    if (traced.empty()) {
      std::printf("  slowest traces: none sampled (start the server with "
                  "--trace-sample-rate > 0)\n");
    } else {
      std::sort(traced.begin(), traced.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      const size_t k = std::min(traced.size(),
                                static_cast<size_t>(slowest_traces));
      std::printf("  slowest traces (%zu of %zu sampled; "
                  "GET /v1/traces/<id> on port %d):\n",
                  k, traced.size(), port);
      for (size_t i = 0; i < k; ++i) {
        std::printf("    %s  %.0f us\n", traced[i].second.c_str(),
                    traced[i].first);
      }
    }
  }

  if (!out_json.empty()) {
    std::vector<BenchEntry> entries;
    const auto add = [&](const char* name, double value, const char* unit,
                         BenchBetter better) {
      BenchEntry e;
      e.name = name_prefix + "/" + name;
      e.value = value;
      e.unit = unit;
      e.better = better;
      entries.push_back(std::move(e));
    };
    add("qps", achieved_qps, "req/s", BenchBetter::kHigher);
    add("latency_p50_us", p50, "us", BenchBetter::kLower);
    add("latency_p95_us", p95, "us", BenchBetter::kLower);
    add("latency_p99_us", p99, "us", BenchBetter::kLower);
    add("latency_mean_us", mean, "us", BenchBetter::kLower);
    const std::string context = StrFormat(
        "{\"library\":\"serve_load\",\"endpoint\":\"%s\",\"qps\":%s,"
        "\"requests\":%lld,\"ok\":%lld,"
        "\"concurrency\":%d,\"graphs_per_request\":%lld,\"nodes\":%lld,"
        "\"features\":\"%s\","
        "\"batch_occupancy_mean\":%s,\"batch_occupancy_p95\":%s,"
        "\"batches\":%lld,\"rejected\":%lld}",
        endpoint.c_str(), JsonDouble(achieved_qps).c_str(),
        static_cast<long long>(sent), static_cast<long long>(ok), concurrency,
        static_cast<long long>(graphs_per_request),
        static_cast<long long>(nodes), features.c_str(),
        JsonDouble(batch_mean).c_str(),
        JsonDouble(batch_p95).c_str(), static_cast<long long>(batches),
        static_cast<long long>(rejected));
    const Status written = WriteBenchJson(out_json, context, entries);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 2;
    }
    std::printf("wrote %s\n", out_json.c_str());
  }
  if (ok == 0) {
    std::fprintf(stderr, "error: no successful responses\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace sgcl

int main(int argc, char** argv) { return sgcl::Run(argc, argv); }
