// serve-open: the embedding service under open-loop traffic.
//
// Set-up saves a seeded GIN checkpoint, loads it into a fresh model and
// starts serve::ServeService the way `sgcl_cli serve` does (fused
// GinInferencePlan, default batcher options, ephemeral loopback port).
// Every request body and every arrival time is generated from the seed
// before the first request is sent.
//
// Load: one sender thread per keep-alive connection (at most nproc, and
// at most 4). Requests go out in schedule order; each is timed from its
// due time, so waiting for a free connection counts as latency. The
// schedule is a Poisson base rate, then a ladder of rising rates; each
// phase starts once the previous one has drained, and the ladder stops
// after two rates in a row miss the p99 limit. Last, a closed-loop
// capacity phase over many more connections keeps enough requests in
// flight for batches to close on size. Mix: 75% /v1/embed, 25%
// /v1/predict; 90% carry one ~12-node graph, 10% carry 16 ~40-node graphs.
//
// Only real errors fail a request: a non-200 status, a transport failure,
// or no response within kRecvTimeoutS of sending. Requests that are
// merely late miss the ladder's latency limit and show in its metrics.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/sgcl_model.h"
#include "nn/checkpoint.h"
#include "serve/graph_json.h"
#include "serve/inference_session.h"
#include "serve/service.h"

namespace perfbench {
namespace {

constexpr int64_t kFeatDim = 8;
constexpr double kP99LimitUs = 10000.0;  // the ladder's latency limit
constexpr double kRecvTimeoutS = 5.0;    // silence after sending: failure
// Connections of the capacity phase, and the service's HTTP threads (one
// per keep-alive connection), as `sgcl_cli serve --http-threads=64`: about
// 48 embed and 16 predict requests in flight fill max_batch_graphs (16).
constexpr int kCapacityConnections = 64;

// Minimal blocking keep-alive HTTP/1.1 client with Content-Length framing.
class HttpClient {
 public:
  explicit HttpClient(int port) : port_(port) {}
  ~HttpClient() { CloseFd(); }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  // Sends one serialized request and reads the response; returns the
  // HTTP status, or -1 on a transport failure or timeout.
  int Roundtrip(const std::string& request, std::string* body) {
    if (fd_ < 0 && !Connect()) return -1;
    if (!SendAll(request)) {
      CloseFd();
      return -1;
    }
    const int code = ReadResponse(body);
    if (code < 0) CloseFd();
    return code;
  }

 private:
  bool Connect() {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    struct timeval tv;
    tv.tv_sec = static_cast<time_t>(kRecvTimeoutS);
    tv.tv_usec = 0;
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    if (connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) < 0) {
      CloseFd();
      return false;
    }
    return true;
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

  int ReadResponse(std::string* body) {
    buf_.clear();
    size_t header_end = std::string::npos;
    char chunk[8192];
    while (header_end == std::string::npos) {
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return -1;
      buf_.append(chunk, static_cast<size_t>(n));
      header_end = buf_.find("\r\n\r\n");
    }
    const size_t sp = buf_.find(' ');
    if (sp == std::string::npos || sp > header_end) return -1;
    const int code = std::atoi(buf_.c_str() + sp + 1);
    std::string headers = buf_.substr(0, header_end);
    std::transform(headers.begin(), headers.end(), headers.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    const size_t cl = headers.find("content-length:");
    if (cl == std::string::npos) return -1;
    const size_t length = static_cast<size_t>(
        std::atoll(headers.c_str() + cl + std::strlen("content-length:")));
    const size_t body_start = header_end + 4;
    while (buf_.size() < body_start + length) {
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return -1;
      buf_.append(chunk, static_cast<size_t>(n));
    }
    if (body != nullptr) body->assign(buf_, body_start, length);
    if (headers.find("connection: close") != std::string::npos) CloseFd();
    return code;
  }

  int port_;
  int fd_ = -1;
  std::string buf_;
};

// A connected random graph: a spanning tree plus ~n/2 extra edges, one-hot
// features (the TU-dataset shape the model trains on).
std::string GraphJson(sgcl::Rng* rng, int64_t nodes) {
  std::string features;
  for (int64_t v = 0; v < nodes; ++v) {
    const int64_t hot = rng->UniformInt(kFeatDim);
    for (int64_t j = 0; j < kFeatDim; ++j) {
      if (v > 0 || j > 0) features += ',';
      features += j == hot ? '1' : '0';
    }
  }
  std::string edges;
  auto add_edge = [&](int64_t a, int64_t b) {
    if (!edges.empty()) edges += ',';
    edges += std::to_string(a) + "," + std::to_string(b);
  };
  for (int64_t v = 1; v < nodes; ++v) add_edge(rng->UniformInt(v), v);
  for (int64_t e = 0; e < nodes / 2; ++e) {
    const int64_t a = rng->UniformInt(nodes);
    const int64_t b = rng->UniformInt(nodes);
    if (a != b) add_edge(a, b);
  }
  return "{\"num_nodes\":" + std::to_string(nodes) + ",\"features\":[" +
         features + "],\"edges\":[" + edges + "]}";
}

struct Body {
  bool embed = true;
  int64_t graphs = 0;
  std::string json;     // request body
  std::string request;  // serialized HTTP request
};

struct Arrival {
  double due_s = 0.0;  // offset from the phase start
  int body = 0;
};

struct Phase {
  double rate = 0.0;
  std::vector<Arrival> arrivals;
};

struct Sample {
  double latency_us = -1.0;  // from due time; < 0 when not answered
  double send_us = 0.0;      // from send time
  double late_us = 0.0;      // generator lateness: send - max(due, free)
  double queued_us = 0.0;    // waited for a free connection
  int code = -1;
};

struct PhaseResult {
  std::vector<Sample> samples;
  // Latency from due time per request, in schedule order; failed requests
  // read as the largest double (they miss every limit).
  std::vector<double> lat_us;
  double wall_s = 0.0;
  int64_t rejected = 0, failed = 0, graphs = 0;
  double p50_us = 0.0, p99_us = 0.0;
  // WindowedQuantile over request order.
  double p90_windowed_us = 0.0, p99_windowed_us = 0.0;
  int64_t backlog_end = 0;  // requests due before the last due time but
                            // still waiting for a connection then
  bool passes = false;
};

// Sends `phase` over `connections` keep-alive connections. Response
// bodies of the requests flagged in `keep` are stored in `kept`.
PhaseResult RunPhase(const Phase& phase, const std::vector<Body>& bodies,
                     int port, int connections,
                     const std::vector<uint8_t>& keep,
                     std::vector<std::string>* kept) {
  PhaseResult res;
  const size_t n = phase.arrivals.size();
  res.samples.resize(n);
  std::atomic<size_t> next{0};
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  auto at = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  auto us = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
  };
  std::vector<std::thread> senders;
  for (int c = 0; c < connections; ++c) {
    senders.emplace_back([&] {
      HttpClient client(port);
      std::string body;
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= n) break;
        const Arrival& a = phase.arrivals[i];
        const auto free_at = Clock::now();
        const auto due = at(a.due_s);
        std::this_thread::sleep_until(due);
        const auto sent = Clock::now();
        int code;
        {
          Span span("serve/request");
          code = client.Roundtrip(
              bodies[static_cast<size_t>(a.body)].request, &body);
        }
        const auto done = Clock::now();
        Sample& s = res.samples[i];
        s.code = code;
        s.late_us = us(std::max(due, free_at), sent);
        s.queued_us = std::max(0.0, us(due, free_at));
        s.send_us = us(sent, done);
        s.latency_us = us(due, done);
        if (code == 200 && i < keep.size() && keep[i]) (*kept)[i] = body;
      }
    });
  }
  for (std::thread& t : senders) t.join();
  res.wall_s = SecondsSince(start);

  std::vector<double>& lat = res.lat_us;
  const double last_due = n > 0 ? phase.arrivals.back().due_s : 0.0;
  for (size_t i = 0; i < n; ++i) {
    const Sample& s = res.samples[i];
    const Body& b = bodies[static_cast<size_t>(phase.arrivals[i].body)];
    if (s.code == 200) {
      res.graphs += b.graphs;
      lat.push_back(s.latency_us);
    } else {
      // Refused (503) and failed requests miss the limit.
      lat.push_back(std::numeric_limits<double>::max());
      if (s.code == 503) ++res.rejected;
      ++res.failed;
    }
    // Still waiting for a connection at the last arrival: backlog.
    const double due_s = phase.arrivals[i].due_s;
    if (due_s < last_due && due_s * 1e6 + s.queued_us > last_due * 1e6) {
      ++res.backlog_end;
    }
  }
  res.p50_us = Quantile(lat, 0.50);
  res.p99_us = Quantile(lat, 0.99);
  res.p90_windowed_us = WindowedQuantile(lat, 0.90);
  res.p99_windowed_us = WindowedQuantile(lat, 0.99);
  res.passes = res.failed == 0 && res.p99_us <= kP99LimitUs &&
               res.backlog_end <= 2 * connections;
  return res;
}

// Poisson arrivals at `rate` for `seconds`. Bodies are taken in turn
// from a random starting point, so every phase carries the pool's exact
// traffic mix.
Phase MakePhase(double rate, double seconds, int num_bodies, sgcl::Rng* rng) {
  Phase p;
  p.rate = rate;
  int body = static_cast<int>(rng->UniformInt(num_bodies));
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng->Uniform()) / rate;
    if (t >= seconds) break;
    p.arrivals.push_back({t, body});
    body = (body + 1) % num_bodies;
  }
  return p;
}

// `count` requests all due at once: each connection sends its next
// request as soon as the previous one is answered (a closed loop).
Phase MakeBurst(int count, int num_bodies, sgcl::Rng* rng) {
  Phase p;
  int body = static_cast<int>(rng->UniformInt(num_bodies));
  for (int i = 0; i < count; ++i) {
    p.arrivals.push_back({0.0, body});
    body = (body + 1) % num_bodies;
  }
  return p;
}

// Declared so that destruction stops the service before the session and
// model it reads are released.
struct Service {
  std::unique_ptr<sgcl::SgclModel> model;
  std::unique_ptr<sgcl::serve::InferenceSession> session;  // traced seam
  std::unique_ptr<sgcl::serve::ServeService> service;

  void Reset() {
    service.reset();
    session.reset();
    model.reset();
  }
};

}  // namespace

void RunServeOpen(const RunOptions& o, Outcome* out) {
  const int setups = o.tiny ? 2 : 25;
  const int num_bodies = o.tiny ? 64 : 512;
  const int connections = static_cast<int>(
      std::clamp<long>(sysconf(_SC_NPROCESSORS_ONLN), 1, 4));

  sgcl::SgclConfig cfg = sgcl::MakeUnsupervisedConfig(kFeatDim);
  out->Op(cfg.Validate(), "config");
  sgcl::serve::ServeOptions sopt;  // sgcl_cli serve defaults
  sopt.http_port = 0;
  sopt.http_threads = kCapacityConnections;
  sopt.limits.max_graphs = 64;
  sopt.limits.max_total_nodes =
      std::min<int64_t>(2048, sopt.batcher.max_batch_nodes);
  const std::string ckpt = o.scratch_dir + "/serve-model.ckpt";

  // Forward timings through ServeService's BatchFn seam (traced run only).
  std::mutex forward_mu;
  std::vector<double> forward_us;
  auto start_service = [&](bool traced, Service* s) -> sgcl::Status {
    sgcl::Rng init(o.seed);
    const sgcl::SgclModel trained(cfg, &init);
    SGCL_RETURN_NOT_OK(sgcl::SaveCheckpoint(trained, ckpt));
    sgcl::Rng other(o.seed + 1);
    s->model = std::make_unique<sgcl::SgclModel>(cfg, &other);
    SGCL_RETURN_NOT_OK(sgcl::LoadCheckpoint(ckpt, s->model.get()));
    sgcl::serve::BatchFn embed, predict;
    if (traced) {
      s->session =
          std::make_unique<sgcl::serve::InferenceSession>(s->model.get());
      auto timed = [&, session = s->session.get()](bool is_embed) {
        return [&, session, is_embed](
                   const std::vector<const sgcl::Graph*>& graphs,
                   std::vector<std::vector<float>>* rows) {
          Span span("serve/forward");
          const auto t0 = Clock::now();
          sgcl::Status st = is_embed ? session->EmbedBatch(graphs, rows)
                                     : session->PredictBatch(graphs, rows);
          const double dt = SecondsSince(t0) * 1e6;
          std::lock_guard<std::mutex> lock(forward_mu);
          forward_us.push_back(dt);
          return st;
        };
      };
      embed = timed(true);
      predict = timed(false);
    }
    s->service = std::make_unique<sgcl::serve::ServeService>(
        s->model.get(), sopt, embed, predict);
    return s->service->Start();
  };

  // ---- Set-up: checkpoint save + load + service start, several times.
  std::vector<double> setup_s;
  Service svc;
  for (int i = 0; i < setups; ++i) {
    svc.Reset();
    const auto t0 = Clock::now();
    const sgcl::Status st = start_service(false, &svc);
    setup_s.push_back(SecondsSince(t0));
    out->Op(st, "checkpoint save/load + ServeService::Start");
    if (!st.ok()) return;
  }
  out->Check(svc.service->session().fused(), "the fused GIN plan serves");

  // ---- Request bodies and the arrival schedule, all from the seed.
  sgcl::Rng rng(o.seed);
  // Exactly 75% embed and 10% 16-graph bodies, in seeded order.
  std::vector<int> order(static_cast<size_t>(num_bodies));
  for (int i = 0; i < num_bodies; ++i) order[static_cast<size_t>(i)] = i;
  for (int i = num_bodies - 1; i > 0; --i) {
    std::swap(order[static_cast<size_t>(i)],
              order[static_cast<size_t>(rng.UniformInt(i + 1))]);
  }
  std::vector<Body> bodies(static_cast<size_t>(num_bodies));
  for (int i = 0; i < num_bodies; ++i) {
    Body& b = bodies[static_cast<size_t>(order[static_cast<size_t>(i)])];
    b.embed = i % 4 != 0;
    const bool big = i % 10 == 0;
    b.graphs = big ? 16 : 1;
    const int64_t nodes = big ? 40 : 12;
    std::string graphs;
    for (int64_t g = 0; g < b.graphs; ++g) {
      if (g > 0) graphs += ',';
      const int64_t jitter = nodes / 4;
      graphs += GraphJson(&rng, nodes - jitter + rng.UniformInt(2 * jitter + 1));
    }
    b.json = "{\"graphs\":[" + graphs + "]}";
  }
  auto serialize = [&](int port) {
    for (Body& b : bodies) {
      b.request = sgcl::StrFormat(
                      "POST %s HTTP/1.1\r\nHost: 127.0.0.1:%d\r\n"
                      "Content-Type: application/json\r\nContent-Length: "
                      "%zu\r\nConnection: keep-alive\r\n\r\n",
                      b.embed ? "/v1/embed" : "/v1/predict", port,
                      b.json.size()) +
                  b.json;
    }
  };
  // Low enough that all connections are rarely busy at once: the p99 then
  // measures the service, not the wait for a free connection.
  const double base_rate = 250.0;
  // The ladder climbs in 20% steps from 2x the base rate; every rung
  // sends the same number of requests, enough for a p99 with ten samples
  // beyond it. The climb stops after two failing rungs in a row (one
  // failing rung can be a scheduler stall of the shared host) or when its
  // share of the budget is spent.
  std::vector<double> ladder;
  for (double rate = base_rate * 2.0; ladder.size() < 24; rate *= 1.2) {
    ladder.push_back(rate);
  }
  const double rung_requests = o.tiny ? 100.0 : 1000.0;
  const double ladder_budget_s = Budget(o.seconds, 0.2, 0.5);
  const double warm_s = Budget(o.seconds, 0.03, 0.2);
  const double base_s = Budget(o.seconds, o.trace ? 0.25 : 0.35, 0.5);
  sgcl::Rng arrivals(o.seed ^ 0xa5a5a5a5ULL);
  const Phase warm = MakePhase(base_rate, warm_s, num_bodies, &arrivals);
  const int base_parts = o.tiny ? 2 : 5;
  std::vector<Phase> base;
  for (int k = 0; k < base_parts; ++k) {
    base.push_back(
        MakePhase(base_rate, base_s / base_parts, num_bodies, &arrivals));
  }
  std::vector<Phase> rungs;
  for (double rate : ladder) {
    rungs.push_back(
        MakePhase(rate, rung_requests / rate, num_bodies, &arrivals));
  }
  // A seeded sample of the first base part's requests is checked bitwise.
  std::vector<uint8_t> keep(base[0].arrivals.size(), 0);
  for (int i = 0; i < 64 && !keep.empty(); ++i) {
    keep[static_cast<size_t>(arrivals.UniformInt(
        static_cast<int64_t>(keep.size())))] = 1;
  }
  std::vector<std::string> kept(base[0].arrivals.size());
  std::vector<std::string> unused;

  auto tally = [&](const PhaseResult& r, const std::string& what) {
    out->Tally(static_cast<int64_t>(r.samples.size()), r.failed, what);
  };
  // The base rate runs as consecutive parts with the host's steal share
  // read around each; its latency quantiles pool the least-stolen parts
  // (see LeastStolen), its request counts all parts.
  auto run_base = [&](std::vector<std::string>* kept_bodies,
                      const std::string& what) {
    PhaseResult pooled;
    std::vector<PhaseResult> parts;
    std::vector<double> steal;
    for (size_t k = 0; k < base.size(); ++k) {
      const CpuTicks ticks = ReadCpuTicks();
      parts.push_back(RunPhase(base[k], bodies, svc.service->port(),
                               connections,
                               k == 0 ? keep : std::vector<uint8_t>(),
                               kept_bodies));
      steal.push_back(StealShare(ticks, ReadCpuTicks()));
      tally(parts.back(), what);
    }
    const std::vector<bool> use = LeastStolen(steal);
    for (size_t k = 0; k < parts.size(); ++k) {
      pooled.samples.insert(pooled.samples.end(), parts[k].samples.begin(),
                            parts[k].samples.end());
      pooled.rejected += parts[k].rejected;
      if (use[k]) {
        pooled.lat_us.insert(pooled.lat_us.end(), parts[k].lat_us.begin(),
                             parts[k].lat_us.end());
      }
    }
    pooled.p50_us = Quantile(pooled.lat_us, 0.50);
    pooled.p99_us = Quantile(pooled.lat_us, 0.99);
    pooled.p90_windowed_us = WindowedQuantile(pooled.lat_us, 0.90);
    pooled.p99_windowed_us = WindowedQuantile(pooled.lat_us, 0.99);
    return pooled;
  };
  auto climb = [&](std::vector<PhaseResult>* results) {
    const auto climb_start = Clock::now();
    for (const Phase& rung : rungs) {
      results->push_back(RunPhase(rung, bodies, svc.service->port(),
                                  connections, {}, &unused));
      tally(results->back(), "ladder " + std::to_string(rung.rate));
      const size_t k = results->size();
      const bool failed_twice =
          k >= 2 && !(*results)[k - 1].passes && !(*results)[k - 2].passes;
      if (failed_twice || SecondsSince(climb_start) > ladder_budget_s) break;
    }
  };
  // Capacity: a closed loop over kCapacityConnections connections. A
  // first burst warms them and sizes the chunks so that about ten fill
  // the budget; graphs answered per second is the median over the
  // least-stolen chunks. The batchers' histograms over the chunks show
  // whether batches closed on size or on the straggler wait.
  struct Capacity {
    double graphs_per_s = 0.0, min_gps = 0.0, max_gps = 0.0;
    size_t chunks = 0, kept = 0;
    int chunk_requests = 0;
    double batch_graphs_mean = 0.0, queue_wait_p50_us = 0.0, wall_s = 0.0;
    double forward_s = 0.0;  // summed over both batchers (traced run only)
  };
  auto capacity = [&]() {
    Capacity c;
    sgcl::Rng burst(o.seed ^ 0x5eedULL);
    const int port = svc.service->port();
    const PhaseResult warm_up =
        RunPhase(MakeBurst(4 * kCapacityConnections, num_bodies, &burst),
                 bodies, port, kCapacityConnections, {}, &unused);
    tally(warm_up, "capacity warm-up");
    const double budget_s = Budget(o.seconds, o.trace ? 0.15 : 0.35, 0.3);
    const double rate =
        static_cast<double>(warm_up.samples.size()) / warm_up.wall_s;
    c.chunk_requests = static_cast<int>(std::clamp(
        rate * budget_s / 10.0, 4.0 * kCapacityConnections, 20000.0));
    std::vector<double> gps, steal;
    {
      std::lock_guard<std::mutex> lock(forward_mu);
      forward_us.clear();
    }
    const sgcl::MetricsSnapshot before = MetricsDelta::Now();
    const auto start = Clock::now();
    while (gps.empty() || SecondsSince(start) < budget_s) {
      const CpuTicks ticks = ReadCpuTicks();
      const PhaseResult r =
          RunPhase(MakeBurst(c.chunk_requests, num_bodies, &burst), bodies,
                   port, kCapacityConnections, {}, &unused);
      steal.push_back(StealShare(ticks, ReadCpuTicks()));
      tally(r, "capacity");
      gps.push_back(static_cast<double>(r.graphs) / r.wall_s);
    }
    c.wall_s = SecondsSince(start);
    {
      std::lock_guard<std::mutex> lock(forward_mu);
      c.forward_s = Sum(forward_us) * 1e-6;
    }
    const std::vector<bool> use = LeastStolen(steal);
    std::vector<double> kept_gps;
    for (size_t k = 0; k < gps.size(); ++k) {
      if (use[k]) kept_gps.push_back(gps[k]);
    }
    c.graphs_per_s = Median(kept_gps);
    c.min_gps = Quantile(kept_gps, 0.0);
    c.max_gps = Quantile(kept_gps, 1.0);
    c.chunks = gps.size();
    c.kept = kept_gps.size();
    const MetricsDelta delta(before, MetricsDelta::Now());
    const auto batch_graphs =
        MergeHistograms(delta.Histogram("serve/embed/batch_graphs"),
                        delta.Histogram("serve/predict/batch_graphs"));
    if (batch_graphs.count > 0) {
      c.batch_graphs_mean =
          batch_graphs.sum / static_cast<double>(batch_graphs.count);
    }
    c.queue_wait_p50_us = HistQuantile(
        MergeHistograms(delta.Histogram("serve/embed/queue_wait_us"),
                        delta.Histogram("serve/predict/queue_wait_us")),
        0.5);
    return c;
  };
  // The highest passing rate below the first of two failing rungs in a
  // row, interpolated (log rate against log p99) towards that failing
  // rung when the p99 limit is what it missed. 0 when no rung passes.
  auto max_qps = [&](const std::vector<PhaseResult>& results) {
    double best = 0.0;
    size_t last_pass = results.size();
    for (size_t i = 0; i < results.size(); ++i) {
      const bool confirmed =
          !results[i].passes &&
          (i + 1 == results.size() || !results[i + 1].passes);
      if (!confirmed) {
        if (results[i].passes) {
          best = ladder[i];
          last_pass = i;
        }
        continue;
      }
      const PhaseResult& fail = results[i];
      if (last_pass + 1 == i && fail.failed == 0 &&
          fail.p99_us > kP99LimitUs) {
        const double lo = results[last_pass].p99_us;
        const double frac =
            std::log(kP99LimitUs / lo) / std::log(fail.p99_us / lo);
        best = ladder[last_pass] *
               std::pow(ladder[i] / ladder[last_pass], frac);
      }
      break;
    }
    return best;
  };

  const sgcl::MetricsSnapshot before = MetricsDelta::Now();
  serialize(svc.service->port());
  tally(RunPhase(warm, bodies, svc.service->port(), connections, {}, &unused),
        "warm-up");
  const PhaseResult base_res = run_base(&kept, "base rate");
  std::vector<PhaseResult> ladder_res;
  Capacity cap;
  if (!o.trace) {
    climb(&ladder_res);
    cap = capacity();
  }

  // ---- Correctness: sampled responses equal each graph served alone.
  {
    const sgcl::serve::InferenceSession& session = svc.service->session();
    int compared = 0;
    bool all_equal = true;
    for (size_t i = 0; i < keep.size(); ++i) {
      if (!keep[i] || kept[i].empty()) continue;
      const Body& b = bodies[static_cast<size_t>(base[0].arrivals[i].body)];
      auto graphs =
          sgcl::serve::ParseGraphsRequest(b.json, kFeatDim, sopt.limits);
      if (!graphs.ok()) {
        all_equal = false;
        continue;
      }
      std::vector<std::vector<float>> rows;
      for (const sgcl::Graph& g : *graphs) {
        const sgcl::Status st = b.embed ? session.EmbedBatch({&g}, &rows)
                                        : session.PredictBatch({&g}, &rows);
        if (!st.ok()) all_equal = false;
      }
      const std::string want =
          b.embed ? sgcl::serve::FormatRowsResponse("embeddings", rows,
                                                    session.embed_dim())
                  : sgcl::serve::FormatRowsResponse("keep_probs", rows, -1);
      all_equal = all_equal && want == kept[i];
      ++compared;
    }
    out->Check(compared > 0 && all_equal,
               "sampled responses equal InferenceSession on each graph "
               "alone (" + std::to_string(compared) + " compared)");
  }

  if (!o.trace) {
    const double qps = max_qps(ladder_res);
    svc.service->Stop();
    out->Metric("setup_s", Median(setup_s), "s");
    out->Metric("peak_rss_mib", PeakRssMib(), "MiB");
    out->Metric("graphs_per_s", cap.graphs_per_s, "graphs/s");
    out->Metric("latency_p50_ms", base_res.p50_us * 1e-3, "ms");
    out->Metric("latency_p90_ms", base_res.p90_windowed_us * 1e-3, "ms");
    out->Display("setup_s", Median(setup_s), "s",
                 "median of " + std::to_string(setups) + " set-ups");
    out->Display("peak_rss_mib", PeakRssMib(), "MiB");
    out->Display("error_pct", out->error_pct(), "%",
                 std::to_string(out->failed()) + " of " +
                     std::to_string(out->attempted()) + " operations");
    out->Display("serve_p50_us", base_res.p50_us, "us",
                 "base " + std::to_string(static_cast<int>(base_rate)) +
                     " req/s, " + std::to_string(base_res.samples.size()) +
                     " samples");
    out->Display("serve_p99_us", base_res.p99_windowed_us, "us",
                 "windowed p99; pooled p99 " +
                     std::to_string(static_cast<int>(base_res.p99_us)));
    out->Display("capacity graphs/s", cap.graphs_per_s, "graphs/s",
                 "median of " + std::to_string(cap.kept) + " of " +
                     std::to_string(cap.chunks) + " chunks of " +
                     std::to_string(cap.chunk_requests) + " requests, " +
                     std::to_string(kCapacityConnections) + " connections (" +
                     std::to_string(static_cast<int>(cap.min_gps)) + ".." +
                     std::to_string(static_cast<int>(cap.max_gps)) + ")");
    out->Display("  capacity batch graphs", cap.batch_graphs_mean, "mean",
                 "max_batch_graphs " +
                     std::to_string(sopt.batcher.max_batch_graphs) +
                     "; queue wait p50 " +
                     std::to_string(static_cast<int>(cap.queue_wait_p50_us)) +
                     " us");
    out->Display("serve_max_qps", qps, "req/s",
                 std::string(qps > 0.0 ? "" : "no rate met the limit; ") +
                     "p99 limit " +
                     std::to_string(static_cast<int>(kP99LimitUs)) + " us, " +
                     std::to_string(connections) + " connections");
    for (size_t i = 0; i < ladder_res.size(); ++i) {
      const PhaseResult& r = ladder_res[i];
      std::vector<double> late;
      for (const Sample& s : r.samples) late.push_back(s.late_us);
      out->Display("  ladder " + std::to_string(static_cast<int>(ladder[i])),
                   r.p99_us, "us p99",
                   std::string(r.passes ? "pass" : "FAIL") + ", " +
                       std::to_string(r.samples.size()) + " sent, late p99 " +
                       std::to_string(static_cast<int>(Quantile(late, 0.99))) +
                       " us, backlog " + std::to_string(r.backlog_end));
    }
    return;
  }

  // ---- Traced run: restart with the timed BatchFn seam and replay the
  // base rate (overhead vs the untraced base phase above) and the ladder.
  svc.service->Stop();
  Service traced_svc;
  out->Op(start_service(true, &traced_svc), "traced ServeService::Start");
  if (traced_svc.service == nullptr || !traced_svc.service->running()) return;
  std::swap(svc, traced_svc);
  serialize(svc.service->port());
  Tracer::Get().SetEnabled(true);
  tally(RunPhase(warm, bodies, svc.service->port(), connections, {}, &unused),
        "traced warm-up");
  {
    std::lock_guard<std::mutex> lock(forward_mu);
    forward_us.clear();
  }
  const sgcl::MetricsSnapshot traced_before = MetricsDelta::Now();
  std::vector<std::string> unused_kept(kept.size());
  const PhaseResult traced_base = run_base(&unused_kept, "traced base rate");
  const MetricsDelta base_delta(traced_before, MetricsDelta::Now());
  std::vector<double> base_forward;
  {
    std::lock_guard<std::mutex> lock(forward_mu);
    base_forward = forward_us;
  }
  climb(&ladder_res);
  Tracer::Get().SetEnabled(false);
  cap = capacity();
  svc.service->Stop();

  const auto queue_wait =
      MergeHistograms(base_delta.Histogram("serve/embed/queue_wait_us"),
                      base_delta.Histogram("serve/predict/queue_wait_us"));
  const auto batch_graphs =
      MergeHistograms(base_delta.Histogram("serve/embed/batch_graphs"),
                      base_delta.Histogram("serve/predict/batch_graphs"));
  std::vector<double> parse_us;
  for (const Body& b : bodies) {
    Span span("serve/parse");
    const auto t0 = Clock::now();
    auto graphs = sgcl::serve::ParseGraphsRequest(b.json, kFeatDim,
                                                  sopt.limits);
    parse_us.push_back(SecondsSince(t0) * 1e6);
    out->Op(graphs.status(), "ParseGraphsRequest");
  }
  std::vector<double> send_us, late_us;
  int64_t sent = 0, rejected = 0;
  for (const Sample& s : traced_base.samples) {
    send_us.push_back(s.send_us);
    late_us.push_back(s.late_us);
  }
  for (const PhaseResult& r : ladder_res) {
    for (const Sample& s : r.samples) late_us.push_back(s.late_us);
  }
  for (const PhaseResult* r : {&base_res, &traced_base}) {
    sent += static_cast<int64_t>(r->samples.size());
    rejected += r->rejected;
  }
  for (const PhaseResult& r : ladder_res) {
    sent += static_cast<int64_t>(r.samples.size());
    rejected += r.rejected;
  }
  const double parse_p50 = Median(parse_us);
  const double queue_p50 = HistQuantile(queue_wait, 0.5);
  const double forward_p50 = Median(base_forward);
  out->Metric("serve.parse_us_p50", parse_p50, "us");
  out->Metric("serve.queue_wait_us_p50", queue_p50, "us");
  out->Metric("serve.queue_wait_us_p99", HistQuantile(queue_wait, 0.99), "us");
  out->Metric("serve.batch_graphs_mean",
              batch_graphs.count > 0
                  ? batch_graphs.sum / static_cast<double>(batch_graphs.count)
                  : 0.0,
              "count");
  out->Metric("serve.forward_us_p50", forward_p50, "us");
  out->Metric("serve.forward_us_p99", Quantile(base_forward, 0.99), "us");
  out->Metric("serve.http_us_p50",
              std::max(0.0, Median(send_us) - parse_p50 - queue_p50 -
                                forward_p50),
              "us");
  out->Metric("serve.rejected_pct",
              sent > 0 ? 100.0 * static_cast<double>(rejected) /
                             static_cast<double>(sent)
                       : 0.0,
              "%");
  out->Metric("serve.loadgen_late_us_p99", Quantile(late_us, 0.99), "us");
  out->Metric("serve.max_qps", max_qps(ladder_res), "req/s");
  out->Metric("serve.capacity_batch_graphs_mean", cap.batch_graphs_mean,
              "count");
  out->Metric("serve.capacity_forward_pct",
              100.0 * cap.forward_s / cap.wall_s, "%");
  out->Metric("bench.trace_overhead_pct",
              100.0 * (traced_base.p50_us / base_res.p50_us - 1.0), "%");

  // Fused GinInferencePlan::EncodeBatch on this workload's request shapes.
  {
    const sgcl::GinInferencePlan plan =
        sgcl::GinInferencePlan::Build(svc.model->encoder_k());
    double macs = 0.0, bytes = 0.0, secs = 0.0;
    size_t calls = 0;
    const auto probe_start = Clock::now();
    while (calls < bodies.size() ||
           SecondsSince(probe_start) < Budget(o.seconds, 0.05, 0.1)) {
      const Body& b = bodies[calls % bodies.size()];
      auto graphs =
          sgcl::serve::ParseGraphsRequest(b.json, kFeatDim, sopt.limits);
      ++calls;
      if (!graphs.ok()) continue;
      const sgcl::GraphBatch batch = sgcl::GraphBatch::FromGraphs(*graphs);
      std::vector<float> h(
          static_cast<size_t>(batch.num_nodes * plan.out_dim()));
      const auto t0 = Clock::now();
      {
        Span span("nn/encode_batch");
        plan.EncodeBatch(batch, h.data());
      }
      secs += SecondsSince(t0);
      const OpCount c =
          EncoderPassCount(plan.layers(), static_cast<double>(batch.num_nodes));
      macs += c.macs;
      bytes += c.bytes;
    }
    out->Metric("nn.fused_gmacs_per_s", macs / secs * 1e-9, "GMAC/s");
    out->Metric("nn.fused_mmacs_per_batch",
                macs / static_cast<double>(calls) * 1e-6, "MMAC");
    out->Metric("nn.fused_mb_per_batch",
                bytes / static_cast<double>(calls) * 1e-6, "MB");
  }
  const MetricsDelta delta(before, MetricsDelta::Now());
  out->Metric("common.pool_queue_wait_us_p99",
              HistQuantile(delta.Histogram("parallel/queue_wait_us"), 0.99),
              "us");
}

}  // namespace perfbench
