// End-to-end tests for the embedding inference service: real HTTP on an
// ephemeral port, batching determinism (micro-batched == served alone,
// bitwise), request robustness (garbage never crashes or hangs the
// server), and the overload path (503 + Retry-After) via the batch-
// function override seam.
#include "serve/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/trace.h"
#include "core/sgcl_config.h"
#include "core/sgcl_model.h"
#include "serve/batch_gate.h"
#include "http_test_client.h"

namespace sgcl {
namespace serve {
namespace {

constexpr int64_t kFeatDim = 4;
constexpr int64_t kHidden = 8;

// One model per test binary: construction is cheap but not free, and
// every test serves the same weights.
const SgclModel& TestModel() {
  static const SgclModel* model = [] {
    SgclConfig cfg = MakeUnsupervisedConfig(kFeatDim);
    cfg.encoder.hidden_dim = kHidden;
    cfg.encoder.num_layers = 2;
    cfg.proj_dim = 8;
    static Rng rng(7);
    return new SgclModel(cfg, &rng);  // NOLINT(sgcl-R5): leaked singleton
  }();
  return *model;
}

// One-shot requests send Connection: close, so reading until EOF reads
// one response.
using ::sgcl::testing::RawHttpExchange;

std::string Post(int port, const std::string& path, const std::string& body) {
  return RawHttpExchange(port,
                         "POST " + path + " HTTP/1.1\r\nHost: localhost\r\n"
                         "Content-Type: application/json\r\nContent-Length: " +
                             std::to_string(body.size()) +
                             "\r\nConnection: close\r\n\r\n" + body);
}

std::string Get(int port, const std::string& path) {
  return RawHttpExchange(port, "GET " + path +
                                   " HTTP/1.1\r\nHost: localhost\r\n"
                                   "Connection: close\r\n\r\n");
}

std::string Body(const std::string& response) {
  const size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

bool HasStatus(const std::string& response, const char* code) {
  return response.find(std::string("HTTP/1.1 ") + code) != std::string::npos;
}

// A valid single-graph body: 3-node path with fixed features.
std::string OneGraphBody() {
  return "{\"graphs\":[{\"num_nodes\":3,"
         "\"features\":[0.5,-0.25,1,0, 0.1,0.2,0.3,0.4, -1,2,-3,4],"
         "\"edges\":[0,1,1,2]}]}";
}

// A different graph to pad batches with.
std::string OtherGraph() {
  return "{\"num_nodes\":2,\"features\":[1,1,0,0, 0,0,1,1],\"edges\":[0,1]}";
}

// The first row of an "embeddings"/"keep_probs" matrix, as raw text
// (bitwise comparison works on the %.9g strings directly).
std::string FirstRow(const std::string& body) {
  const size_t start = body.find("[[");
  if (start == std::string::npos) return "";
  const size_t end = body.find(']', start + 2);
  if (end == std::string::npos) return "";
  return body.substr(start + 2, end - start - 2);
}

class ServiceTest : public ::testing::Test {
 protected:
  void StartService(ServeOptions options, BatchFn embed_override = nullptr,
                    BatchFn predict_override = nullptr) {
    options.http_port = 0;
    service_ = std::make_unique<ServeService>(&TestModel(), options,
                                              std::move(embed_override),
                                              std::move(predict_override));
    ASSERT_TRUE(service_->Start().ok());
    port_ = service_->port();
    ASSERT_GT(port_, 0);
  }

  void TearDown() override {
    if (service_ != nullptr) service_->Stop();
  }

  std::unique_ptr<ServeService> service_;
  int port_ = 0;
};

TEST_F(ServiceTest, EmbedReturnsOneRowPerGraphWithDim) {
  StartService(ServeOptions());
  const std::string response = Post(port_, "/v1/embed", OneGraphBody());
  ASSERT_TRUE(HasStatus(response, "200")) << response;
  const std::string body = Body(response);
  EXPECT_NE(body.find("\"embeddings\":[["), std::string::npos);
  EXPECT_NE(body.find("\"dim\":8"), std::string::npos);
}

TEST_F(ServiceTest, PredictReturnsPerNodeProbabilities) {
  StartService(ServeOptions());
  const std::string response = Post(port_, "/v1/predict", OneGraphBody());
  ASSERT_TRUE(HasStatus(response, "200")) << response;
  const std::string row = FirstRow(Body(response));
  // 3 nodes -> 3 comma-separated probabilities.
  EXPECT_EQ(std::count(row.begin(), row.end(), ','), 2) << row;
}

TEST_F(ServiceTest, MicroBatchedEmbeddingIsBitwiseIdenticalToAlone) {
  StartService(ServeOptions());
  // Alone: a request whose only graph is the target.
  const std::string alone =
      FirstRow(Body(Post(port_, "/v1/embed", OneGraphBody())));
  ASSERT_FALSE(alone.empty());
  // Batched: the same graph runs first inside a coalesced multi-graph
  // block-diagonal forward (one request with company = one batch).
  const std::string target = OneGraphBody();
  std::string multi = target;
  multi.insert(multi.rfind("]}"), std::string(",").append(OtherGraph()));
  const std::string batched = FirstRow(Body(Post(port_, "/v1/embed", multi)));
  EXPECT_EQ(alone, batched);

  // Same invariant under true cross-request coalescing: the first
  // request holds the forward while the others queue behind it, so they
  // share the next fused forward.
  service_->Stop();
  std::mutex mu;
  std::vector<size_t> forward_graphs;
  FirstForwardGate gate;
  StartService(ServeOptions(),
               gate.Wrap([&](const std::vector<const Graph*>& graphs,
                             std::vector<std::vector<float>>* rows) {
                 {
                   std::lock_guard<std::mutex> lock(mu);
                   forward_graphs.push_back(graphs.size());
                 }
                 return service_->session().EmbedBatch(graphs, rows);
               }));
  constexpr int kClients = 4;
  std::vector<std::string> rows(kClients);
  auto client = [&](int i) {
    rows[i] = FirstRow(Body(Post(port_, "/v1/embed", OneGraphBody())));
  };
  std::vector<std::thread> clients;
  clients.emplace_back(client, 0);
  gate.WaitEntered();
  for (int i = 1; i < kClients; ++i) clients.emplace_back(client, i);
  WaitForQueueDepth("embed", kClients - 1);
  gate.Open();
  for (std::thread& t : clients) t.join();
  for (int i = 0; i < kClients; ++i) EXPECT_EQ(rows[i], alone) << i;
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(forward_graphs, (std::vector<size_t>{1, kClients - 1}));
}

TEST_F(ServiceTest, PredictBatchedIsBitwiseIdenticalToAlone) {
  StartService(ServeOptions());
  const std::string alone =
      FirstRow(Body(Post(port_, "/v1/predict", OneGraphBody())));
  ASSERT_FALSE(alone.empty());
  std::string multi = OneGraphBody();
  multi.insert(multi.rfind("]}"), std::string(",").append(OtherGraph()));
  const std::string batched =
      FirstRow(Body(Post(port_, "/v1/predict", multi)));
  EXPECT_EQ(alone, batched);
}

TEST_F(ServiceTest, MalformedRequestsGet4xxAndNeverWedgeTheServer) {
  StartService(ServeOptions());

  // Garbage / wrong-shape bodies: 400 with a JSON error envelope.
  for (const char* bad :
       {"", "garbage", "{}", "[1,2]", "{\"graphs\":[]}",
        "{\"graphs\":[{\"num_nodes\":2,\"features\":[1]}]}",
        "{\"graphs\":[{\"num_nodes\":1,\"features\":[1,2,3,4],"
        "\"edges\":[0,9]}]}"}) {
    const std::string response = Post(port_, "/v1/embed", bad);
    EXPECT_TRUE(HasStatus(response, "400")) << bad << "\n" << response;
    EXPECT_NE(Body(response).find("\"error\""), std::string::npos) << bad;
  }

  // Fuzz-ish: truncated prefixes of a valid body, all 400, no crash.
  const std::string valid = OneGraphBody();
  for (size_t len = 0; len < valid.size(); len += 7) {
    const std::string response =
        Post(port_, "/v1/embed", valid.substr(0, len));
    EXPECT_TRUE(HasStatus(response, "400")) << "prefix " << len;
  }

  // Unknown route -> 404; wrong method -> 405; a body one byte past the
  // 4 MiB limit -> 413.
  EXPECT_TRUE(HasStatus(Post(port_, "/v1/nope", valid), "404"));
  EXPECT_TRUE(HasStatus(Get(port_, "/v1/embed"), "405"));
  EXPECT_TRUE(HasStatus(
      Post(port_, "/v1/embed", std::string((4u << 20) + 1, 'x')), "413"));

  // Raw non-HTTP bytes -> 400, connection closed, server stays up.
  EXPECT_TRUE(HasStatus(RawHttpExchange(port_, "\x01\x02\x03garbage\r\n\r\n"),
                        "400"));

  // After all that abuse a valid request still succeeds.
  EXPECT_TRUE(HasStatus(Post(port_, "/v1/embed", valid), "200"));
}

TEST_F(ServiceTest, OverloadGets503WithRetryAfter) {
  ServeOptions options;
  options.batcher.max_queue_requests = 1;
  // Deterministic overload: the embed path blocks until released.
  FirstForwardGate gate;
  StartService(options, gate.Wrap([](const std::vector<const Graph*>& graphs,
                                     std::vector<std::vector<float>>* rows) {
    for (size_t i = 0; i < graphs.size(); ++i) {
      rows->push_back(std::vector<float>(kHidden, 0.0f));
    }
    return Status::OK();
  }));

  std::thread executing([&] {
    EXPECT_TRUE(HasStatus(Post(port_, "/v1/embed", OneGraphBody()), "200"));
  });
  gate.WaitEntered();  // dispatch thread is stuck in the model
  std::thread queued([&] {
    EXPECT_TRUE(HasStatus(Post(port_, "/v1/embed", OneGraphBody()), "200"));
  });
  WaitForQueueDepth("embed", 1);
  const std::string overloaded = Post(port_, "/v1/embed", OneGraphBody());
  EXPECT_TRUE(HasStatus(overloaded, "503")) << overloaded;
  EXPECT_NE(overloaded.find("Retry-After: 1"), std::string::npos)
      << overloaded;
  EXPECT_NE(Body(overloaded).find("\"error\""), std::string::npos);

  gate.Open();
  executing.join();
  queued.join();
}

// Value of a response header (empty when absent).
std::string HeaderValue(const std::string& response, const std::string& name) {
  const size_t pos = response.find(name + ": ");
  if (pos == std::string::npos) return "";
  const size_t start = pos + name.size() + 2;
  const size_t end = response.find("\r\n", start);
  return response.substr(start, end - start);
}

TEST_F(ServiceTest, TracedRequestEchoesIdAndServesSpanTree) {
  ServeOptions options;
  options.trace_sample_rate = 1.0;
  options.trace_ring_size = 16;
  StartService(options);
  TraceRing::Global().Clear();

  const std::string response = Post(port_, "/v1/embed", OneGraphBody());
  ASSERT_TRUE(HasStatus(response, "200")) << response;
  const std::string id = HeaderValue(response, "X-Sgcl-Trace");
  ASSERT_EQ(id.size(), 16u) << response;

  // The id resolves to a span tree whose root is the request and whose
  // children tile the request's life: parse, queue wait, forward (with
  // the model forward nested under it), and response encode.
  const std::string tree = Body(Get(port_, "/v1/traces/" + id));
  EXPECT_NE(tree.find("\"trace_id\":\"" + id + "\""), std::string::npos)
      << tree;
  EXPECT_NE(tree.find("\"root\":{\"name\":\"serve/request\""),
            std::string::npos)
      << tree;
  for (const char* stage :
       {"serve/parse", "serve/queue_wait", "serve/forward",
        "serve/infer_embed", "serve/encode"}) {
    EXPECT_NE(tree.find(stage), std::string::npos) << stage << "\n" << tree;
  }
  // serve/infer_embed must nest *under* serve/forward, not beside it
  // (otherwise stage self-times double-count the model forward).
  const size_t forward = tree.find("\"name\":\"serve/forward\"");
  const size_t infer = tree.find("\"name\":\"serve/infer_embed\"");
  ASSERT_NE(forward, std::string::npos);
  ASSERT_NE(infer, std::string::npos);
  EXPECT_LT(forward, infer);

  // The list endpoint sees the same trace; the p99-path exemplar in
  // /metrics points at a committed trace id — this is the p99 debugging
  // loop: /metrics exemplar -> /v1/traces/<id>.
  const std::string list = Body(Get(port_, "/v1/traces"));
  EXPECT_NE(list.find("\"trace_id\":\"" + id + "\""), std::string::npos);
  // /trace dumps the same spans as chrome JSON (the trace_report input).
  const std::string chrome = Body(Get(port_, "/trace"));
  EXPECT_NE(chrome.find("{\"name\":\"serve/forward\",\"cat\":\"sgcl\""),
            std::string::npos)
      << chrome;
  EXPECT_NE(chrome.find("\"args\":{\"trace_id\":\"" + id + "\""),
            std::string::npos)
      << chrome;
  const std::string metrics = Body(Get(port_, "/metrics"));
  EXPECT_NE(metrics.find("# {trace_id=\"" + id + "\"}"), std::string::npos)
      << metrics;

  TraceRing::Global().SetSampleRate(0.0);
  TraceRing::Global().Clear();
}

TEST_F(ServiceTest, UnsampledRequestsCarryNoTraceArtifacts) {
  ServeOptions options;
  options.trace_sample_rate = 0.0;
  StartService(options);
  TraceRing::Global().Clear();
  const std::string response = Post(port_, "/v1/embed", OneGraphBody());
  ASSERT_TRUE(HasStatus(response, "200"));
  EXPECT_EQ(HeaderValue(response, "X-Sgcl-Trace"), "");
  const std::string list = Body(Get(port_, "/v1/traces"));
  EXPECT_NE(list.find("\"traces\":[]"), std::string::npos) << list;
}

TEST_F(ServiceTest, SampledEmbeddingsAreBitwiseIdenticalToUnsampled) {
  // Tracing must be observation-only: the served bytes cannot change
  // when every request is sampled.
  ServeOptions options;
  options.trace_sample_rate = 0.0;
  StartService(options);
  const std::string untraced = Body(Post(port_, "/v1/embed", OneGraphBody()));
  ASSERT_FALSE(FirstRow(untraced).empty());
  service_->Stop();

  ServeOptions traced_options = options;
  traced_options.trace_sample_rate = 1.0;
  StartService(traced_options);
  TraceRing::Global().Clear();
  const std::string traced = Body(Post(port_, "/v1/embed", OneGraphBody()));
  EXPECT_EQ(untraced, traced);

  TraceRing::Global().SetSampleRate(0.0);
  TraceRing::Global().Clear();
}

TEST_F(ServiceTest, InfoAndStatusDescribeTheService) {
  StartService(ServeOptions());
  const std::string info = Body(Get(port_, "/v1/info"));
  EXPECT_NE(info.find("\"feat_dim\":4"), std::string::npos) << info;
  EXPECT_NE(info.find("\"embed_dim\":8"), std::string::npos);
  EXPECT_NE(info.find("\"max_batch_graphs\""), std::string::npos);

  ASSERT_TRUE(HasStatus(Post(port_, "/v1/embed", OneGraphBody()), "200"));
  const std::string status = Body(Get(port_, "/status"));
  EXPECT_NE(status.find("\"embed\""), std::string::npos) << status;
  EXPECT_NE(status.find("\"batches\""), std::string::npos);
  EXPECT_NE(status.find("\"queue_depth\""), std::string::npos);
  // The shared diagnostics handlers ride along.
  EXPECT_TRUE(HasStatus(Get(port_, "/healthz"), "200"));
  EXPECT_TRUE(HasStatus(Get(port_, "/metrics"), "200"));
}

}  // namespace
}  // namespace serve
}  // namespace sgcl
