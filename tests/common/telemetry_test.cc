#include "common/telemetry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "http_test_client.h"

namespace sgcl {
namespace {

// Whole HTTP response (status line, headers, body) of GET `path`.
std::string GetRaw(int port, const std::string& path) {
  return ::sgcl::testing::RawHttpExchange(
      port, "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

std::string Get(int port, const std::string& path) {
  const std::string response = GetRaw(port, path);
  const size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

TEST(PrometheusExportTest, SanitizesNamesAndFormatsSeries) {
  MetricsSnapshot snap;
  snap.counters["train/batches"] = 12;
  snap.gauges["train/last_epoch_loss"] = 0.5;
  MetricsSnapshot::HistogramData h;
  h.bounds = {10.0, 100.0};
  h.buckets = {3, 2, 1};  // overflow last
  h.count = 6;
  h.sum = 180.0;
  snap.histograms["parallel/queue_wait_us"] = h;

  const std::string text = snap.ToPrometheusText();
  EXPECT_NE(text.find("# TYPE sgcl_train_batches counter\n"
                      "sgcl_train_batches 12\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE sgcl_train_last_epoch_loss gauge\n"
                      "sgcl_train_last_epoch_loss 0.5\n"),
            std::string::npos);
  // Cumulative le buckets, +Inf bucket equals _count.
  EXPECT_NE(text.find("sgcl_parallel_queue_wait_us_bucket{le=\"10\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("sgcl_parallel_queue_wait_us_bucket{le=\"100\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("sgcl_parallel_queue_wait_us_bucket{le=\"+Inf\"} 6\n"),
            std::string::npos);
  EXPECT_NE(text.find("sgcl_parallel_queue_wait_us_sum 180\n"),
            std::string::npos);
  EXPECT_NE(text.find("sgcl_parallel_queue_wait_us_count 6\n"),
            std::string::npos);
  // No illegal characters survive sanitization.
  EXPECT_EQ(text.find('/'), std::string::npos);
  EXPECT_EQ(PrometheusMetricName("a/b-c.d"), "sgcl_a_b_c_d");
}

TEST(RunStatusBoardTest, TracksRunLifecycle) {
  RunStatusBoard board;
  EXPECT_NE(board.ToJson().find("\"state\":\"idle\""), std::string::npos);

  board.BeginRun("pretrain", 10);
  std::string json = board.ToJson();
  EXPECT_NE(json.find("\"state\":\"running\""), std::string::npos);
  EXPECT_NE(json.find("\"command\":\"pretrain\""), std::string::npos);
  EXPECT_NE(json.find("\"epoch\":1"), std::string::npos);  // first underway
  EXPECT_NE(json.find("\"completed_epochs\":0"), std::string::npos);
  EXPECT_NE(json.find("\"last_loss\":null"), std::string::npos);

  board.RecordEpoch(0, 10, 0.75, 0.1, {{"encode", 0.05}});
  board.RecordEpoch(1, 10, 0.5, 0.1, {{"encode", 0.07}});
  json = board.ToJson();
  EXPECT_NE(json.find("\"epoch\":3"), std::string::npos);  // third underway
  EXPECT_NE(json.find("\"completed_epochs\":2"), std::string::npos);
  EXPECT_NE(json.find("\"last_loss\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"losses\":[0.75,0.5]"), std::string::npos);
  EXPECT_NE(json.find("\"encode\":0.12"), std::string::npos);

  board.EndRun(true);
  json = board.ToJson();
  EXPECT_NE(json.find("\"state\":\"done\""), std::string::npos);
  EXPECT_NE(json.find("\"epoch\":2"), std::string::npos);  // clamps to done
}

TEST(RunStatusBoardTest, ConcurrentWritersAndReaders) {
  RunStatusBoard board;
  board.BeginRun("stress", 1000);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      const std::string json = board.ToJson();
      EXPECT_FALSE(json.empty());
    }
  });
  constexpr int kEpochs = 200;
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      for (int e = w * kEpochs; e < (w + 1) * kEpochs; ++e) {
        board.RecordEpoch(e, 1000, 0.1, 0.001, {{"encode", 0.001}});
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true);
  reader.join();
  const std::string json = board.ToJson();
  EXPECT_NE(json.find("\"state\":\"running\""), std::string::npos);
}

TEST(TelemetryServerTest, EndpointsServeLiveState) {
  SetRunId("run-telemetry-test");
  MetricsRegistry::Global().GetCounter("telemetry_test/scrapes")->Reset();

  RunStatusBoard board;
  board.BeginRun("pretrain", 3);
  TelemetryServer server;
  ASSERT_TRUE(server.Start(0, &board).ok());
  ASSERT_GT(server.port(), 0);

  const std::string health = Get(server.port(), "/healthz");
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health.find("\"run_id\":\"run-telemetry-test\""),
            std::string::npos);
  EXPECT_NE(health.find("\"uptime_seconds\":"), std::string::npos);
  EXPECT_NE(health.find(kSgclVersion), std::string::npos);

  const std::string status = Get(server.port(), "/status");
  EXPECT_NE(status.find("\"state\":\"running\""), std::string::npos);
  EXPECT_NE(status.find("\"total_epochs\":3"), std::string::npos);

  // Two consecutive scrapes observe a monotone counter.
  Counter* scrapes =
      MetricsRegistry::Global().GetCounter("telemetry_test/scrapes");
  scrapes->Increment(5);
  const std::string first = Get(server.port(), "/metrics");
  EXPECT_NE(first.find("sgcl_telemetry_test_scrapes 5"), std::string::npos);
  scrapes->Increment(2);
  const std::string second = Get(server.port(), "/metrics");
  EXPECT_NE(second.find("sgcl_telemetry_test_scrapes 7"), std::string::npos);

  // /trace serves a loadable chrome-trace envelope even when disabled.
  const std::string trace = Get(server.port(), "/trace");
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);

  server.Stop();
  SetRunId("");
}

TEST(TelemetryServerTest, PrometheusTextHasNoDuplicateSeries) {
  // Registry-global metrics accumulated by other tests must sanitize to
  // unique Prometheus names (duplicate series break scrapers).
  MetricsRegistry::Global().GetCounter("dup_check/a")->Increment();
  MetricsRegistry::Global().GetGauge("dup_check/b")->Set(1.0);
  const std::string text =
      MetricsRegistry::Global().Snapshot().ToPrometheusText();
  std::set<std::string> series;
  for (const std::string& line : StrSplit(text, '\n')) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name = line.substr(0, space);
    EXPECT_TRUE(series.insert(name).second) << "duplicate series " << name;
  }
}

TEST(TelemetryServerTest, ConcurrentScrapesDuringMetricWrites) {
  RunStatusBoard board;
  TelemetryServer server;
  ASSERT_TRUE(server.Start(0, &board).ok());
  Counter* c = MetricsRegistry::Global().GetCounter("telemetry_test/hammer");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load()) c->Increment();
  });
  for (int i = 0; i < 6; ++i) {
    const std::string body = Get(server.port(), "/metrics");
    EXPECT_NE(body.find("sgcl_telemetry_test_hammer"), std::string::npos);
  }
  stop.store(true);
  writer.join();
  server.Stop();
}

TEST(TelemetryServerTest, TraceEndpointsServeSampledTraces) {
  TraceRing::Global().SetSampleRate(1.0);
  TraceRing::Global().SetCapacity(8);
  TraceRing::Global().Clear();
  const TraceContext ctx = TraceRing::Global().MaybeStartTrace();
  ASSERT_TRUE(ctx.valid());
  {
    ScopedTraceContext install(ctx);
    TraceSpan root("test/request");
    { SGCL_TRACE_SPAN("test/forward"); }
  }
  const std::string id = FormatTraceId(ctx.trace_id);

  RunStatusBoard board;
  TelemetryServer server;
  ASSERT_TRUE(server.Start(0, &board).ok());

  // Summary list, newest first, without span lists.
  const std::string list = Get(server.port(), "/v1/traces");
  EXPECT_NE(list.find("\"trace_id\":\"" + id + "\""), std::string::npos);
  EXPECT_NE(list.find("\"root\":\"test/request\""), std::string::npos);
  EXPECT_EQ(list.find("\"spans\":["), std::string::npos);

  // A min-duration filter past any test span excludes everything.
  const std::string filtered =
      Get(server.port(), "/v1/traces?min_duration_us=999999999");
  EXPECT_NE(filtered.find("\"traces\":[]"), std::string::npos);

  // Per-trace span tree via the prefix route.
  const std::string tree = Get(server.port(), "/v1/traces/" + id);
  EXPECT_NE(tree.find("\"root\":{\"name\":\"test/request\""),
            std::string::npos);
  EXPECT_NE(tree.find("\"self_us\":"), std::string::npos);
  EXPECT_NE(tree.find("test/forward"), std::string::npos);

  // Unknown and malformed ids are structured 404s, not crashes.
  const std::string missing =
      Get(server.port(), "/v1/traces/00000000000000ab");
  EXPECT_NE(missing.find("unknown trace"), std::string::npos);
  const std::string malformed = Get(server.port(), "/v1/traces/not-hex");
  EXPECT_NE(malformed.find("unknown trace"), std::string::npos);

  server.Stop();
  TraceRing::Global().SetSampleRate(0.0);
  TraceRing::Global().Clear();
}

TEST(TelemetryServerTest, SignedTraceIdIsUnknown) {
  // A committed trace's id behind a '+' is malformed, not an alias.
  TraceRing::Global().SetSampleRate(1.0);
  TraceRing::Global().Clear();
  const TraceContext ctx = TraceRing::Global().MaybeStartTrace();
  ASSERT_TRUE(ctx.valid());
  {
    ScopedTraceContext install(ctx);
    TraceSpan root("test/request");
  }
  const std::string id = FormatTraceId(ctx.trace_id);
  RunStatusBoard board;
  TelemetryServer server;
  ASSERT_TRUE(server.Start(0, &board).ok());
  EXPECT_EQ(GetRaw(server.port(), "/v1/traces/" + id).rfind("HTTP/1.1 200", 0),
            0u);
  const std::string signed_id = GetRaw(server.port(), "/v1/traces/+" + id);
  EXPECT_EQ(signed_id.rfind("HTTP/1.1 404", 0), 0u) << signed_id;
  server.Stop();
  TraceRing::Global().SetSampleRate(0.0);
  TraceRing::Global().Clear();
}

TEST(GenerateRunIdTest, IdsAreUniqueAndPrefixed) {
  const std::string a = GenerateRunId();
  const std::string b = GenerateRunId();
  EXPECT_NE(a, b);
  EXPECT_EQ(a.rfind("run-", 0), 0u);
}

}  // namespace
}  // namespace sgcl
