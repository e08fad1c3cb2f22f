#include "common/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/parallel.h"

namespace sgcl {
namespace {

// One event of the ring's chrome export, as a test reads it back.
struct ChromeEvent {
  std::string name;
  int tid = 0;
  int64_t ts = 0;
  int64_t dur = 0;
  std::string trace_id;  // empty when the event carries no args
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
};

std::vector<ChromeEvent> ParseChromeEvents(const std::string& json) {
  std::vector<ChromeEvent> out;
  const Result<JsonValue> doc = JsonValue::Parse(json);
  EXPECT_TRUE(doc.ok()) << json;
  if (!doc.ok()) return out;
  const JsonValue* events = doc->Find("traceEvents");
  EXPECT_TRUE(events != nullptr && events->is_array()) << json;
  if (events == nullptr || !events->is_array()) return out;
  for (const JsonValue& e : events->AsArray()) {
    ChromeEvent event;
    event.name = e.GetString("name");
    event.tid = static_cast<int>(e.GetDouble("tid", -1));
    event.ts = static_cast<int64_t>(e.GetDouble("ts"));
    event.dur = static_cast<int64_t>(e.GetDouble("dur"));
    if (const JsonValue* args = e.Find("args")) {
      event.trace_id = args->GetString("trace_id");
      event.span_id = static_cast<uint64_t>(args->GetDouble("span_id"));
      event.parent_span_id =
          static_cast<uint64_t>(args->GetDouble("parent_span_id"));
    }
    out.push_back(std::move(event));
  }
  return out;
}

// The trace ring's chrome export (ToChromeTraceJson / WriteChromeTrace,
// behind /trace and --trace-out). Each test starts from an empty ring
// that samples every root, and restores rate 0 on exit so other tests
// see the untraced default.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetRing(1.0); }
  void TearDown() override { ResetRing(0.0); }

  static void ResetRing(double rate) {
    TraceRing::Global().SetSampleRate(rate);
    TraceRing::Global().SetCapacity(256);
    TraceRing::Global().Clear();
  }

  // Runs `body` under a root span `root` of a newly sampled trace (an
  // untraced span when the sampler declines).
  template <typename Body>
  static void Sampled(const char* root, Body body) {
    ScopedTraceContext install(TraceRing::Global().MaybeStartTrace());
    TraceSpan span(root);
    body();
  }

  static std::vector<ChromeEvent> Events() {
    return ParseChromeEvents(TraceRing::Global().ToChromeTraceJson());
  }
};

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  // Rate 0 opens no trace, and a span outside any trace is not recorded.
  TraceRing::Global().SetSampleRate(0.0);
  Sampled("ignored/root", [] { SGCL_TRACE_SPAN("ignored/child"); });
  TraceRing::Global().SetSampleRate(1.0);
  { SGCL_TRACE_SPAN("ignored/untraced"); }
  EXPECT_TRUE(Events().empty());
}

TEST_F(TraceTest, NestedSpansSortParentFirst) {
  // The ring stores spans in completion order (inner first); the export
  // puts the enclosing span first.
  Sampled("outer", [] { SGCL_TRACE_SPAN("inner"); });
  const std::vector<ChromeEvent> events = Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[0].parent_span_id, 0u);
  EXPECT_EQ(events[1].parent_span_id, events[0].span_id);
  EXPECT_LE(events[0].ts, events[1].ts);
  EXPECT_GE(events[0].ts + events[0].dur, events[1].ts + events[1].dur);
  EXPECT_EQ(events[0].tid, events[1].tid);
}

TEST_F(TraceTest, TimedSpanFeedsCounterEvenWhenDisabled) {
  TraceRing::Global().SetSampleRate(0.0);
  Counter* counter =
      MetricsRegistry::Global().GetCounter("time/trace_test_stage_us");
  counter->Reset();
  {
    SGCL_TRACE_SPAN_TIMED("trace_test_stage");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(counter->value(), 1000);
  EXPECT_TRUE(Events().empty());
  // Under a sampled root, the same kind of site records a span too.
  TraceRing::Global().SetSampleRate(1.0);
  Sampled("test/root", [] { SGCL_TRACE_SPAN_TIMED("trace_test_stage"); });
  const std::vector<ChromeEvent> events = Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].name, "trace_test_stage");
}

TEST_F(TraceTest, ChromeTraceJsonShape) {
  EXPECT_EQ(TraceRing::Global().ToChromeTraceJson(),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
  const TraceContext ctx = TraceRing::Global().MaybeStartTrace();
  {
    ScopedTraceContext install(ctx);
    TraceSpan span("stage/a");
  }
  const std::string json = TraceRing::Global().ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"stage/a\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"trace_id\":\"" +
                      FormatTraceId(ctx.trace_id) + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST_F(TraceTest, WriteChromeTraceRoundTrip) {
  Sampled("stage/write", [] {});
  const std::string path =
      ::testing::TempDir() + "/sgcl_trace_test_out.json";
  ASSERT_TRUE(TraceRing::Global().WriteChromeTrace(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::vector<ChromeEvent> events = ParseChromeEvents(buffer.str());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "stage/write");
  std::remove(path.c_str());
}

TEST_F(TraceTest, WriteChromeTraceRejectsBadPath) {
  EXPECT_FALSE(TraceRing::Global()
                   .WriteChromeTrace("/nonexistent-dir/trace.json")
                   .ok());
}

TEST_F(TraceTest, ConcurrentThreadPoolSpansAreDenseAndWellNested) {
  // TSan-covered: spans recorded from ThreadPool workers (which inherit
  // the sampled root's context) land with small dense thread ids, and
  // spans sharing a tid are well-nested (chrome tracing renders
  // overlapping-but-not-nested spans on one track as garbage).
  Sampled("pool/root", [] {
    ParallelFor(0, 64, /*grain=*/4, [](int64_t lo, int64_t hi) {
      SGCL_TRACE_SPAN("pool/chunk_outer");
      for (int64_t i = lo; i < hi; ++i) {
        SGCL_TRACE_SPAN("pool/chunk_inner");
      }
    });
  });
  std::vector<ChromeEvent> events = Events();
  int inner = 0;
  for (const ChromeEvent& e : events) inner += e.name == "pool/chunk_inner";
  EXPECT_EQ(inner, 64);
  std::set<int> tids;
  for (const ChromeEvent& e : events) tids.insert(e.tid);
  // Dense ids: every id seen across the process so far is a small
  // non-negative integer bounded by pool size + observed threads, never a
  // raw OS thread id.
  const int bound =
      ParallelRuntimeThreads() + static_cast<int>(tids.size()) + 4;
  for (int tid : tids) {
    EXPECT_GE(tid, 0);
    EXPECT_LT(tid, bound);
  }
  // Well-nested per tid: spans sorted by (start asc, dur desc) behave
  // like a bracket sequence — each next span either nests inside the
  // enclosing open span or starts after it ends, never straddles.
  std::sort(events.begin(), events.end(),
            [](const ChromeEvent& a, const ChromeEvent& b) {
              if (a.ts != b.ts) return a.ts < b.ts;
              return a.dur > b.dur;
            });
  std::map<int, std::vector<ChromeEvent>> by_tid;
  for (const ChromeEvent& e : events) by_tid[e.tid].push_back(e);
  for (const auto& [tid, spans] : by_tid) {
    std::vector<const ChromeEvent*> open;
    for (const ChromeEvent& e : spans) {
      while (!open.empty() && e.ts >= open.back()->ts + open.back()->dur) {
        open.pop_back();
      }
      if (!open.empty()) {
        EXPECT_LE(e.ts + e.dur, open.back()->ts + open.back()->dur)
            << "span " << e.name << " straddles " << open.back()->name
            << " on tid " << tid;
      }
      open.push_back(&e);
    }
  }
}

TEST_F(TraceTest, ClearDropsEvents) {
  Sampled("gone", [] {});
  EXPECT_FALSE(Events().empty());
  TraceRing::Global().Clear();
  EXPECT_TRUE(Events().empty());
}

TEST_F(TraceTest, ChromeJsonIsParentFirstTaggedAndBounded) {
  // Five three-level traces into a ring of three: the export holds the
  // newest three, every event is tagged, each trace starts at its root,
  // and every other event follows its parent within the same trace.
  TraceRing::Global().SetCapacity(3);
  for (int i = 0; i < 5; ++i) {
    Sampled("test/root", [] {
      SGCL_TRACE_SPAN("test/child");
      { SGCL_TRACE_SPAN("test/grandchild"); }
      { SGCL_TRACE_SPAN("test/grandchild"); }
    });
  }
  const std::vector<ChromeEvent> events = Events();
  ASSERT_EQ(events.size(), 3u * 4u);
  std::map<std::string, std::set<uint64_t>> seen;  // trace id -> span ids
  std::string current;
  for (const ChromeEvent& e : events) {
    ASSERT_FALSE(e.trace_id.empty()) << e.name;
    ASSERT_NE(e.span_id, 0u) << e.name;
    if (e.parent_span_id == 0) {
      EXPECT_EQ(e.name, "test/root");
      EXPECT_EQ(seen.count(e.trace_id), 0u) << "trace split or repeated";
      current = e.trace_id;
    } else {
      EXPECT_EQ(e.trace_id, current) << "event outside its trace's run";
      EXPECT_EQ(seen[e.trace_id].count(e.parent_span_id), 1u)
          << e.name << " precedes its parent";
    }
    seen[e.trace_id].insert(e.span_id);
  }
  EXPECT_EQ(seen.size(), TraceRing::Global().capacity());
}

TEST(TraceIdTest, ParseAcceptsOnlyOneToSixteenHexDigits) {
  struct Case {
    const char* text;
    uint64_t want;
  };
  const Case cases[] = {
      {"00000000deadbeef", 0xdeadbeefULL},
      {"ffffffffffffffff", 0xffffffffffffffffULL},
      {"0xDEADBEEF", 0xdeadbeefULL},
      {"0X1f", 0x1fULL},
      {"0x0123456789abcdef", 0x0123456789abcdefULL},
      {"ff", 0xffULL},
      {"7", 7},
      // Malformed input parses to 0.
      {" ff", 0},
      {"\tff", 0},
      {"ff ", 0},
      {"+ff", 0},
      {"-ff", 0},
      {"fffffffffffffffff", 0},         // 17 digits
      {"ffffffffffffffffffffffff", 0},  // 24 digits
      {"0x11111111111111111", 0},       // 17 digits after 0x
      {"", 0},
      {"0x", 0},
      {"0x+1", 0},
      {"0xg", 0},
      {"12zz", 0},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(ParseTraceId(c.text), c.want) << "input \"" << c.text << "\"";
  }
}

// Each TraceRing test resets the global ring's sampling, capacity, and
// contents so tests are order-independent.
class TraceRingTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetRing(); }
  void TearDown() override { ResetRing(); }

  static void ResetRing() {
    TraceRing::Global().SetSampleRate(0.0);
    TraceRing::Global().SetCapacity(256);
    TraceRing::Global().Clear();
  }

  // Opens a sampled trace and runs a root span with two children under
  // it, returning the trace id.
  static uint64_t CommitSimpleTrace() {
    const TraceContext ctx = TraceRing::Global().MaybeStartTrace();
    EXPECT_TRUE(ctx.valid());
    ScopedTraceContext install(ctx);
    {
      TraceSpan root("test/root");
      { SGCL_TRACE_SPAN("test/parse"); }
      { SGCL_TRACE_SPAN("test/forward"); }
    }
    return ctx.trace_id;
  }
};

TEST_F(TraceRingTest, RateZeroNeverSamples) {
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(TraceRing::Global().MaybeStartTrace().valid());
  }
  EXPECT_EQ(TraceRing::Global().sample_rate(), 0.0);
}

TEST_F(TraceRingTest, SamplesEveryNthDeterministically) {
  TraceRing::Global().SetSampleRate(0.25);  // period 4
  int sampled = 0;
  for (int i = 0; i < 40; ++i) {
    if (TraceRing::Global().MaybeStartTrace().valid()) ++sampled;
  }
  EXPECT_EQ(sampled, 10);
  EXPECT_DOUBLE_EQ(TraceRing::Global().sample_rate(), 0.25);
}

TEST_F(TraceRingTest, UntracedSpansCostNoRingEntries) {
  TraceRing::Global().SetSampleRate(1.0);
  // No ambient context installed: spans do not join any trace.
  { SGCL_TRACE_SPAN("test/orphan"); }
  EXPECT_EQ(TraceRing::Global().committed_count(), 0u);
}

TEST_F(TraceRingTest, RootSpanCommitsAssembledTree) {
  TraceRing::Global().SetSampleRate(1.0);
  const uint64_t trace_id = CommitSimpleTrace();
  const auto traces = TraceRing::Global().Traces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].trace_id, trace_id);
  EXPECT_EQ(traces[0].root_name, "test/root");
  ASSERT_EQ(traces[0].spans.size(), 3u);
  // Children carry the root's span id as parent.
  uint64_t root_span_id = 0;
  for (const auto& s : traces[0].spans) {
    if (s.parent_span_id == 0) root_span_id = s.span_id;
  }
  ASSERT_NE(root_span_id, 0u);
  for (const auto& s : traces[0].spans) {
    if (s.parent_span_id != 0) {
      EXPECT_EQ(s.parent_span_id, root_span_id);
    }
  }
  // The tree JSON nests both children under the root with self_us.
  const std::string tree = TraceRing::Global().TreeJson(trace_id);
  EXPECT_NE(tree.find("\"root\":{\"name\":\"test/root\""), std::string::npos);
  EXPECT_NE(tree.find("test/parse"), std::string::npos);
  EXPECT_NE(tree.find("test/forward"), std::string::npos);
  EXPECT_NE(tree.find("\"self_us\":"), std::string::npos);
  EXPECT_EQ(TraceRing::Global().TreeJson(trace_id + 1), "");
}

TEST_F(TraceRingTest, AmbientContextRestoredAfterScope) {
  TraceRing::Global().SetSampleRate(1.0);
  EXPECT_FALSE(CurrentTraceContext().valid());
  const TraceContext ctx = TraceRing::Global().MaybeStartTrace();
  {
    ScopedTraceContext install(ctx);
    EXPECT_EQ(CurrentTraceContext().trace_id, ctx.trace_id);
    {
      TraceSpan root("test/root");
      // Inside a span, the ambient parent is the open span itself.
      EXPECT_EQ(CurrentTraceContext().span_id, root.context().span_id);
    }
    EXPECT_EQ(CurrentTraceContext().span_id, 0u);
  }
  EXPECT_FALSE(CurrentTraceContext().valid());
}

TEST_F(TraceRingTest, LateSpansAfterCommitAreDropped) {
  TraceRing::Global().SetSampleRate(1.0);
  const uint64_t trace_id = CommitSimpleTrace();
  TraceRing::Span late;
  late.name = "test/late";
  late.trace_id = trace_id;
  late.span_id = TraceRing::NextSpanId();
  late.parent_span_id = 7;
  TraceRing::Global().RecordSpan(late);
  const auto traces = TraceRing::Global().Traces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].spans.size(), 3u);  // late span did not join
}

TEST_F(TraceRingTest, CapacityEvictsOldestTrace) {
  TraceRing::Global().SetSampleRate(1.0);
  TraceRing::Global().SetCapacity(2);
  const uint64_t first = CommitSimpleTrace();
  CommitSimpleTrace();
  CommitSimpleTrace();
  EXPECT_EQ(TraceRing::Global().committed_count(), 3u);
  const auto traces = TraceRing::Global().Traces();
  ASSERT_EQ(traces.size(), 2u);
  for (const auto& t : traces) EXPECT_NE(t.trace_id, first);
  EXPECT_EQ(TraceRing::Global().TreeJson(first), "");
}

TEST_F(TraceRingTest, RecordManualSpanRequiresRealParent) {
  TraceRing::Global().SetSampleRate(1.0);
  const TraceContext ctx = TraceRing::Global().MaybeStartTrace();
  // Invalid parent and root-level (span_id 0) parents are both no-ops:
  // a manual span with parent 0 would commit the trace as a bogus root.
  EXPECT_EQ(RecordManualSpan("test/bad", TraceContext{}, 0, 10), 0u);
  EXPECT_EQ(RecordManualSpan("test/bad", ctx, 0, 10), 0u);
  EXPECT_EQ(TraceRing::Global().committed_count(), 0u);
}

TEST_F(TraceRingTest, ManualSpanWithPreallocatedIdParentsLaterChildren) {
  // The batcher pattern: pre-allocate the forward span's id, run nested
  // work under it, record the forward span itself afterwards.
  TraceRing::Global().SetSampleRate(1.0);
  const TraceContext ctx = TraceRing::Global().MaybeStartTrace();
  const uint64_t forward_id = TraceRing::NextSpanId();
  ScopedTraceContext install(ctx);
  {
    TraceSpan root("test/root");
    {
      ScopedTraceContext forward_guard(
          TraceContext{ctx.trace_id, forward_id});
      { SGCL_TRACE_SPAN("test/infer"); }
    }
    EXPECT_EQ(RecordManualSpan("test/forward", root.context(), 10, 40,
                               forward_id),
              forward_id);
  }
  const auto traces = TraceRing::Global().Traces();
  ASSERT_EQ(traces.size(), 1u);
  bool saw_infer = false;
  for (const auto& s : traces[0].spans) {
    if (s.name == "test/infer") {
      saw_infer = true;
      EXPECT_EQ(s.parent_span_id, forward_id);
    }
    if (s.name == "test/forward") {
      EXPECT_EQ(s.span_id, forward_id);
    }
  }
  EXPECT_TRUE(saw_infer);
}

TEST_F(TraceRingTest, ListJsonFiltersAndLimits) {
  TraceRing::Global().SetSampleRate(1.0);
  CommitSimpleTrace();
  CommitSimpleTrace();
  const std::string all =
      TraceRing::Global().ListJson(/*min_duration_us=*/0, /*limit=*/0,
                                   /*include_spans=*/false);
  EXPECT_NE(all.find("\"committed\":2"), std::string::npos);
  EXPECT_NE(all.find("\"trace_id\":\""), std::string::npos);
  EXPECT_EQ(all.find("\"spans\":["), std::string::npos);
  const std::string limited =
      TraceRing::Global().ListJson(0, /*limit=*/1, /*include_spans=*/true);
  EXPECT_NE(limited.find("\"spans\":["), std::string::npos);
  // A min-duration filter far past any test span excludes everything.
  const std::string none = TraceRing::Global().ListJson(
      /*min_duration_us=*/1000000000, 0, false);
  EXPECT_NE(none.find("\"traces\":[]"), std::string::npos);
}

TEST_F(TraceRingTest, TraceIdFormatParseRoundTrip) {
  EXPECT_EQ(FormatTraceId(0xdeadbeefu), "00000000deadbeef");
  EXPECT_EQ(ParseTraceId("00000000deadbeef"), 0xdeadbeefu);
  EXPECT_EQ(ParseTraceId("0xdeadbeef"), 0xdeadbeefu);
  EXPECT_EQ(ParseTraceId(""), 0u);
  EXPECT_EQ(ParseTraceId("not-hex"), 0u);
  EXPECT_EQ(ParseTraceId("12zz"), 0u);
  EXPECT_EQ(ParseTraceId("-5"), 0u);
}

TEST_F(TraceRingTest, ConcurrentPoolWorkersJoinTheSchedulersTrace) {
  // TSan-covered (the CI sanitizer job runs *Concurrent* tests): a
  // sampled "request" fans work out to the pool; every worker installs
  // the captured context, so its spans land in the same trace.
  TraceRing::Global().SetSampleRate(1.0);
  const TraceContext ctx = TraceRing::Global().MaybeStartTrace();
  ASSERT_TRUE(ctx.valid());
  {
    ScopedTraceContext install(ctx);
    TraceSpan root("test/root");
    const TraceContext under_root = CurrentTraceContext();
    ParallelFor(0, 32, /*grain=*/2, [&](int64_t lo, int64_t hi) {
      (void)lo;
      (void)hi;
      ScopedTraceContext worker_install(under_root);
      SGCL_TRACE_SPAN("test/pool_chunk");
    });
  }
  const auto traces = TraceRing::Global().Traces();
  ASSERT_EQ(traces.size(), 1u);
  uint64_t root_span_id = 0;
  for (const auto& s : traces[0].spans) {
    if (s.parent_span_id == 0) root_span_id = s.span_id;
  }
  ASSERT_NE(root_span_id, 0u);
  // One span per chunk; the partition size varies with the pool, but
  // every chunk span must hang off the root (32 items / grain 2 caps
  // the chunk count at 16).
  int chunks = 0;
  for (const auto& s : traces[0].spans) {
    EXPECT_EQ(s.trace_id, ctx.trace_id);
    if (s.name == "test/pool_chunk") {
      ++chunks;
      EXPECT_EQ(s.parent_span_id, root_span_id);
    }
  }
  EXPECT_GE(chunks, 1);
  EXPECT_LE(chunks, 16);
}

TEST_F(TraceRingTest, ConcurrentCommitsStayBoundedAndWellFormed) {
  // TSan-covered: many threads open, populate, and commit traces
  // against a tiny ring while readers list/serialize concurrently.
  TraceRing::Global().SetSampleRate(1.0);
  TraceRing::Global().SetCapacity(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 25; ++i) {
        const TraceContext ctx = TraceRing::Global().MaybeStartTrace();
        if (!ctx.valid()) continue;
        ScopedTraceContext install(ctx);
        TraceSpan root("test/root");
        { SGCL_TRACE_SPAN("test/child"); }
      }
    });
  }
  threads.emplace_back([] {
    for (int i = 0; i < 50; ++i) {
      (void)TraceRing::Global().ListJson(0, 0, true);
      (void)TraceRing::Global().Traces();
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(TraceRing::Global().committed_count(), 100u);
  EXPECT_LE(TraceRing::Global().Traces().size(), 4u);
  for (const auto& trace : TraceRing::Global().Traces()) {
    EXPECT_EQ(trace.root_name, "test/root");
    EXPECT_EQ(trace.spans.size(), 2u);
  }
}

TEST_F(TraceRingTest, ConcurrentPoolChunksInheritTheSubmittersContext) {
  // TSan-covered: no ScopedTraceContext in the chunk body. ThreadPool
  // carries the caller's context into each task, so every chunk span
  // joins the trace as a child of the span enclosing the ParallelFor.
  SetParallelThreads(4);
  TraceRing::Global().SetSampleRate(1.0);
  const TraceContext ctx = TraceRing::Global().MaybeStartTrace();
  ASSERT_TRUE(ctx.valid());
  uint64_t stage_span_id = 0;
  {
    ScopedTraceContext install(ctx);
    TraceSpan root("test/root");
    TraceSpan stage("test/stage");
    stage_span_id = stage.context().span_id;
    // 32 items, grain 2, 4 workers: four chunks, three on pool threads.
    ParallelFor(0, 32, /*grain=*/2, [](int64_t, int64_t) {
      SGCL_TRACE_SPAN("test/chunk");
    });
  }
  SetParallelThreads(0);
  const auto traces = TraceRing::Global().Traces();
  ASSERT_EQ(traces.size(), 1u);
  int chunks = 0;
  std::set<int> chunk_tids;
  for (const auto& s : traces[0].spans) {
    if (s.name != "test/chunk") continue;
    ++chunks;
    chunk_tids.insert(s.tid);
    EXPECT_EQ(s.trace_id, ctx.trace_id);
    EXPECT_EQ(s.parent_span_id, stage_span_id);
  }
  EXPECT_EQ(chunks, 4);
  EXPECT_GE(chunk_tids.size(), 2u);
}

}  // namespace
}  // namespace sgcl
