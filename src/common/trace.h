// Scoped trace spans collected into request-/batch-scoped trace trees
// in a bounded in-memory ring buffer, served live at /v1/traces and
// exported as chrome://tracing "trace event" JSON (/trace, --trace-out).
//
// Usage at an instrumentation site:
//   void Stage() {
//     SGCL_TRACE_SPAN("generator/fused_views");
//     ...
//   }
// or, to also accumulate the stage's wall time into a metrics counter
// (the "time/<stage>_us" convention consumed by SgclTrainer):
//   SGCL_TRACE_SPAN_TIMED("generator");   // counter "time/generator_us"
//
// TraceRing is the only span sink. A root is opened with
// TraceRing::MaybeStartTrace() (a deterministic every-Nth sampler; rate
// 0 disables), installed as the thread's ambient TraceContext via
// ScopedTraceContext, and every TraceSpan that runs under an ambient
// context becomes a node in that trace's span tree (64-bit trace id +
// parent span id). When the root span closes, the assembled tree is
// committed to the ring (oldest trace evicted) and is queryable as JSON.
// Spans outside any sampled trace are not recorded anywhere.
//
// Crossing a thread boundary: ThreadPool::Submit carries the
// submitter's ambient context into the task, so ParallelFor chunks and
// prefetch fetches join the caller's trace. Threads the pool does not
// own (the micro-batcher's dispatch thread) capture CurrentTraceContext()
// on the submitting side and install it with ScopedTraceContext.
//
// Cost when untraced: one thread-local read per span and no clock reads,
// locks or allocation (TIMED spans keep feeding their counter either
// way — metrics are always-on). MaybeStartTrace with rate 0 is one
// relaxed load.
//
// Span conventions: names are "<subsystem>/<what>" (stage-level, not
// per-node — spans inside tight loops belong at chunk granularity).
// Thread ids are small dense integers assigned in first-use order
// (TraceThreadId); timestamps are TraceNowUs() microseconds. Logging
// stamps its records with the same clock and ids.
#ifndef SGCL_COMMON_TRACE_H_
#define SGCL_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace sgcl {

// Identity of the trace (and enclosing span) a piece of work belongs to.
// trace_id == 0 means "not traced"; span_id is the id of the innermost
// open span, i.e. the parent for any span started under this context.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;

  bool valid() const { return trace_id != 0; }
};

// The calling thread's ambient context ({0,0} when untraced).
TraceContext CurrentTraceContext();

// Formats a trace id as the 16-digit lowercase hex string used in JSON,
// HTTP paths, and response headers. ParseTraceId accepts 1-16 hex
// digits after an optional "0x" prefix and returns 0 on anything else
// (whitespace, signs, more than 16 digits).
std::string FormatTraceId(uint64_t trace_id);
uint64_t ParseTraceId(const std::string& text);

// The process's trace clock: microseconds since a steady-clock epoch
// fixed at first use. Span timestamps, manual-span timestamps and log
// records all read it, so they share one timeline.
int64_t TraceNowUs();
// Dense id of the calling thread, assigned in first-use order.
int TraceThreadId();

// RAII install/restore of the ambient TraceContext. Used to carry a
// context across thread boundaries (pool tasks, the batcher's dispatch
// thread); installing an invalid context is a no-op so untraced work
// pays nothing.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext ctx);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
  bool installed_ = false;
};

// Bounded ring of completed sampled traces. Always on (capacity bounds
// memory); sampling rate controls how many roots open. Thread-safe.
class TraceRing {
 public:
  struct Span {
    std::string name;
    uint64_t trace_id = 0;
    uint64_t span_id = 0;
    uint64_t parent_span_id = 0;  // 0 == root
    int tid = 0;
    int64_t start_us = 0;
    int64_t dur_us = 0;
  };

  struct Trace {
    uint64_t trace_id = 0;
    std::string root_name;
    int64_t start_us = 0;
    int64_t dur_us = 0;        // root span duration
    std::vector<Span> spans;   // includes the root, completion order
  };

  TraceRing();
  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  // Sampling: rate in [0,1]; 0 disables. Implemented as a deterministic
  // every-Nth admission (period = round(1/rate)) off a relaxed atomic
  // counter — no RNG, so sampled runs stay reproducible (sgcl-R2).
  void SetSampleRate(double rate);
  double sample_rate() const;

  // Ring capacity in completed traces (default 256; minimum 1).
  void SetCapacity(size_t capacity);
  size_t capacity() const;

  // Opens a new trace if the sampler admits this call. The returned
  // context has span_id == 0: the first TraceSpan run under it becomes
  // the trace's root, and its completion commits the trace to the ring.
  // Returns an invalid context (trace_id 0) when not sampled.
  TraceContext MaybeStartTrace();

  // Appends a completed span to its (open) trace; called by TraceSpan
  // and by instrumentation that synthesizes spans with explicit
  // timestamps (e.g. the micro-batcher's queue_wait). Spans for unknown
  // or already-committed traces are dropped. A span with
  // parent_span_id == 0 commits the trace.
  void RecordSpan(Span span);

  // Fresh span id (process-wide, never 0).
  static uint64_t NextSpanId();

  // Completed traces, newest first.
  std::vector<Trace> Traces() const;
  // Number of traces committed since construction/Clear (not capped by
  // capacity — used by tests and /v1/traces metadata).
  uint64_t committed_count() const;
  void Clear();  // drops completed traces and in-flight span buffers

  // JSON for /v1/traces: newest-first summaries filtered by
  // min_duration_us, capped at limit (<=0 means no cap).
  std::string ListJson(int64_t min_duration_us, int limit) const;
  // JSON span tree for /v1/traces/<id>; empty string when unknown.
  std::string TreeJson(uint64_t trace_id) const;

  // chrome://tracing JSON of the committed traces, oldest first:
  // {"traceEvents":[...],"displayTimeUnit":"ms"} with one "ph":"X"
  // event per span and args {trace_id, span_id, parent_span_id}. Each
  // trace is emitted root first in tree order, so a parent precedes its
  // children; spans not reachable from the root are left out, as in
  // TreeJson. Backs /trace and --trace-out.
  std::string ToChromeTraceJson() const;
  Status WriteChromeTrace(const std::string& path) const;

  static TraceRing& Global();

 private:
  void CommitLocked(uint64_t trace_id) SGCL_REQUIRES(mu_);

  std::atomic<uint64_t> period_{0};      // 0 == sampling off
  std::atomic<uint64_t> admit_seq_{0};   // every-Nth admission counter
  std::atomic<uint64_t> trace_seq_{0};   // mixed into trace ids

  mutable std::mutex mu_;
  size_t capacity_ SGCL_GUARDED_BY(mu_) = 256;
  uint64_t committed_count_ SGCL_GUARDED_BY(mu_) = 0;
  std::deque<Trace> completed_ SGCL_GUARDED_BY(mu_);  // oldest at front
  // In-flight traces: spans buffered until the root span closes. A
  // trace id is "open" iff it has an entry here; spans for other ids
  // (late arrivals after commit, foreign ids) are dropped.
  std::unordered_map<uint64_t, std::vector<Span>> pending_
      SGCL_GUARDED_BY(mu_);
};

// Records a completed span with explicit timestamps (TraceNowUs values)
// into the trace ring as a child of `parent`. Used by instrumentation
// that reconstructs phases after the fact (the micro-batcher's
// per-request queue_wait/forward); no-op returning 0 when
// `parent` is invalid. Returns the span's id. Passing a nonzero
// `span_id` (from TraceRing::NextSpanId) uses it instead of allocating;
// this lets callers pre-allocate an id, run nested work under
// ScopedTraceContext{trace_id, span_id}, and record the enclosing span
// afterwards with the children already pointing at it.
uint64_t RecordManualSpan(const char* name, TraceContext parent,
                          int64_t start_us, int64_t end_us,
                          uint64_t span_id = 0);

// RAII span. When `time_counter` is non-null the scope's duration is
// always added to it (in µs); the span is only recorded when the
// thread's ambient TraceContext is valid, in which case it joins that
// trace and becomes the ambient parent for its scope.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, Counter* time_counter = nullptr);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  // Identity of this span while open ({0,0} when the span is not part
  // of a sampled trace). Lets instrumentation attach the id to
  // exemplars/headers without reaching back into thread-locals.
  TraceContext context() const { return TraceContext{trace_id_, span_id_}; }

 private:
  const char* name_;
  Counter* counter_;
  uint64_t trace_id_ = 0;     // nonzero => part of a ring trace
  uint64_t span_id_ = 0;
  uint64_t parent_span_id_ = 0;
  int64_t start_us_ = 0;
};

}  // namespace sgcl

#define SGCL_TRACE_CONCAT_IMPL_(a, b) a##b
#define SGCL_TRACE_CONCAT_(a, b) SGCL_TRACE_CONCAT_IMPL_(a, b)

// Trace-only span (no metrics counter).
#define SGCL_TRACE_SPAN(name)                                       \
  ::sgcl::TraceSpan SGCL_TRACE_CONCAT_(_sgcl_trace_span_, __LINE__)(name)

// Span that also accumulates wall time into counter "time/<name>_us" in
// the global metrics registry. `name` must be a string literal.
#define SGCL_TRACE_SPAN_TIMED(name)                                        \
  static ::sgcl::Counter* SGCL_TRACE_CONCAT_(_sgcl_span_counter_,          \
                                             __LINE__) =                   \
      ::sgcl::MetricsRegistry::Global().GetCounter("time/" name "_us");    \
  ::sgcl::TraceSpan SGCL_TRACE_CONCAT_(_sgcl_trace_span_, __LINE__)(       \
      name, SGCL_TRACE_CONCAT_(_sgcl_span_counter_, __LINE__))

#endif  // SGCL_COMMON_TRACE_H_
