// Thread-safe process metrics: named counters, gauges, and fixed-bucket
// histograms behind a registry with consistent snapshots and JSONL export.
//
// Design goals, in order:
//  1. Negligible overhead on hot paths. Updates are single relaxed
//     atomics; instrumentation sites cache the metric pointer in a
//     function-local static so the name lookup happens once per process.
//  2. Always-on. Metrics accumulate unconditionally (unlike trace spans,
//     which are off unless enabled); "export or not" is the caller's
//     decision at snapshot time.
//  3. Deterministic output. Snapshots serialize metrics in name order, so
//     two runs with identical workloads produce byte-identical JSON
//     (modulo timing-valued metrics).
//
// Naming convention: "<subsystem>/<metric>[_<unit>]", e.g.
// "parallel/tasks", "time/generator_us". Stage-duration counters use the
// "time/" prefix and "_us" suffix; SgclTrainer turns exactly those into
// per-stage second tallies (see sgcl_trainer.h).
#ifndef SGCL_COMMON_METRICS_H_
#define SGCL_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace sgcl {

// Monotonically increasing integer metric.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Last-write-wins floating-point metric.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// A recent-sample exemplar attached to a histogram bucket: the trace id
// of one observation that landed there, plus that observation's value.
// Lets the p99 bucket in /metrics link straight to an offending trace in
// /v1/traces. trace_id == 0 means "no exemplar recorded".
struct Exemplar {
  uint64_t trace_id = 0;
  double value = 0.0;
};

// Fixed-bucket histogram. Bucket i counts observations v <= bounds[i]
// (bounds ascending); one implicit overflow bucket counts the rest.
// Observe is lock-free: bucket counts and the total count are relaxed
// atomics, the running sum is a CAS loop (atomic<double>::fetch_add is
// not universally available pre-C++20 ABI).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);
  // Observe plus a last-write-wins exemplar stamp on the sample's
  // bucket. The (trace_id, value) pair is two relaxed stores, so a
  // racing reader may pair a trace id with a neighboring sample's value
  // — acceptable for "a recent sample", and race-free under TSan.
  // trace_id 0 degrades to plain Observe.
  void ObserveWithExemplar(double v, uint64_t trace_id);

  const std::vector<double>& bounds() const { return bounds_; }
  // bounds().size() + 1 entries; the last is the overflow bucket.
  std::vector<int64_t> BucketCounts() const;
  // bounds().size() + 1 entries aligned with BucketCounts().
  std::vector<Exemplar> Exemplars() const;
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  struct ExemplarSlot {
    std::atomic<uint64_t> trace_id{0};
    std::atomic<double> value{0.0};
  };

  size_t BucketIndex(double v) const;

  std::vector<double> bounds_;
  std::vector<std::atomic<int64_t>> buckets_;
  std::vector<ExemplarSlot> exemplars_;
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// Point-in-time copy of every registered metric.
struct MetricsSnapshot {
  struct HistogramData {
    std::vector<double> bounds;
    std::vector<int64_t> buckets;  // bounds.size() + 1 (overflow last)
    std::vector<Exemplar> exemplars;  // aligned with buckets
    int64_t count = 0;
    double sum = 0.0;

    // Estimated q-quantile (q in [0,1], clamped) by linear interpolation
    // within the bucket holding the target rank, Prometheus
    // histogram_quantile-style: the first finite bucket interpolates from
    // min(0, bound), and ranks landing in the overflow bucket degrade to
    // the largest finite bound. NaN when the histogram is empty.
    double Quantile(double q) const;
  };
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;

  // One JSON object (single line, no trailing newline), keys sorted:
  // {"counters":{...},"gauges":{...},"histograms":{...}}. Histograms
  // include precomputed "p50"/"p95"/"p99" quantile estimates and any
  // per-bucket exemplars ({"bucket":i,"trace_id":"<hex>","value":v}).
  std::string ToJson() const;

  // Prometheus text exposition format (version 0.0.4): one "# TYPE" line
  // plus samples per metric, in name order. Metric names are sanitized
  // ('/' and any other character outside [a-zA-Z0-9_:] become '_') and
  // prefixed "sgcl_"; histograms expose cumulative "_bucket{le=...}"
  // series (including le="+Inf") plus "_sum" and "_count". Buckets with
  // an exemplar append the OpenMetrics suffix
  // `# {trace_id="<hex>"} <value>` to their sample line.
  std::string ToPrometheusText() const;
};

// Owner of all metrics. Get* registers on first use and returns a pointer
// that stays valid (and keeps accumulating across Reset) for the registry's
// lifetime, so call sites may cache it in a static.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  // Re-registering an existing histogram ignores `bounds` (first wins).
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds);

  MetricsSnapshot Snapshot() const;
  // Zeroes every metric's value; registrations (and cached pointers)
  // survive. Intended for tests and per-run isolation in tools.
  void Reset();

  // The process-wide registry all built-in instrumentation reports to.
  static MetricsRegistry& Global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      SGCL_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ SGCL_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      SGCL_GUARDED_BY(mu_);
};

// JSON string escaping for metric names / labels (shared with trace
// export and the CLI's epoch records).
std::string JsonEscape(const std::string& s);

// Formats a double as a JSON-safe token: finite values round-trip via
// "%.17g", non-finite values serialize as null (JSON has no NaN/Inf
// tokens, and coercing them to 0 would mask loss divergence).
std::string JsonDouble(double v);

// Sanitizes an internal metric name ("parallel/queue_wait_us") into a
// Prometheus-legal one ("sgcl_parallel_queue_wait_us").
std::string PrometheusMetricName(const std::string& name);

}  // namespace sgcl

#endif  // SGCL_COMMON_METRICS_H_
