// Shared machinery of the repository benchmark: run options, the result
// record, in-memory spans, sample statistics, metrics-registry deltas and
// the op-count model. Everything here sits outside the sgcl library and
// only calls its public API.
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "core/sgcl_config.h"
#include "graph/graph.h"
#include "nn/gin_inference.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;         // seconds-long smoke size (the self-test)
  std::string scratch_dir;   // per-run temporary directory (removed at exit)
  std::string trace_out;     // chrome-trace file for the traced run's spans
};

// What one run reports: operation tallies, correctness, the metrics the
// final JSON line carries, and a human-readable table printed before it.
class Outcome {
 public:
  // Counts one attempted operation; a non-OK status is a failure.
  void Op(const sgcl::Status& status, const std::string& what);
  // Counts one correctness check; a false condition is a failure and
  // marks the run incorrect.
  void Check(bool ok, const std::string& what);
  // Adds attempted operations without an individual status (e.g. HTTP
  // requests tallied by the load generator).
  void Tally(int64_t attempted, int64_t failed, const std::string& what);

  void Metric(const std::string& name, double value, const std::string& unit);
  // A line of the human-readable summary (not part of the JSON result).
  void Display(const std::string& name, double value, const std::string& unit,
               const std::string& note = "");

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  double error_pct() const {
    return attempted_ > 0 ? 100.0 * static_cast<double>(failed_) /
                                static_cast<double>(attempted_)
                          : 0.0;
  }

  // Orders the metrics as the traced (per-layer) or untraced
  // (end-to-end) list names them: a per-layer metric the workload did not
  // measure reads 0; a missing end-to-end metric fails the run.
  void Finish(bool trace);
  // Prints failures and the summary table, then the single-line JSON
  // result.
  void Print(const std::string& workload) const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note;
  };
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool correct_ = true;
  std::vector<std::string> failures_;
  std::vector<Entry> metrics_;
  std::vector<Entry> display_;
};

// ---- Spans -------------------------------------------------------------
//
// Spans are recorded from the benchmark's own files around calls into the
// library's public functions. They are kept in memory and written out as a
// chrome-trace file when the run ends. A disabled tracer records nothing
// and costs one branch per span.
class Tracer {
 public:
  struct SpanRecord {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;  // index into spans(), -1 for a root
    uint64_t thread = 0;
  };

  static Tracer& Get();

  void SetEnabled(bool enabled);
  bool enabled() const { return enabled_; }

  int64_t Begin(const std::string& name);
  void End(int64_t id);

  // Per span name: how many spans, their summed duration, and their self
  // time — duration minus the part covered by direct children.
  struct NameSummary {
    int64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, NameSummary> Summarize() const;

  sgcl::Status WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

class Span {
 public:
  explicit Span(const char* name)
      : id_(Tracer::Get().enabled() ? Tracer::Get().Begin(name) : -1) {}
  ~Span() {
    if (id_ >= 0) Tracer::Get().End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t id_;
};

// ---- Statistics ----------------------------------------------------------

// Linear-interpolated quantile; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);
double Mean(const std::vector<double>& values);
double Sum(const std::vector<double>& values);
// The q-quantile of each of up to seven equal windows of consecutive
// samples (one window per 200 samples), median over the windows: a tail
// statistic that one scheduler stall of a shared host moves in one window
// only.
double WindowedQuantile(const std::vector<double>& values, double q);

// Counter and histogram deltas between two registry snapshots.
class MetricsDelta {
 public:
  MetricsDelta(const sgcl::MetricsSnapshot& before,
               const sgcl::MetricsSnapshot& after)
      : before_(before), after_(after) {}
  static sgcl::MetricsSnapshot Now() {
    return sgcl::MetricsRegistry::Global().Snapshot();
  }

  int64_t Counter(const std::string& name) const;
  // The histogram of observations made between the snapshots (bucket
  // counts, count and sum subtracted). Empty when never registered.
  sgcl::MetricsSnapshot::HistogramData Histogram(const std::string& name) const;

 private:
  sgcl::MetricsSnapshot before_;
  sgcl::MetricsSnapshot after_;
};

// Bucket-wise sum of two histograms with identical bounds.
sgcl::MetricsSnapshot::HistogramData MergeHistograms(
    const sgcl::MetricsSnapshot::HistogramData& a,
    const sgcl::MetricsSnapshot::HistogramData& b);
// Quantile of a histogram, 0 when it holds no observations.
double HistQuantile(const sgcl::MetricsSnapshot::HistogramData& h, double q);

// ---- Op counts -----------------------------------------------------------
//
// Multiply-accumulates and bytes moved, computed from layer shapes. Bytes
// count each matmul's operand reads and result write once (4-byte floats);
// they are a model of traffic, not a measurement.
struct OpCount {
  double macs = 0.0;
  double bytes = 0.0;
  OpCount& operator+=(const OpCount& o) {
    macs += o.macs;
    bytes += o.bytes;
    return *this;
  }
};

// One dense [m,k] x [k,n] product.
OpCount MatMulCount(double m, double k, double n);

// One encoder pass of the GIN stack described by `layers` over `nodes`
// rows (the fused plan and the tape share the arithmetic).
OpCount EncoderPassCount(const std::vector<sgcl::GinLayerParams>& layers,
                         double nodes);

// Tape matmuls of one SgclModel::ComputeLoss call under `config` over a
// batch of `graphs` graphs with `nodes` total nodes: five tape encoder
// passes, the keep-probability head, the projection head and the InfoNCE
// similarity products, plus the attention-approx generator's detached f_q
// pass when that mode is configured. `backward_macs` receives the MACs of
// the matching backward closures (dW always, dX unless the operand is a
// raw feature matrix; detached passes none).
OpCount TapeLossCount(const std::vector<sgcl::GinLayerParams>& layers,
                      const sgcl::SgclConfig& config, double nodes,
                      double graphs, double* backward_macs);

// GinMaskedViewKernel work for scoring every node of `graph`: one base
// encode plus, per masked node r and layer l, the closed l-hop ball
// around r re-encoded.
OpCount MaskedViewCount(const std::vector<sgcl::GinLayerParams>& layers,
                        const sgcl::Graph& graph);

// ---- Misc ----------------------------------------------------------------

double PeakRssMib();

// Cumulative CPU time of the machine from /proc/stat, in clock ticks: all
// states, and the share a hypervisor gave to other guests (steal). Zero
// when /proc/stat is unreadable.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();
// Share of the machine's CPU time stolen by the hypervisor between two
// readings (0 when /proc/stat is unreadable).
double StealShare(const CpuTicks& before, const CpuTicks& after);
// Which measurement units to keep: those whose steal share is within one
// percentage point of the least stolen unit. On a shared host, a unit
// measured while other guests took the CPU times them, not this program.
std::vector<bool> LeastStolen(const std::vector<double>& steal_share);

// Machine and build context, one JSON object.
std::string ContextJson(const RunOptions& options);

// Splits `total` seconds by `share`, never below `floor_s`.
double Budget(double total, double share, double floor_s);

// Runs the named workload.
void RunExactPipeline(const RunOptions& options, Outcome* out);
void RunStreamDp2(const RunOptions& options, Outcome* out);
void RunServeOpen(const RunOptions& options, Outcome* out);

// (name, unit) of the metrics an untraced run reports, and of those a
// traced run reports. Every workload reports every name; in a traced run
// a workload that does not exercise a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
