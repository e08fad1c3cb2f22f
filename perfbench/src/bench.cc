#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <thread>

#include "common/parallel.h"

namespace perfbench {

namespace {

uint64_t ThreadKey() {
  return static_cast<uint64_t>(
      std::hash<std::thread::id>()(std::this_thread::get_id()));
}

thread_local std::vector<int64_t> t_open_spans;

}  // namespace

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},
      {"peak_rss_mib", "MiB"},
      {"graphs_per_s", "graphs/s"},
      {"latency_p50_ms", "ms"},
      {"latency_p90_ms", "ms"},
  };
  return names;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"core.generator_ms_per_graph", "ms"},
      {"core.generator_share_pct", "%"},
      {"core.generator_views_per_s", "1/s"},
      {"core.step_ms_p50", "ms"},
      {"core.step_ms_p99", "ms"},
      {"core.checkpoint_save_ms", "ms"},
      {"core.checkpoint_stall_pct", "%"},
      {"nn.forward_ms_per_step", "ms"},
      {"nn.forward_gmacs_per_s", "GMAC/s"},
      {"nn.forward_mmacs_per_step", "MMAC"},
      {"nn.forward_mb_per_step", "MB"},
      {"nn.fused_gmacs_per_s", "GMAC/s"},
      {"nn.fused_mmacs_per_batch", "MMAC"},
      {"nn.fused_mb_per_batch", "MB"},
      {"tensor.backward_ms_per_step", "ms"},
      {"tensor.backward_gmacs_per_s", "GMAC/s"},
      {"tensor.optimizer_ms_per_step", "ms"},
      {"data.fetch_us_p50", "us"},
      {"data.fetch_us_p99", "us"},
      {"data.prefetch_stall_ms", "ms"},
      {"data.shard_cache_hit_pct", "%"},
      {"data.shard_decodes", "count"},
      {"comms.allreduce_wait_pct", "%"},
      {"comms.bytes_per_round", "bytes"},
      {"comms.rounds", "count"},
      {"comms.dp_speedup_x", "x"},
      {"common.pool_queue_wait_us_p99", "us"},
      {"eval.embed_ms", "ms"},
      {"eval.svm_cv_ms", "ms"},
      {"eval.svm_accuracy_pct", "%"},
      {"eval.pipeline_s", "s"},
      {"baselines.graphcl_graphs_per_s", "graphs/s"},
      {"serve.parse_us_p50", "us"},
      {"serve.queue_wait_us_p50", "us"},
      {"serve.queue_wait_us_p99", "us"},
      {"serve.batch_graphs_mean", "count"},
      {"serve.forward_us_p50", "us"},
      {"serve.forward_us_p99", "us"},
      {"serve.http_us_p50", "us"},
      {"serve.rejected_pct", "%"},
      {"serve.loadgen_late_us_p99", "us"},
      {"serve.max_qps", "req/s"},
      {"serve.capacity_batch_graphs_mean", "count"},
      {"serve.capacity_forward_pct", "%"},
      {"bench.error_pct", "%"},
      {"bench.trace_overhead_pct", "%"},
  };
  return names;
}

// ---- Outcome ---------------------------------------------------------------

void Outcome::Op(const sgcl::Status& status, const std::string& what) {
  ++attempted_;
  if (!status.ok()) {
    ++failed_;
    failures_.push_back(what + ": " + status.ToString());
  }
}

void Outcome::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    correct_ = false;
    failures_.push_back("check failed: " + what);
  }
}

void Outcome::Tally(int64_t attempted, int64_t failed,
                    const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    failures_.push_back(what + ": " + std::to_string(failed) + " of " +
                        std::to_string(attempted) + " failed");
  }
}

void Outcome::Metric(const std::string& name, double value,
                     const std::string& unit) {
  for (Entry& e : metrics_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit, ""});
}

void Outcome::Display(const std::string& name, double value,
                      const std::string& unit, const std::string& note) {
  display_.push_back({name, value, unit, note});
}

void Outcome::Finish(bool trace) {
  if (trace) Metric("bench.error_pct", error_pct(), "%");
  std::vector<Entry> ordered;
  for (const auto& [name, unit] : trace ? PerLayerMetrics() : EndToEndMetrics()) {
    auto it = std::find_if(metrics_.begin(), metrics_.end(),
                           [&](const Entry& e) { return e.name == name; });
    if (it != metrics_.end()) {
      ordered.push_back(*it);
    } else if (trace) {
      ordered.push_back({name, 0.0, unit, ""});  // layer not exercised
    } else {
      Check(false, "end-to-end metric " + name + " was not measured");
      ordered.push_back({name, 0.0, unit, ""});
    }
  }
  metrics_ = std::move(ordered);
}

void Outcome::Print(const std::string& workload) const {
  for (const std::string& f : failures_) {
    std::printf("FAILURE %s\n", f.c_str());
  }
  if (!display_.empty()) {
    std::printf("%s:\n", workload.c_str());
    for (const Entry& e : display_) {
      std::printf("  %-32s %14.6g %-9s %s\n", e.name.c_str(), e.value,
                  e.unit.c_str(), e.note.c_str());
    }
  }
  std::string json = "{\"correct\":";
  json += correct_ && failed_ == 0 ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(std::max<int64_t>(1, attempted_));
  json += ",\"failed\":" + std::to_string(failed_);
  json += ",\"metrics\":{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) json += ',';
    const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
    json += '"';
    json += sgcl::JsonEscape(metrics_[i].name);
    json += "\":{\"value\":";
    json += sgcl::JsonDouble(v);
    json += ",\"unit\":\"";
    json += sgcl::JsonEscape(metrics_[i].unit);
    json += "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---- Tracer ----------------------------------------------------------------

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::SetEnabled(bool enabled) { enabled_ = enabled; }

int64_t Tracer::Begin(const std::string& name) {
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - epoch_)
                          .count();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord rec;
  rec.name = name;
  rec.start_ns = now;
  rec.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  rec.thread = ThreadKey();
  spans_.push_back(std::move(rec));
  const int64_t id = static_cast<int64_t>(spans_.size()) - 1;
  t_open_spans.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - epoch_)
                          .count();
  if (!t_open_spans.empty() && t_open_spans.back() == id) {
    t_open_spans.pop_back();
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

std::map<std::string, Tracer::NameSummary> Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, NameSummary> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    NameSummary& s = out[spans_[i].name];
    ++s.count;
    s.total_s += static_cast<double>(dur) * 1e-9;
    s.self_s += static_cast<double>(dur - child_ns[i]) * 1e-9;
  }
  return out;
}

sgcl::Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return sgcl::Status::Internal("cannot write " + path);
  std::lock_guard<std::mutex> lock(mu_);
  std::map<uint64_t, int> tids;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const auto [it, inserted] =
        tids.emplace(s.thread, static_cast<int>(tids.size()));
    if (i > 0) out << ',';
    out << "{\"name\":\"" << sgcl::JsonEscape(s.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << it->second
        << ",\"ts\":" << sgcl::JsonDouble(static_cast<double>(s.start_ns) / 1e3)
        << ",\"dur\":"
        << sgcl::JsonDouble(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << "}";
  }
  out << "]}\n";
  out.flush();
  if (!out) return sgcl::Status::Internal("write failed for " + path);
  return sgcl::Status::OK();
}

// ---- Statistics --------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Sum(const std::vector<double>& values) {
  double s = 0.0;
  for (double v : values) s += v;
  return s;
}

double WindowedQuantile(const std::vector<double>& values, double q) {
  const size_t windows =
      std::clamp<size_t>(values.size() / 200, 1, 7);
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    const size_t begin = values.size() * w / windows;
    const size_t end = values.size() * (w + 1) / windows;
    per_window.push_back(Quantile(
        std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(begin),
                            values.begin() + static_cast<std::ptrdiff_t>(end)),
        q));
  }
  return Median(per_window);
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : Sum(values) / static_cast<double>(values.size());
}

int64_t MetricsDelta::Counter(const std::string& name) const {
  const auto a = after_.counters.find(name);
  const auto b = before_.counters.find(name);
  const int64_t va = a == after_.counters.end() ? 0 : a->second;
  const int64_t vb = b == before_.counters.end() ? 0 : b->second;
  return va - vb;
}

sgcl::MetricsSnapshot::HistogramData MetricsDelta::Histogram(
    const std::string& name) const {
  sgcl::MetricsSnapshot::HistogramData out;
  const auto a = after_.histograms.find(name);
  if (a == after_.histograms.end()) return out;
  out = a->second;
  const auto b = before_.histograms.find(name);
  if (b != before_.histograms.end() &&
      b->second.buckets.size() == out.buckets.size()) {
    for (size_t i = 0; i < out.buckets.size(); ++i) {
      out.buckets[i] -= b->second.buckets[i];
    }
    out.count -= b->second.count;
    out.sum -= b->second.sum;
  }
  return out;
}

sgcl::MetricsSnapshot::HistogramData MergeHistograms(
    const sgcl::MetricsSnapshot::HistogramData& a,
    const sgcl::MetricsSnapshot::HistogramData& b) {
  if (a.buckets.empty()) return b;
  if (b.buckets.empty()) return a;
  sgcl::MetricsSnapshot::HistogramData out = a;
  for (size_t i = 0; i < out.buckets.size() && i < b.buckets.size(); ++i) {
    out.buckets[i] += b.buckets[i];
  }
  out.count += b.count;
  out.sum += b.sum;
  return out;
}

double HistQuantile(const sgcl::MetricsSnapshot::HistogramData& h, double q) {
  if (h.count <= 0) return 0.0;
  const double v = h.Quantile(q);
  return std::isfinite(v) ? v : 0.0;
}

// ---- Op counts -----------------------------------------------------------------

OpCount MatMulCount(double m, double k, double n) {
  OpCount c;
  c.macs = m * k * n;
  c.bytes = 4.0 * (m * k + k * n + m * n);
  return c;
}

OpCount EncoderPassCount(const std::vector<sgcl::GinLayerParams>& layers,
                         double nodes) {
  OpCount c;
  for (const sgcl::GinLayerParams& l : layers) {
    c += MatMulCount(nodes, static_cast<double>(l.in),
                     static_cast<double>(l.hid));
    c += MatMulCount(nodes, static_cast<double>(l.hid),
                     static_cast<double>(l.out));
  }
  return c;
}

OpCount TapeLossCount(const std::vector<sgcl::GinLayerParams>& layers,
                      const sgcl::SgclConfig& config, double nodes,
                      double graphs, double* backward_macs) {
  const double h = static_cast<double>(layers.back().out);
  const double f = static_cast<double>(layers.front().in);
  const double first_hid = static_cast<double>(layers.front().hid);
  const double p = static_cast<double>(config.proj_dim);
  const double b = graphs;
  const bool complement = config.lambda_c > 0.0f;
  const bool gen_loss = config.generator_loss_weight > 0.0f;
  OpCount fwd;
  double bwd = 0.0;
  auto grad_op = [&](const OpCount& c, double skipped_dx_macs) {
    fwd += c;
    bwd += 2.0 * c.macs - skipped_dx_macs;
  };
  const OpCount pass = EncoderPassCount(layers, nodes);
  // f_q(batch), f_k(sample view), f_k(anchor), plus f_q(sample view) for
  // the generator-tower loss and f_k(complement view) for L_c. The first
  // linear of each pass reads a raw feature matrix, which needs no dX.
  const int passes = 3 + (gen_loss ? 1 : 0) + (complement ? 1 : 0);
  for (int i = 0; i < passes; ++i) grad_op(pass, nodes * f * first_hid);
  grad_op(MatMulCount(nodes, h, 1.0), 0.0);  // keep-probability head
  const int projections = 2 + (complement ? 1 : 0);
  for (int i = 0; i < projections; ++i) {
    grad_op(MatMulCount(b, h, h), 0.0);
    grad_op(MatMulCount(b, h, p), 0.0);
  }
  grad_op(MatMulCount(b, p, b), 0.0);                 // L_s similarity
  if (gen_loss) grad_op(MatMulCount(b, h, b), 0.0);   // f_q InfoNCE
  if (complement) {
    grad_op(MatMulCount(b, p, b), 0.0);  // anchor vs sample
    grad_op(MatMulCount(b, p, b), 0.0);  // anchor vs complement
  }
  if (config.lipschitz_mode == sgcl::LipschitzMode::kAttentionApprox) {
    fwd += pass;  // detached: no backward
  }
  if (backward_macs != nullptr) *backward_macs = bwd;
  return fwd;
}

OpCount MaskedViewCount(const std::vector<sgcl::GinLayerParams>& layers,
                        const sgcl::Graph& graph) {
  const int64_t n = graph.num_nodes();
  OpCount c = EncoderPassCount(layers, static_cast<double>(n));
  std::vector<std::vector<int32_t>> adj(static_cast<size_t>(n));
  for (size_t e = 0; e < graph.edge_src().size(); ++e) {
    adj[static_cast<size_t>(graph.edge_src()[e])].push_back(
        graph.edge_dst()[e]);
  }
  std::vector<int> dist(static_cast<size_t>(n));
  std::vector<int32_t> frontier, next;
  const int depth = static_cast<int>(layers.size());
  for (int64_t r = 0; r < n; ++r) {
    std::fill(dist.begin(), dist.end(), -1);
    dist[static_cast<size_t>(r)] = 0;
    frontier.assign(1, static_cast<int32_t>(r));
    int64_t ball = 1;
    for (int l = 0; l < depth; ++l) {
      next.clear();
      for (int32_t u : frontier) {
        for (int32_t v : adj[static_cast<size_t>(u)]) {
          if (dist[static_cast<size_t>(v)] < 0) {
            dist[static_cast<size_t>(v)] = l + 1;
            next.push_back(v);
          }
        }
      }
      ball += static_cast<int64_t>(next.size());
      frontier.swap(next);
      const sgcl::GinLayerParams& p = layers[static_cast<size_t>(l)];
      c += MatMulCount(static_cast<double>(ball), static_cast<double>(p.in),
                       static_cast<double>(p.hid));
      c += MatMulCount(static_cast<double>(ball), static_cast<double>(p.hid),
                       static_cast<double>(p.out));
    }
  }
  return c;
}

// ---- Misc --------------------------------------------------------------------

double PeakRssMib() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  if (cpu != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(stat >> v)) return CpuTicks();
    ticks.total += v;
    if (field == 7) ticks.steal = v;
  }
  return ticks;
}

double StealShare(const CpuTicks& before, const CpuTicks& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

std::vector<bool> LeastStolen(const std::vector<double>& steal_share) {
  const double least =
      steal_share.empty()
          ? 0.0
          : *std::min_element(steal_share.begin(), steal_share.end());
  std::vector<bool> keep;
  for (double s : steal_share) keep.push_back(s <= least + 0.01);
  return keep;
}

namespace {

const char* IsaLevel() {
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
  // The clone common/simd.h's target_clones resolver installs: the best
  // of x86-64-v4, x86-64-v3 and the baseline the CPU supports.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("x86-64-v4")) return "x86-64-v4";
  if (__builtin_cpu_supports("x86-64-v3")) return "x86-64-v3";
  return "x86-64 (default clone)";
#else
  return "unknown (no target_clones dispatch)";
#endif
}

}  // namespace

std::string ContextJson(const RunOptions& options) {
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
  const char* source = std::getenv("PERFBENCH_SOURCE_ID");
  std::string json = "{";
  json += "\"workload\":\"" + sgcl::JsonEscape(options.workload) + "\"";
  json += ",\"seed\":" + std::to_string(options.seed);
  json += ",\"seconds\":" + sgcl::JsonDouble(options.seconds);
  json += ",\"size\":\"" + std::string(options.tiny ? "tiny" : "full") + "\"";
  json += ",\"trace\":" + std::string(options.trace ? "true" : "false");
  json += ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  json += ",\"parallel_runtime_threads\":" +
          std::to_string(sgcl::ParallelRuntimeThreads());
  json += ",\"isa\":\"" + std::string(IsaLevel()) + "\"";
  json += ",\"build_type\":\"" + std::string(PERFBENCH_BUILD_TYPE) + "\"";
  json += ",\"compiler\":\"" + sgcl::JsonEscape(__VERSION__) + "\"";
  json += ",\"source\":\"" +
          sgcl::JsonEscape(source != nullptr ? source : "unknown") + "\"";
  json += "}";
  return json;
}

double Budget(double total, double share, double floor_s) {
  return std::max(floor_s, total * share);
}

}  // namespace perfbench
