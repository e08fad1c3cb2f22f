#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/string_util.h"

namespace sgcl {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(bounds_.size() + 1),
      exemplars_(bounds_.size() + 1) {
  SGCL_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
}

size_t Histogram::BucketIndex(double v) const {
  // First bound >= v is the smallest bucket whose "v <= bound" contract
  // holds; past-the-end lands in the overflow bucket.
  return std::lower_bound(bounds_.begin(), bounds_.end(), v) -
         bounds_.begin();
}

void Histogram::Observe(double v) {
  const size_t i = BucketIndex(v);
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

void Histogram::ObserveWithExemplar(double v, uint64_t trace_id) {
  Observe(v);
  if (trace_id == 0) return;
  ExemplarSlot& slot = exemplars_[BucketIndex(v)];
  slot.value.store(v, std::memory_order_relaxed);
  slot.trace_id.store(trace_id, std::memory_order_relaxed);
}

std::vector<int64_t> Histogram::BucketCounts() const {
  std::vector<int64_t> counts(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

std::vector<Exemplar> Histogram::Exemplars() const {
  std::vector<Exemplar> out(exemplars_.size());
  for (size_t i = 0; i < exemplars_.size(); ++i) {
    out[i].trace_id = exemplars_[i].trace_id.load(std::memory_order_relaxed);
    out[i].value = exemplars_[i].value.load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  for (auto& e : exemplars_) {
    e.trace_id.store(0, std::memory_order_relaxed);
    e.value.store(0.0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramData data;
    data.bounds = h->bounds();
    data.buckets = h->BucketCounts();
    data.exemplars = h->Exemplars();
    data.count = h->count();
    data.sum = h->sum();
    snap.histograms[name] = std::move(data);
  }
  return snap;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

MetricsRegistry& MetricsRegistry::Global() {
  // NOLINTNEXTLINE(sgcl-R5): intentionally leaked singleton
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonDouble(double v) {
  if (!std::isfinite(v)) return "null";
  return StrFormat("%.17g", v);
}

std::string PrometheusMetricName(const std::string& name) {
  std::string out = "sgcl_";
  for (char c : name) {
    const bool legal = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += legal ? c : '_';
  }
  return out;
}

double MetricsSnapshot::HistogramData::Quantile(double q) const {
  if (count <= 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(count);
  double cumulative = 0.0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const double prev = cumulative;
    cumulative += static_cast<double>(buckets[i]);
    if (cumulative < rank || buckets[i] == 0) continue;
    if (i >= bounds.size()) {
      // Overflow bucket: no finite upper edge to interpolate toward.
      return bounds.empty() ? std::numeric_limits<double>::quiet_NaN()
                            : bounds.back();
    }
    const double upper = bounds[i];
    const double lower = i == 0 ? std::min(0.0, upper) : bounds[i - 1];
    const double fraction =
        (rank - prev) / static_cast<double>(buckets[i]);
    return lower + (upper - lower) * fraction;
  }
  return bounds.empty() ? std::numeric_limits<double>::quiet_NaN()
                        : bounds.back();
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out += ',';
    first = false;
    out += StrFormat("\"%s\":%lld", JsonEscape(name).c_str(),
                     static_cast<long long>(v));
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) out += ',';
    first = false;
    out += StrFormat("\"%s\":%s", JsonEscape(name).c_str(),
                     JsonDouble(v).c_str());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out += ',';
    first = false;
    out += StrFormat("\"%s\":{\"bounds\":[", JsonEscape(name).c_str());
    for (size_t i = 0; i < h.bounds.size(); ++i) {
      if (i > 0) out += ',';
      out += JsonDouble(h.bounds[i]);
    }
    out += "],\"buckets\":[";
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) out += ',';
      out += StrFormat("%lld", static_cast<long long>(h.buckets[i]));
    }
    out += "],\"exemplars\":[";
    bool first_ex = true;
    for (size_t i = 0; i < h.exemplars.size(); ++i) {
      if (h.exemplars[i].trace_id == 0) continue;
      if (!first_ex) out += ',';
      first_ex = false;
      out += StrFormat(
          "{\"bucket\":%llu,\"trace_id\":\"%016llx\",\"value\":%s}",
          static_cast<unsigned long long>(i),
          static_cast<unsigned long long>(h.exemplars[i].trace_id),
          JsonDouble(h.exemplars[i].value).c_str());
    }
    out += StrFormat("],\"count\":%lld,\"sum\":%s",
                     static_cast<long long>(h.count),
                     JsonDouble(h.sum).c_str());
    out += StrFormat(",\"p50\":%s,\"p95\":%s,\"p99\":%s}",
                     JsonDouble(h.Quantile(0.50)).c_str(),
                     JsonDouble(h.Quantile(0.95)).c_str(),
                     JsonDouble(h.Quantile(0.99)).c_str());
  }
  out += "}}";
  return out;
}

std::string MetricsSnapshot::ToPrometheusText() const {
  // Sample values use Prometheus' own non-finite spellings, not JSON's.
  const auto prom_double = [](double v) -> std::string {
    if (std::isnan(v)) return "NaN";
    if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
    return StrFormat("%.17g", v);
  };
  std::string out;
  for (const auto& [name, v] : counters) {
    const std::string prom = PrometheusMetricName(name);
    out += StrFormat("# TYPE %s counter\n%s %lld\n", prom.c_str(),
                     prom.c_str(), static_cast<long long>(v));
  }
  for (const auto& [name, v] : gauges) {
    const std::string prom = PrometheusMetricName(name);
    out += StrFormat("# TYPE %s gauge\n%s %s\n", prom.c_str(), prom.c_str(),
                     prom_double(v).c_str());
  }
  for (const auto& [name, h] : histograms) {
    const std::string prom = PrometheusMetricName(name);
    out += StrFormat("# TYPE %s histogram\n", prom.c_str());
    int64_t cumulative = 0;
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      cumulative += h.buckets[i];
      const std::string le =
          i < h.bounds.size() ? prom_double(h.bounds[i]) : "+Inf";
      out += StrFormat("%s_bucket{le=\"%s\"} %lld", prom.c_str(),
                       le.c_str(), static_cast<long long>(cumulative));
      if (i < h.exemplars.size() && h.exemplars[i].trace_id != 0) {
        out += StrFormat(
            " # {trace_id=\"%016llx\"} %s",
            static_cast<unsigned long long>(h.exemplars[i].trace_id),
            prom_double(h.exemplars[i].value).c_str());
      }
      out += '\n';
    }
    out += StrFormat("%s_sum %s\n", prom.c_str(),
                     prom_double(h.sum).c_str());
    out += StrFormat("%s_count %lld\n", prom.c_str(),
                     static_cast<long long>(h.count));
  }
  return out;
}

}  // namespace sgcl
