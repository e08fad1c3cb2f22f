#include "common/trace.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <fstream>

#include "common/string_util.h"

namespace sgcl {
namespace {

std::atomic<int> g_next_thread_id{0};

thread_local TraceContext t_ambient_context;  // {0,0} == untraced

// splitmix64 finalizer: turns the sequential trace counter into ids that
// are unique, well-distributed, and still fully deterministic (sgcl-R2
// bans RNG outside common/rng; trace ids must not perturb training).
uint64_t MixTraceId(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

// Each span's children, ordered by (start_us, span_id).
using ChildIndex =
    std::unordered_map<uint64_t, std::vector<const TraceRing::Span*>>;

ChildIndex IndexChildren(const std::vector<TraceRing::Span>& spans) {
  ChildIndex index;
  for (const TraceRing::Span& s : spans) {
    if (s.parent_span_id != 0 && s.parent_span_id != s.span_id) {
      index[s.parent_span_id].push_back(&s);
    }
  }
  for (auto& [parent, children] : index) {
    std::sort(children.begin(), children.end(),
              [](const TraceRing::Span* a, const TraceRing::Span* b) {
                if (a->start_us != b->start_us) {
                  return a->start_us < b->start_us;
                }
                return a->span_id < b->span_id;
              });
  }
  return index;
}

const std::vector<const TraceRing::Span*>& ChildrenOf(
    const ChildIndex& index, uint64_t span_id) {
  static const std::vector<const TraceRing::Span*> kNone;
  const auto it = index.find(span_id);
  return it == index.end() ? kNone : it->second;
}

const TraceRing::Span* FindRoot(const TraceRing::Trace& trace) {
  for (const TraceRing::Span& s : trace.spans) {
    if (s.parent_span_id == 0) return &s;
  }
  return nullptr;
}

// Trees deeper than this are malformed parent links, not real nesting.
constexpr int kMaxTreeDepth = 64;

// Emits one span-tree node: the span itself, its self time (duration not
// covered by child spans), and its children ordered by start time.
void AppendTreeNodeJson(const TraceRing::Span& node, const ChildIndex& index,
                        int depth, std::string* out) {
  const std::vector<const TraceRing::Span*>& children =
      ChildrenOf(index, node.span_id);
  int64_t child_us = 0;
  for (const TraceRing::Span* c : children) child_us += c->dur_us;
  const int64_t self_us = std::max<int64_t>(0, node.dur_us - child_us);
  *out += StrFormat(
      "{\"name\":\"%s\",\"span_id\":%llu,\"tid\":%d,\"start_us\":%lld,"
      "\"dur_us\":%lld,\"self_us\":%lld,\"children\":[",
      JsonEscape(node.name).c_str(),
      static_cast<unsigned long long>(node.span_id), node.tid,
      static_cast<long long>(node.start_us),
      static_cast<long long>(node.dur_us), static_cast<long long>(self_us));
  if (depth < kMaxTreeDepth) {
    bool first = true;
    for (const TraceRing::Span* c : children) {
      if (!first) *out += ',';
      first = false;
      AppendTreeNodeJson(*c, index, depth + 1, out);
    }
  }
  *out += "]}";
}

// Emits `node` and its subtree as chrome "X" events, parents first.
void AppendChromeEvents(const TraceRing::Span& node, const ChildIndex& index,
                        const std::string& trace_id, int depth,
                        bool* first, std::string* out) {
  if (!*first) *out += ',';
  *first = false;
  *out += StrFormat(
      "{\"name\":\"%s\",\"cat\":\"sgcl\",\"ph\":\"X\",\"ts\":%lld,"
      "\"dur\":%lld,\"pid\":0,\"tid\":%d,\"args\":{\"trace_id\":\"%s\","
      "\"span_id\":%llu,\"parent_span_id\":%llu}}",
      JsonEscape(node.name).c_str(), static_cast<long long>(node.start_us),
      static_cast<long long>(node.dur_us), node.tid, trace_id.c_str(),
      static_cast<unsigned long long>(node.span_id),
      static_cast<unsigned long long>(node.parent_span_id));
  if (depth >= kMaxTreeDepth) return;
  for (const TraceRing::Span* c : ChildrenOf(index, node.span_id)) {
    AppendChromeEvents(*c, index, trace_id, depth + 1, first, out);
  }
}

}  // namespace

TraceContext CurrentTraceContext() { return t_ambient_context; }

std::string FormatTraceId(uint64_t trace_id) {
  return StrFormat("%016llx", static_cast<unsigned long long>(trace_id));
}

uint64_t ParseTraceId(const std::string& text) {
  size_t pos = 0;
  if (text.size() > 2 && text[0] == '0' &&
      (text[1] == 'x' || text[1] == 'X')) {
    pos = 2;
  }
  const size_t digits = text.size() - pos;
  if (digits == 0 || digits > 16) return 0;
  uint64_t value = 0;
  for (; pos < text.size(); ++pos) {
    const int c = static_cast<unsigned char>(text[pos]);
    if (!std::isxdigit(c)) return 0;
    const int digit = std::isdigit(c) ? c - '0' : std::tolower(c) - 'a' + 10;
    value = (value << 4) | static_cast<uint64_t>(digit);
  }
  return value;
}

int64_t TraceNowUs() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

int TraceThreadId() {
  thread_local const int id = g_next_thread_id.fetch_add(1);
  return id;
}

ScopedTraceContext::ScopedTraceContext(TraceContext ctx) {
  if (!ctx.valid()) return;
  saved_ = t_ambient_context;
  t_ambient_context = ctx;
  installed_ = true;
}

ScopedTraceContext::~ScopedTraceContext() {
  if (installed_) t_ambient_context = saved_;
}

TraceRing::TraceRing() = default;

void TraceRing::SetSampleRate(double rate) {
  uint64_t period = 0;
  if (rate > 0.0) {
    if (rate >= 1.0) {
      period = 1;
    } else {
      period = static_cast<uint64_t>(std::llround(1.0 / rate));
      if (period == 0) period = 1;
    }
  }
  period_.store(period, std::memory_order_relaxed);
}

double TraceRing::sample_rate() const {
  const uint64_t period = period_.load(std::memory_order_relaxed);
  return period == 0 ? 0.0 : 1.0 / static_cast<double>(period);
}

void TraceRing::SetCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = std::max<size_t>(1, capacity);
  while (completed_.size() > capacity_) completed_.pop_front();
}

size_t TraceRing::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

TraceContext TraceRing::MaybeStartTrace() {
  const uint64_t period = period_.load(std::memory_order_relaxed);
  if (period == 0) return TraceContext{};
  const uint64_t n = admit_seq_.fetch_add(1, std::memory_order_relaxed);
  if (n % period != 0) return TraceContext{};
  const uint64_t id =
      MixTraceId(trace_seq_.fetch_add(1, std::memory_order_relaxed));
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A caller that samples a trace but never opens a root span would
    // leak its pending entry; bound the in-flight set defensively.
    if (pending_.size() >= capacity_ * 4 + 16) return TraceContext{};
    pending_.emplace(id, std::vector<Span>());
  }
  return TraceContext{id, 0};
}

void TraceRing::RecordSpan(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pending_.find(span.trace_id);
  if (it == pending_.end()) return;  // late or foreign span: drop
  const bool is_root = span.parent_span_id == 0;
  it->second.push_back(std::move(span));
  if (is_root) CommitLocked(it->first);
}

uint64_t TraceRing::NextSpanId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void TraceRing::CommitLocked(uint64_t trace_id) {
  auto it = pending_.find(trace_id);
  if (it == pending_.end()) return;
  Trace trace;
  trace.trace_id = trace_id;
  trace.spans = std::move(it->second);
  if (const Span* root = FindRoot(trace)) {
    trace.root_name = root->name;
    trace.start_us = root->start_us;
    trace.dur_us = root->dur_us;
  }
  pending_.erase(it);
  completed_.push_back(std::move(trace));
  ++committed_count_;
  while (completed_.size() > capacity_) completed_.pop_front();
}

std::vector<TraceRing::Trace> TraceRing::Traces() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Trace> out(completed_.rbegin(), completed_.rend());
  return out;
}

uint64_t TraceRing::committed_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return committed_count_;
}

void TraceRing::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  completed_.clear();
  pending_.clear();
  committed_count_ = 0;
}

std::string TraceRing::ListJson(int64_t min_duration_us, int limit) const {
  std::vector<Trace> traces = Traces();
  std::string out = StrFormat(
      "{\"capacity\":%llu,\"committed\":%llu,\"sample_rate\":%s,"
      "\"traces\":[",
      static_cast<unsigned long long>(capacity()),
      static_cast<unsigned long long>(committed_count()),
      JsonDouble(sample_rate()).c_str());
  bool first = true;
  int emitted = 0;
  for (const Trace& t : traces) {
    if (t.dur_us < min_duration_us) continue;
    if (limit > 0 && emitted >= limit) break;
    if (!first) out += ',';
    first = false;
    ++emitted;
    out += StrFormat(
        "{\"trace_id\":\"%s\",\"root\":\"%s\",\"start_us\":%lld,"
        "\"dur_us\":%lld,\"span_count\":%llu}",
        FormatTraceId(t.trace_id).c_str(), JsonEscape(t.root_name).c_str(),
        static_cast<long long>(t.start_us), static_cast<long long>(t.dur_us),
        static_cast<unsigned long long>(t.spans.size()));
  }
  out += "]}";
  return out;
}

std::string TraceRing::TreeJson(uint64_t trace_id) const {
  Trace trace;
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Trace& t : completed_) {
      if (t.trace_id == trace_id) {
        trace = t;
        found = true;
        break;
      }
    }
  }
  if (!found) return std::string();
  std::string out = StrFormat(
      "{\"trace_id\":\"%s\",\"span_count\":%llu",
      FormatTraceId(trace.trace_id).c_str(),
      static_cast<unsigned long long>(trace.spans.size()));
  if (const Span* root = FindRoot(trace)) {
    out += ",\"root\":";
    AppendTreeNodeJson(*root, IndexChildren(trace.spans), 0, &out);
  }
  out += '}';
  return out;
}

std::string TraceRing::ToChromeTraceJson() const {
  std::vector<Trace> traces = Traces();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (auto it = traces.rbegin(); it != traces.rend(); ++it) {
    const Span* root = FindRoot(*it);
    if (root == nullptr) continue;
    AppendChromeEvents(*root, IndexChildren(it->spans),
                       FormatTraceId(it->trace_id), 0, &first, &out);
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

Status TraceRing::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open trace file " + path);
  }
  out << ToChromeTraceJson() << '\n';
  out.flush();
  if (!out) return Status::Internal("short write to trace file " + path);
  return Status::OK();
}

TraceRing& TraceRing::Global() {
  // NOLINTNEXTLINE(sgcl-R5): intentionally leaked singleton
  static TraceRing* ring = new TraceRing();
  return *ring;
}

uint64_t RecordManualSpan(const char* name, TraceContext parent,
                          int64_t start_us, int64_t end_us,
                          uint64_t span_id) {
  // A parent span id of 0 would make this span look like a trace root
  // (committing the trace); manual spans must nest under a real span.
  if (!parent.valid() || parent.span_id == 0) return 0;
  if (span_id == 0) span_id = TraceRing::NextSpanId();
  TraceRing::Span span;
  span.name = name;
  span.trace_id = parent.trace_id;
  span.span_id = span_id;
  span.parent_span_id = parent.span_id;
  span.tid = TraceThreadId();
  span.start_us = start_us;
  span.dur_us = std::max<int64_t>(0, end_us - start_us);
  TraceRing::Global().RecordSpan(std::move(span));
  return span_id;
}

TraceSpan::TraceSpan(const char* name, Counter* time_counter)
    : name_(name), counter_(time_counter) {
  const TraceContext ambient = t_ambient_context;
  if (ambient.trace_id != 0) {
    trace_id_ = ambient.trace_id;
    parent_span_id_ = ambient.span_id;
    span_id_ = TraceRing::NextSpanId();
    t_ambient_context = TraceContext{trace_id_, span_id_};
  }
  if (trace_id_ != 0 || counter_ != nullptr) start_us_ = TraceNowUs();
}

TraceSpan::~TraceSpan() {
  if (trace_id_ == 0 && counter_ == nullptr) return;
  const int64_t end_us = TraceNowUs();
  if (counter_ != nullptr) counter_->Increment(end_us - start_us_);
  if (trace_id_ == 0) return;
  t_ambient_context = TraceContext{trace_id_, parent_span_id_};
  TraceRing::Span span;
  span.name = name_;
  span.trace_id = trace_id_;
  span.span_id = span_id_;
  span.parent_span_id = parent_span_id_;
  span.tid = TraceThreadId();
  span.start_us = start_us_;
  span.dur_us = end_us - start_us_;
  TraceRing::Global().RecordSpan(std::move(span));
}

}  // namespace sgcl
