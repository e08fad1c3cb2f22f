#include "data/prefetcher.h"

#include <chrono>
#include <memory>
#include <utility>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"

namespace sgcl {
namespace {

// Batches scheduled and not yet handed out.
void PublishQueueDepth(size_t depth) {
  static Gauge* const queue_depth =
      MetricsRegistry::Global().GetGauge("prefetch/queue_depth");
  queue_depth->Set(static_cast<double>(depth));
}

}  // namespace

BatchPrefetcher::BatchPrefetcher(const GraphSource* source,
                                 const PrefetcherOptions& options)
    : source_(source), options_(options) {
  SGCL_CHECK(source_ != nullptr);
  SGCL_CHECK(options_.depth >= 1);
}

BatchPrefetcher::~BatchPrefetcher() {
  for (const auto& fetch : inflight_) fetch.wait();
}

void BatchPrefetcher::BeginEpoch(std::vector<std::vector<int64_t>> batches) {
  for (const auto& fetch : inflight_) fetch.wait();
  inflight_.clear();
  batches_ = std::move(batches);
  next_to_schedule_ = 0;
  for (int i = 0; i < options_.depth; ++i) Schedule();
  PublishQueueDepth(inflight_.size());
}

void BatchPrefetcher::Schedule() {
  if (next_to_schedule_ >= batches_.size()) return;
  // The task owns its indices and reads only the source, never this
  // prefetcher.
  auto task = std::make_shared<std::packaged_task<Result<FetchedGraphs>()>>(
      [source = source_, indices = std::move(batches_[next_to_schedule_])]()
          -> Result<FetchedGraphs> {
        SGCL_TRACE_SPAN("stream/prefetch_fetch");
        FetchedGraphs fetched;
        SGCL_RETURN_NOT_OK(source->Fetch(indices, &fetched));
        return fetched;
      });
  ++next_to_schedule_;
  inflight_.push_back(task->get_future());
  // The pool task inherits this thread's trace context: when a sampled
  // training batch schedules the fetch, its spans join that batch's trace.
  GlobalThreadPool().Submit([task] { (*task)(); });
}

Result<FetchedGraphs> BatchPrefetcher::Next() {
  SGCL_CHECK(!inflight_.empty());
  static Counter* const stall_counter =
      MetricsRegistry::Global().GetCounter("prefetch/consumer_stalls");
  static Histogram* const stall_us = MetricsRegistry::Global().GetHistogram(
      "prefetch/stall_us",
      {50, 100, 250, 500, 1000, 2500, 5000, 10000, 50000, 250000});
  std::future<Result<FetchedGraphs>> fetch = std::move(inflight_.front());
  inflight_.pop_front();
  if (fetch.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
    // The consumer outran the pipeline — the stall the bench watches.
    stall_counter->Increment();
    const int64_t stall_start_us = TraceNowUs();
    fetch.wait();
    const int64_t stall_end_us = TraceNowUs();
    stall_us->Observe(static_cast<double>(stall_end_us - stall_start_us));
    RecordManualSpan("stream/consumer_stall", CurrentTraceContext(),
                     stall_start_us, stall_end_us);
  }
  // Refill the pipeline before handing the batch out, so decode of the
  // next batch overlaps the caller's compute on this one.
  Schedule();
  PublishQueueDepth(inflight_.size());
  return fetch.get();
}

int64_t BatchPrefetcher::remaining() const {
  return static_cast<int64_t>(inflight_.size() + batches_.size() -
                              next_to_schedule_);
}

}  // namespace sgcl
