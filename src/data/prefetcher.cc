#include "data/prefetcher.h"

#include <utility>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"

namespace sgcl {

BatchPrefetcher::BatchPrefetcher(const GraphSource* source,
                                 const PrefetcherOptions& options)
    : source_(source), options_(options) {
  SGCL_CHECK(source_ != nullptr);
}

BatchPrefetcher::~BatchPrefetcher() { DrainInFlight(); }

void BatchPrefetcher::DrainInFlight() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return outstanding_ == 0; });
  inflight_.clear();
}

void BatchPrefetcher::BeginEpoch(std::vector<std::vector<int64_t>> batches) {
  DrainInFlight();
  batches_ = std::move(batches);
  next_to_schedule_ = 0;
  next_to_return_ = 0;
  if (options_.depth <= 0) return;
  for (int i = 0; i < options_.depth &&
                  next_to_schedule_ < batches_.size();
       ++i) {
    Schedule();
  }
}

void BatchPrefetcher::Schedule() {
  if (next_to_schedule_ >= batches_.size()) return;
  static Gauge* const queue_depth =
      MetricsRegistry::Global().GetGauge("prefetch/queue_depth");
  auto slot = std::make_shared<Slot>();
  const std::vector<int64_t>* indices = &batches_[next_to_schedule_];
  ++next_to_schedule_;
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_.push_back(slot);
    ++outstanding_;
    queue_depth->Set(static_cast<double>(outstanding_));
  }
  // The pool task inherits this thread's trace context: when a sampled
  // training batch schedules the fetch, its spans join that batch's trace.
  GlobalThreadPool().Submit([this, slot, indices] {
    FetchedGraphs fetched;
    Status status = Status::OK();
    {
      SGCL_TRACE_SPAN("stream/prefetch_fetch");
      status = source_->Fetch(*indices, &fetched);
    }
    std::lock_guard<std::mutex> lock(mu_);
    slot->status = status;
    if (status.ok()) slot->result = std::move(fetched);
    slot->done = true;
    --outstanding_;
    queue_depth->Set(static_cast<double>(outstanding_));
    cv_.notify_all();
  });
}

Result<FetchedGraphs> BatchPrefetcher::Next() {
  SGCL_CHECK(next_to_return_ < batches_.size());
  if (options_.depth <= 0) {
    FetchedGraphs fetched;
    SGCL_RETURN_NOT_OK(source_->Fetch(batches_[next_to_return_], &fetched));
    ++next_to_return_;
    return fetched;
  }
  static Counter* const stall_counter =
      MetricsRegistry::Global().GetCounter("prefetch/consumer_stalls");
  static Histogram* const stall_us = MetricsRegistry::Global().GetHistogram(
      "prefetch/stall_us",
      {50, 100, 250, 500, 1000, 2500, 5000, 10000, 50000, 250000});
  std::shared_ptr<Slot> slot;
  {
    std::unique_lock<std::mutex> lock(mu_);
    SGCL_CHECK(!inflight_.empty());
    slot = inflight_.front();
    inflight_.pop_front();
    if (!slot->done) {
      // The consumer outran the pipeline — the stall the bench watches.
      stall_counter->Increment();
      const int64_t stall_start_us = TraceNowUs();
      cv_.wait(lock, [&] { return slot->done; });
      const int64_t stall_end_us = TraceNowUs();
      stall_us->Observe(static_cast<double>(stall_end_us - stall_start_us));
      RecordManualSpan("stream/consumer_stall", CurrentTraceContext(),
                       stall_start_us, stall_end_us);
    }
  }
  ++next_to_return_;
  // Refill the pipeline before handing the batch out, so decode of the
  // next batch overlaps the caller's compute on this one.
  Schedule();
  if (!slot->status.ok()) return slot->status;
  return std::move(slot->result);
}

int64_t BatchPrefetcher::remaining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(batches_.size()) -
         static_cast<int64_t>(next_to_return_);
}

}  // namespace sgcl
