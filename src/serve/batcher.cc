#include "serve/batcher.h"

#include <future>
#include <utility>

#include "common/check.h"
#include "common/trace.h"

namespace sgcl {
namespace serve {
namespace {

int64_t TotalNodes(const std::vector<Graph>& graphs) {
  int64_t total = 0;
  for (const Graph& g : graphs) total += g.num_nodes();
  return total;
}

}  // namespace

// One submitted request awaiting execution. Lives on the Submit caller's
// stack: Submit blocks on the future until the dispatch thread fulfils
// the promise (or Stop fails it), so the pointer in queue_ never
// dangles. After set_value/set_exception the dispatch thread must not
// touch the Pending again.
struct MicroBatcher::Pending {
  const std::vector<Graph>* graphs;
  int64_t total_nodes;
  // TraceNowUs() at enqueue: the start of both the queue_wait_us sample
  // and, when traced, the request's serve/queue_wait span.
  int64_t enqueue_us = 0;
  // Submitter's ambient TraceContext (the request's root span), captured
  // at enqueue so the dispatch thread can attribute this request's
  // queue_wait phase to its trace.
  TraceContext trace_ctx;
  // Stamped by RunBatch before the promise resolves (the fulfilment is
  // the synchronization point): the submitter records its serve/forward
  // span from run_start_us to its own wake-up, so result delivery and
  // scheduler latency are attributed to the trace instead of appearing
  // as a gap between forward and encode. The span id is pre-allocated on
  // the dispatch thread so serve/infer_* spans nest under it.
  int64_t run_start_us = 0;
  uint64_t forward_span_id = 0;
  std::promise<Result<std::vector<std::vector<float>>>> promise;
};

MicroBatcher::MicroBatcher(std::string name, const MicroBatcherOptions& options,
                           BatchFn fn)
    : name_(std::move(name)), options_(options), fn_(std::move(fn)) {
  SGCL_CHECK(options_.max_batch_graphs >= 1);
  SGCL_CHECK(options_.max_batch_nodes >= 1);
  SGCL_CHECK(options_.max_queue_requests >= 1);
  MetricsRegistry& registry = MetricsRegistry::Global();
  const std::string prefix = "serve/" + name_ + "/";
  submitted_ = registry.GetCounter(prefix + "submitted");
  rejected_ = registry.GetCounter(prefix + "rejected");
  batches_ = registry.GetCounter(prefix + "batches");
  batch_graphs_ = registry.GetHistogram(prefix + "batch_graphs",
                                        {1, 2, 4, 8, 16, 32, 64, 128});
  batch_nodes_ = registry.GetHistogram(
      prefix + "batch_nodes", {16, 64, 256, 1024, 4096, 16384, 65536});
  queue_wait_us_ = registry.GetHistogram(
      prefix + "queue_wait_us",
      {50, 100, 250, 500, 1000, 2500, 5000, 10000, 50000, 250000});
  queue_depth_ = registry.GetGauge(prefix + "queue_depth");
}

MicroBatcher::~MicroBatcher() { Stop(); }

Status MicroBatcher::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return Status::InvalidArgument("MicroBatcher already running");
  running_ = true;
  stopping_ = false;
  dispatch_thread_ = std::thread([this] { DispatchLoop(); });
  return Status::OK();
}

void MicroBatcher::Stop() {
  std::vector<Pending*> drained;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stopping_ = true;
    drained.assign(queue_.begin(), queue_.end());
    queue_.clear();
    queue_depth_->Set(0);
  }
  cv_.notify_all();
  for (Pending* p : drained) {
    p->promise.set_value(Status::Unavailable("batcher stopped"));
  }
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

int64_t MicroBatcher::batches_executed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batches_executed_;
}

Result<std::vector<std::vector<float>>> MicroBatcher::Submit(
    const std::vector<Graph>& graphs) {
  if (graphs.empty()) {
    return Status::InvalidArgument("Submit needs at least one graph");
  }
  Pending pending;
  pending.graphs = &graphs;
  pending.total_nodes = TotalNodes(graphs);
  pending.enqueue_us = TraceNowUs();
  pending.trace_ctx = CurrentTraceContext();
  auto future = pending.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_ || stopping_) {
      rejected_->Increment();
      return Status::Unavailable("batcher is not running");
    }
    if (static_cast<int64_t>(queue_.size()) >= options_.max_queue_requests) {
      rejected_->Increment();
      return Status::Unavailable(
          "admission queue full (" +
          std::to_string(options_.max_queue_requests) + " requests)");
    }
    queue_.push_back(&pending);
    queue_depth_->Set(static_cast<double>(queue_.size()));
    submitted_->Increment();
  }
  cv_.notify_one();
  Result<std::vector<std::vector<float>>> result = future.get();
  if (pending.trace_ctx.valid() && pending.run_start_us > 0) {
    // The request's forward phase, closed at wake-up: the model time is
    // the nested serve/infer_* span, the rest is delivery + scheduling.
    RecordManualSpan("serve/forward", pending.trace_ctx,
                     pending.run_start_us, TraceNowUs(),
                     pending.forward_span_id);
  }
  return result;
}

void MicroBatcher::DispatchLoop() {
  for (;;) {
    std::vector<Pending*> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      // Admit the oldest request unconditionally, then keep admitting in
      // FIFO order while the caps hold; a head that does not fit closes
      // the batch and leads the next one.
      int64_t batch_graphs = 0;
      int64_t batch_nodes = 0;
      while (!queue_.empty()) {
        Pending* front = queue_.front();
        const int64_t graphs = static_cast<int64_t>(front->graphs->size());
        if (!batch.empty() &&
            (batch_graphs + graphs > options_.max_batch_graphs ||
             batch_nodes + front->total_nodes > options_.max_batch_nodes)) {
          break;
        }
        queue_.pop_front();
        batch.push_back(front);
        batch_graphs += graphs;
        batch_nodes += front->total_nodes;
      }
      queue_depth_->Set(static_cast<double>(queue_.size()));
    }
    RunBatch(std::move(batch));
  }
}

void MicroBatcher::RunBatch(std::vector<Pending*> batch) {
  const int64_t run_start_us = TraceNowUs();
  std::vector<const Graph*> graphs;
  for (const Pending* p : batch) {
    queue_wait_us_->Observe(static_cast<double>(run_start_us - p->enqueue_us));
    for (const Graph& g : *p->graphs) graphs.push_back(&g);
  }
  // Forward span ids are pre-allocated so spans recorded *inside* the
  // forward (inference_session) can nest under them; the forwards run
  // under the first traced request's context.
  std::vector<uint64_t> forward_span_ids(batch.size(), 0);
  TraceContext forward_ctx;
  for (size_t i = 0; i < batch.size(); ++i) {
    if (!batch[i]->trace_ctx.valid()) continue;
    forward_span_ids[i] = TraceRing::NextSpanId();
    if (!forward_ctx.valid()) {
      forward_ctx =
          TraceContext{batch[i]->trace_ctx.trace_id, forward_span_ids[i]};
    }
  }
  ScopedTraceContext forward_guard(forward_ctx);
  // The caps are hard limits on one fused forward, not just on batch
  // formation: formation admits the oldest request unconditionally, so a
  // single request larger than the caps reaches here intact and is split
  // into cap-sized forwards (a lone graph bigger than max_batch_nodes is
  // indivisible and runs alone). This is also what makes
  // --max-batch-graphs=1 an honest batch-size-1 baseline: every forward
  // sees exactly one graph no matter how requests arrived.
  std::vector<std::vector<float>> rows;
  rows.reserve(graphs.size());
  Status status = Status::OK();
  size_t begin = 0;
  while (begin < graphs.size() && status.ok()) {
    size_t end = begin;
    int64_t chunk_nodes = 0;
    while (end < graphs.size()) {
      const int64_t g_nodes = graphs[end]->num_nodes();
      if (end > begin &&
          (static_cast<int64_t>(end - begin) >= options_.max_batch_graphs ||
           chunk_nodes + g_nodes > options_.max_batch_nodes)) {
        break;
      }
      chunk_nodes += g_nodes;
      ++end;
    }
    const std::vector<const Graph*> chunk(graphs.begin() + begin,
                                          graphs.begin() + end);
    std::vector<std::vector<float>> chunk_rows;
    chunk_rows.reserve(chunk.size());
    status = fn_(chunk, &chunk_rows);
    if (status.ok() && chunk_rows.size() != chunk.size()) {
      status = Status::Internal(
          "batch function returned " + std::to_string(chunk_rows.size()) +
          " rows for " + std::to_string(chunk.size()) + " graphs");
    }
    if (status.ok()) {
      batch_graphs_->Observe(static_cast<double>(chunk.size()));
      batch_nodes_->Observe(static_cast<double>(chunk_nodes));
      // Count the forward before fulfilling any promise that depends on
      // it: a Submit caller may read batches_executed() the instant its
      // future resolves, and must see this forward included.
      batches_->Increment();
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++batches_executed_;
      }
      for (std::vector<float>& row : chunk_rows) rows.push_back(std::move(row));
    }
    begin = end;
  }
  // Record each traced request's queue wait (enqueue to run start, the
  // interval queue_wait_us measures) before any promise resolves (the
  // request root span closes on the submitter's thread right after;
  // spans arriving later would be dropped), and stamp the forward timing
  // so the submitter can close its serve/forward span at wake-up.
  for (size_t i = 0; i < batch.size(); ++i) {
    Pending* p = batch[i];
    if (!p->trace_ctx.valid()) continue;
    RecordManualSpan("serve/queue_wait", p->trace_ctx, p->enqueue_us,
                     run_start_us);
    p->run_start_us = run_start_us;
    p->forward_span_id = forward_span_ids[i];
  }
  size_t next_row = 0;
  for (Pending* p : batch) {
    const size_t count = p->graphs->size();
    if (!status.ok()) {
      p->promise.set_value(status);
      continue;
    }
    std::vector<std::vector<float>> slice(
        std::make_move_iterator(rows.begin() + next_row),
        std::make_move_iterator(rows.begin() + next_row + count));
    next_row += count;
    p->promise.set_value(std::move(slice));
  }
}

}  // namespace serve
}  // namespace sgcl
