// Dynamic micro-batcher: coalesces concurrent inference requests into
// one block-diagonal batch per model forward.
//
// Dispatch (one thread per batcher): wait for a non-empty queue, pop
// FIFO requests while the batch stays within max_batch_graphs /
// max_batch_nodes, then call BatchFn over the concatenated graphs,
// re-chunked so every forward respects the caps (an oversized request
// is split; a lone graph bigger than max_batch_nodes is indivisible and
// runs alone); per-request slices of the result fulfil each caller's
// future. The batcher is work-conserving: it never waits for
// stragglers. A batch is whatever is queued when the dispatch thread is
// free, so at low load a request runs alone at once, and under load the
// requests that arrive while a forward runs form the next batch.
//
// Queueing / overload policy: admission is bounded by
// max_queue_requests; when the queue is full Submit fails fast with
// Unavailable (the HTTP layer maps this to 503 + Retry-After) instead
// of letting latency grow without bound. Order is strict FIFO — a
// request that does not fit the open batch closes it rather than being
// overtaken (no starvation, deterministic under trace replay).
//
// Determinism: BatchFn receives graphs in admission order, and the
// fused GIN forward is block-diagonal — node rows of one graph never
// read another graph's rows — so a graph's result is bitwise identical
// whether it was served alone or coalesced (covered by
// tests/serve/service_test.cc).
#ifndef SGCL_SERVE_BATCHER_H_
#define SGCL_SERVE_BATCHER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "graph/graph.h"

namespace sgcl {
namespace serve {

struct MicroBatcherOptions {
  // No fused forward sees more than this many graphs...
  int64_t max_batch_graphs = 16;
  // ...or more than this many total nodes. Both are hard per-forward
  // caps: a single request that exceeds them is split across forwards
  // (only a lone graph bigger than max_batch_nodes runs over the node
  // cap — graphs are indivisible).
  int64_t max_batch_nodes = 4096;
  // Admission bound: requests queued but not yet executing. Full queue =
  // Unavailable.
  int64_t max_queue_requests = 256;
};

// Executes one coalesced batch: `graphs` concatenates the admitted
// requests' graphs in FIFO order; must append exactly one row per graph
// to `rows`. Runs on the dispatch thread.
using BatchFn = std::function<Status(const std::vector<const Graph*>& graphs,
                                     std::vector<std::vector<float>>* rows)>;

class MicroBatcher {
 public:
  MicroBatcher(std::string name, const MicroBatcherOptions& options,
               BatchFn fn);
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  // Spawns the dispatch thread. InvalidArgument when already started.
  Status Start();
  // Fails queued requests with Unavailable and joins. Idempotent.
  void Stop();

  // Blocks the calling (HTTP worker) thread until the request's graphs
  // have gone through a batch: returns one row per graph, or
  // Unavailable immediately when the queue is full / the batcher is
  // stopped, or the BatchFn's error. Thread-safe.
  Result<std::vector<std::vector<float>>> Submit(
      const std::vector<Graph>& graphs);

  const std::string& name() const { return name_; }
  int64_t batches_executed() const;

 private:
  struct Pending;
  // Waits on cv_ through std::unique_lock, which libc++'s analysis
  // does not model; sgcl_lint's R8 does and keeps this machine-checked.
  void DispatchLoop() SGCL_NO_THREAD_SAFETY_ANALYSIS;
  void RunBatch(std::vector<Pending*> batch);

  const std::string name_;
  const MicroBatcherOptions options_;
  const BatchFn fn_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending*> queue_ SGCL_GUARDED_BY(mu_);
  bool running_ SGCL_GUARDED_BY(mu_) = false;
  bool stopping_ SGCL_GUARDED_BY(mu_) = false;
  int64_t batches_executed_ SGCL_GUARDED_BY(mu_) = 0;
  std::thread dispatch_thread_;

  // Metrics (registered once per batcher name in the global registry).
  Counter* submitted_ = nullptr;
  Counter* rejected_ = nullptr;
  Counter* batches_ = nullptr;
  Histogram* batch_graphs_ = nullptr;
  Histogram* batch_nodes_ = nullptr;
  Histogram* queue_wait_us_ = nullptr;
  Gauge* queue_depth_ = nullptr;
};

}  // namespace serve
}  // namespace sgcl

#endif  // SGCL_SERVE_BATCHER_H_
