// Async batch prefetch pipeline over a GraphSource.
//
// The trainer consumes batches strictly in order; the prefetcher keeps up
// to `depth` Fetch calls in flight on the shared ThreadPool so shard
// read + CRC + decode overlaps the previous batch's compute. depth=2 is
// classic double buffering: while batch k trains, batch k+1 decodes.
//
// Each scheduled batch is one future, fed by a task on the pool that
// owns its indices and reads only the source. BeginEpoch schedules
// `depth` batches; every Next() takes the oldest future and schedules
// one more until the epoch's batch list is exhausted.
//
// The prefetcher never touches training RNG — Fetch is read-only — so
// enabling it cannot perturb losses; it only changes *when* decode work
// happens. Thread-safety: one consumer thread calls BeginEpoch/Next and
// owns every member; the source's Fetch must be thread-safe (GraphSource
// contract).
#ifndef SGCL_DATA_PREFETCHER_H_
#define SGCL_DATA_PREFETCHER_H_

#include <deque>
#include <future>
#include <vector>

#include "common/status.h"
#include "graph/graph_source.h"

namespace sgcl {

struct PrefetcherOptions {
  // Batches in flight ahead of the consumer; must be >= 1.
  int depth = 2;
};

class BatchPrefetcher {
 public:
  explicit BatchPrefetcher(const GraphSource* source,
                           const PrefetcherOptions& options = {});
  // Waits for every scheduled fetch: each one reads the source.
  ~BatchPrefetcher();

  BatchPrefetcher(const BatchPrefetcher&) = delete;
  BatchPrefetcher& operator=(const BatchPrefetcher&) = delete;

  // Resets the pipeline to serve `batches` in order. Any batches left
  // unconsumed from a previous epoch are abandoned (after their fetches
  // finish).
  void BeginEpoch(std::vector<std::vector<int64_t>> batches);

  // The next batch, blocking until its fetch completes. Propagates the
  // Fetch error of exactly that batch. Fatal if the epoch is exhausted —
  // callers know their batch count.
  [[nodiscard]] Result<FetchedGraphs> Next();

  // Batches not yet handed out this epoch.
  int64_t remaining() const;

 private:
  void Schedule();  // schedules batches_[next_to_schedule_] if any

  const GraphSource* source_;
  PrefetcherOptions options_;
  std::vector<std::vector<int64_t>> batches_;
  size_t next_to_schedule_ = 0;
  // Scheduled and not yet handed out, in batch order.
  std::deque<std::future<Result<FetchedGraphs>>> inflight_;
};

}  // namespace sgcl

#endif  // SGCL_DATA_PREFETCHER_H_
