// GraphSource: the data-access abstraction every training/eval consumer
// reads graphs through. A source is a sequential, cursor-addressable
// stream of Graph records — indices 0..size()-1 — with batched random
// access via Fetch. Two implementations ship today:
//   * InMemorySource — zero-copy view over a borrowed GraphDataset,
//     preserving the exact semantics of the historical `dataset.graph(i)`
//     access path;
//   * ShardedGraphStore (data/shard_store.h) — out-of-core shards on
//     disk, decoded on demand with a bounded cache.
// Consumers hold batches as FetchedGraphs, which either borrows graph
// pointers (in-memory case) or pins the decoded shard that owns them, so
// pointers stay valid for the lifetime of the FetchedGraphs regardless
// of source internals.
#ifndef SGCL_GRAPH_GRAPH_SOURCE_H_
#define SGCL_GRAPH_GRAPH_SOURCE_H_

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/dataset.h"
#include "graph/graph.h"

namespace sgcl {

// A batch of graphs handed out by GraphSource::Fetch. Holds borrowed
// pointers, kept alive by `pins_` or by the source itself; `graphs()`
// exposes them in append order.
class FetchedGraphs {
 public:
  FetchedGraphs() = default;
  FetchedGraphs(FetchedGraphs&&) = default;
  FetchedGraphs& operator=(FetchedGraphs&&) = default;
  FetchedGraphs(const FetchedGraphs&) = delete;
  FetchedGraphs& operator=(const FetchedGraphs&) = delete;

  // Appends a graph owned by someone else. If the owner's lifetime is not
  // guaranteed to cover this batch (e.g. a cached shard), register a pin.
  void AppendBorrowed(const Graph* graph) {
    ptrs_.push_back(graph);
  }
  // Keeps `pin` alive as long as the batch (shared decoded shards).
  void AddPin(std::shared_ptr<const void> pin) {
    pins_.push_back(std::move(pin));
  }

  size_t size() const { return ptrs_.size(); }
  bool empty() const { return ptrs_.empty(); }
  const Graph& graph(size_t i) const {
    SGCL_CHECK(i < ptrs_.size());
    return *ptrs_[i];
  }
  const std::vector<const Graph*>& graphs() const { return ptrs_; }

  void Clear() {
    ptrs_.clear();
    pins_.clear();
  }

 private:
  std::vector<const Graph*> ptrs_;
  std::vector<std::shared_ptr<const void>> pins_;
};

// A contiguous index range [begin, end) whose graphs decode together
// (one shard, for disk-backed sources). Locality hint for shuffling.
struct IndexRange {
  int64_t begin = 0;
  int64_t end = 0;
};

class GraphSource {
 public:
  virtual ~GraphSource() = default;

  virtual const std::string& name() const = 0;
  virtual int num_classes() const = 0;
  // >1 marks a multi-task binary-classification source.
  virtual int num_tasks() const = 0;
  virtual int64_t size() const = 0;

  // Feature dimensionality shared by every graph in the source.
  // FailedPrecondition on an empty source — there is no silent 0.
  [[nodiscard]] virtual Result<int64_t> FeatDim() const = 0;

  // Appends the graphs at `indices` to `out` in the given order.
  // OutOfRange on any bad index. Thread-safe: concurrent Fetch calls on
  // one source are allowed (the prefetch pipeline relies on this).
  [[nodiscard]] virtual Status Fetch(std::span<const int64_t> indices,
                                     FetchedGraphs* out) const = 0;

  // Stable fingerprint of the source's identity and content, recorded in
  // training checkpoints and re-checked on resume so a checkpoint is
  // never applied to different data.
  virtual uint64_t ContentFingerprint() const = 0;

  // Decode-locality hint: disjoint ranges covering [0, size()) such that
  // indices inside one range fetch together cheaply. A single range
  // (the default) means random access is uniform-cost.
  virtual std::vector<IndexRange> FetchBlocks() const {
    return {IndexRange{0, size()}};
  }

  // -- Helpers built on Fetch --

  // Single-task class labels of all graphs, fetched in bounded chunks.
  // FailedPrecondition on an empty source.
  [[nodiscard]] Result<std::vector<int>> Labels() const;

  // All graphs as one batch. Convenience for in-memory consumers (eval);
  // materializes the entire source, so do not call on huge stores.
  [[nodiscard]] Result<FetchedGraphs> FetchAll() const;
};

// GraphSource view over a GraphDataset. Fetch borrows pointers straight
// out of the dataset (no copies, no pins): the caller guarantees the
// dataset outlives every batch, exactly as the old `dataset.graph(i)`
// contract did.
class InMemorySource : public GraphSource {
 public:
  // `dataset` must outlive the source and its batches.
  explicit InMemorySource(const GraphDataset* dataset)
      : borrowed_(dataset), fingerprint_(Fingerprint(*dataset)) {}

  const std::string& name() const override { return borrowed_->name(); }
  int num_classes() const override { return borrowed_->num_classes(); }
  int num_tasks() const override { return borrowed_->num_tasks(); }
  int64_t size() const override { return borrowed_->size(); }
  [[nodiscard]] Result<int64_t> FeatDim() const override {
    return borrowed_->FeatDim();
  }
  [[nodiscard]] Status Fetch(std::span<const int64_t> indices,
                             FetchedGraphs* out) const override;
  uint64_t ContentFingerprint() const override;

  const GraphDataset& dataset() const { return *borrowed_; }

  // Cheap structural fingerprint (metadata + per-graph shape/label FNV);
  // computed once at construction so ContentFingerprint is race-free.
  static uint64_t Fingerprint(const GraphDataset& dataset);

 private:
  const GraphDataset* borrowed_ = nullptr;
  uint64_t fingerprint_ = 0;
};

}  // namespace sgcl

#endif  // SGCL_GRAPH_GRAPH_SOURCE_H_
