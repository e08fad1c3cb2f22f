// Sharded on-disk graph store: the out-of-core GraphSource backing
// paper-scale (ZINC-2M) streaming pretraining.
//
// Directory layout ("the store"):
//   <dir>/manifest.sgsm        — store metadata + per-shard digest table
//   <dir>/shard-000000.sgshard — fixed-capacity runs of graph records
//   <dir>/shard-000001.sgshard
//   ...
//
// Shard file (little-endian):
//   u32 magic 'SGSH' | u32 version | i64 shard_index | i64 num_records |
//   i64 offsets[num_records + 1] (record byte offsets, relative to the
//   records region; offsets[n] is the region size) | records... |
//   u32 crc32 of every preceding byte
//
// Manifest:
//   u32 magic 'SGSM' | u32 version | str name | i64 num_classes |
//   i64 num_tasks | i64 feat_dim | i64 total_graphs | i64 num_shards |
//   per shard { i64 num_records, i64 file_size, u32 crc } |
//   u32 crc32 of every preceding byte
//
// Every file is published via AtomicWriteFile, so a crash mid-write can
// only leave (a) a complete previous version, (b) an orphaned .tmp, or
// (c) shards without a manifest — Open treats (c) as "store absent"
// because the manifest is written last and is the commit point.
//
// The reader keeps at most two decoded shards in an LRU cache, so
// resident memory is bounded by the shard capacity — independent of the
// total graph count. Fetch is thread-safe: a shard is decoded once per
// cache residency and concurrent readers of it wait for that decode.
// Decoded shards are handed out as shared_ptr pins, so FetchedGraphs
// batches stay valid after eviction.
//
// The store is the only on-disk graph format: a GraphDataset is saved as
// a one-shard store (SaveDataset) and any store loads back into memory
// (LoadDataset).
#ifndef SGCL_DATA_SHARD_STORE_H_
#define SGCL_DATA_SHARD_STORE_H_

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "graph/graph_source.h"

namespace sgcl {

// Fault-injection points (common/fault.h) hit before each file publish.
inline constexpr char kFaultShardWrite[] = "shard_store/write_shard";
inline constexpr char kFaultManifestWrite[] = "shard_store/write_manifest";

struct ShardWriterOptions {
  int64_t graphs_per_shard = 4096;
  std::string name = "sharded";
  int num_classes = 1;
  int num_tasks = 1;
};

// Streaming writer: Append graphs one at a time (bounded memory — only
// the open shard is buffered), then Finalize to publish the manifest.
// Without Finalize the store does not exist to readers.
class ShardedGraphStoreWriter {
 public:
  [[nodiscard]] static Result<std::unique_ptr<ShardedGraphStoreWriter>>
  Create(const std::string& dir, const ShardWriterOptions& options);

  // Feature-dim disagreement with earlier appends is InvalidArgument.
  [[nodiscard]] Status Append(const Graph& graph);

  // Flushes the open shard and atomically publishes the manifest (the
  // store's commit point). Append/Finalize afterwards are errors.
  [[nodiscard]] Status Finalize();

  int64_t graphs_appended() const { return total_graphs_; }
  int64_t shards_written() const {
    return static_cast<int64_t>(shards_.size());
  }

 private:
  struct ShardMeta {
    int64_t num_records = 0;
    int64_t file_size = 0;
    uint32_t crc = 0;
  };

  ShardedGraphStoreWriter(std::string dir, ShardWriterOptions options)
      : dir_(std::move(dir)), options_(std::move(options)) {}

  Status FlushShard();

  std::string dir_;
  ShardWriterOptions options_;
  std::vector<ShardMeta> shards_;
  // Open-shard accumulation.
  std::string pending_records_;
  std::vector<int64_t> pending_offsets_{0};
  int64_t pending_count_ = 0;
  int64_t total_graphs_ = 0;
  int64_t feat_dim_ = -1;  // pinned by the first Append
  bool finalized_ = false;
};

// Read side: a GraphSource over a finalized store directory.
class ShardedGraphStore : public GraphSource {
 public:
  [[nodiscard]] static Result<std::unique_ptr<ShardedGraphStore>> Open(
      const std::string& dir);

  const std::string& name() const override { return name_; }
  int num_classes() const override { return num_classes_; }
  int num_tasks() const override { return num_tasks_; }
  int64_t size() const override { return total_graphs_; }
  [[nodiscard]] Result<int64_t> FeatDim() const override;
  [[nodiscard]] Status Fetch(std::span<const int64_t> indices,
                             FetchedGraphs* out) const override;
  uint64_t ContentFingerprint() const override { return fingerprint_; }
  // One block per shard: indices within a shard decode together.
  std::vector<IndexRange> FetchBlocks() const override;

  int64_t num_shards() const {
    return static_cast<int64_t>(shards_.size());
  }
  // Decoded-shard cache misses since Open (monotone; for tests/benches).
  int64_t shard_decodes() const;

  static std::string ManifestPath(const std::string& dir);
  static std::string ShardPath(const std::string& dir, int64_t shard);

 private:
  struct ShardInfo {
    int64_t num_records = 0;
    int64_t file_size = 0;
    uint32_t crc = 0;
    int64_t first_index = 0;  // global index of the shard's first record
  };
  struct DecodedShard {
    std::vector<Graph> graphs;
  };

  ShardedGraphStore() = default;

  // Shard holding global index `i` (indices are dense and ordered).
  int64_t ShardOf(int64_t index) const;
  Result<std::shared_ptr<const DecodedShard>> GetShard(int64_t shard) const;
  Result<std::shared_ptr<const DecodedShard>> DecodeShard(
      int64_t shard) const;

  std::string dir_;
  std::string name_;
  int num_classes_ = 1;
  int num_tasks_ = 1;
  int64_t feat_dim_ = -1;
  int64_t total_graphs_ = 0;
  uint64_t fingerprint_ = 0;
  std::vector<ShardInfo> shards_;

  // LRU of decoded shards, most-recent first.
  mutable std::mutex mu_;
  mutable std::list<std::pair<int64_t, std::shared_ptr<const DecodedShard>>>
      cache_ SGCL_GUARDED_BY(mu_);
  mutable int64_t decode_count_ SGCL_GUARDED_BY(mu_) = 0;
};

// Writes `dataset` as a one-shard store at `dir` (created if missing).
// One shard is one fetch block, so training on the store shuffles
// exactly as training on the dataset in memory.
[[nodiscard]] Status SaveDataset(const GraphDataset& dataset,
                                 const std::string& dir);

// Reads the store at `dir` into memory and checks it as a dataset:
// feature widths, per-graph structure, and labels against the manifest's
// class and task counts (OutOfRange for a label outside [0, classes)).
// A missing store is NotFound.
[[nodiscard]] Result<GraphDataset> LoadDataset(const std::string& dir);

}  // namespace sgcl

#endif  // SGCL_DATA_SHARD_STORE_H_
