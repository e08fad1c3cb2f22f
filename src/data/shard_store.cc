#include "data/shard_store.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/crc32.h"
#include "common/fault.h"
#include "common/io.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "graph/graph_record.h"

namespace sgcl {
namespace {

constexpr uint32_t kShardMagic = 0x53475348u;     // "SGSH"
constexpr uint32_t kManifestMagic = 0x5347534du;  // "SGSM"
constexpr uint32_t kFormatVersion = 1;
constexpr int64_t kMaxShards = int64_t{1} << 20;
// Decoded shards kept resident. Two suffice for the double-buffered
// prefetch pipeline; more would trade RSS for fewer re-decodes.
constexpr size_t kCachedShards = 2;

// Validates the whole-file trailing CRC and returns the body (all bytes
// before the 4-byte trailer).
Result<size_t> CheckTrailingCrc(const std::string& bytes,
                                const std::string& what) {
  if (bytes.size() < sizeof(uint32_t)) {
    return Status::InvalidArgument(
        StrFormat("%s is too short to hold a CRC", what.c_str()));
  }
  const size_t body_size = bytes.size() - sizeof(uint32_t);
  uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + body_size, sizeof(stored));
  if (Crc32(bytes.data(), body_size) != stored) {
    return Status::InvalidArgument(StrFormat(
        "%s failed its CRC check (truncated or corrupt)", what.c_str()));
  }
  return body_size;
}

}  // namespace

std::string ShardedGraphStore::ManifestPath(const std::string& dir) {
  return dir + "/manifest.sgsm";
}

std::string ShardedGraphStore::ShardPath(const std::string& dir,
                                         int64_t shard) {
  return StrFormat("%s/shard-%06lld.sgshard", dir.c_str(),
                   static_cast<long long>(shard));
}

// ---------------------------------------------------------------------------
// Writer

Result<std::unique_ptr<ShardedGraphStoreWriter>>
ShardedGraphStoreWriter::Create(const std::string& dir,
                                const ShardWriterOptions& options) {
  if (options.graphs_per_shard < 1) {
    return Status::InvalidArgument("graphs_per_shard must be >= 1");
  }
  if (options.num_classes < 0 || options.num_tasks < 1) {
    return Status::InvalidArgument("invalid store task metadata");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal(StrFormat("cannot create store directory %s: %s",
                                      dir.c_str(), ec.message().c_str()));
  }
  // NOLINTNEXTLINE(sgcl-R5): private ctor, make_unique cannot reach it
  auto* writer = new ShardedGraphStoreWriter(dir, options);
  return std::unique_ptr<ShardedGraphStoreWriter>(writer);
}

Status ShardedGraphStoreWriter::Append(const Graph& graph) {
  if (finalized_) {
    return Status::FailedPrecondition("store already finalized");
  }
  if (feat_dim_ < 0) {
    feat_dim_ = graph.feat_dim();
  } else if (graph.feat_dim() != feat_dim_) {
    return Status::InvalidArgument(
        StrFormat("graph has feat_dim %lld, store holds feat_dim %lld",
                  static_cast<long long>(graph.feat_dim()),
                  static_cast<long long>(feat_dim_)));
  }
  BufferWriter record;
  AppendGraphRecord(graph, &record);
  pending_records_.append(record.bytes());
  pending_offsets_.push_back(static_cast<int64_t>(pending_records_.size()));
  ++pending_count_;
  ++total_graphs_;
  if (pending_count_ >= options_.graphs_per_shard) {
    SGCL_RETURN_NOT_OK(FlushShard());
  }
  return Status::OK();
}

Status ShardedGraphStoreWriter::FlushShard() {
  if (pending_count_ == 0) return Status::OK();
  const int64_t shard_index = static_cast<int64_t>(shards_.size());
  BufferWriter writer;
  writer.WriteU32(kShardMagic);
  writer.WriteU32(kFormatVersion);
  writer.WriteI64(shard_index);
  writer.WriteI64(pending_count_);
  for (int64_t off : pending_offsets_) writer.WriteI64(off);
  writer.WriteBytes(pending_records_.data(), pending_records_.size());
  const uint32_t crc = Crc32(writer.bytes());
  writer.WriteU32(crc);

  if (auto fault = FaultInjector::Global().Check(kFaultShardWrite);
      fault.has_value()) {
    if (*fault == FaultKind::kCrash) return SimulatedCrash(kFaultShardWrite);
    return Status::Internal(StrFormat(
        "injected failure writing shard %lld",
        static_cast<long long>(shard_index)));
  }
  const std::string path = ShardedGraphStore::ShardPath(dir_, shard_index);
  SGCL_RETURN_NOT_OK(AtomicWriteFile(path, writer.bytes()));

  ShardMeta meta;
  meta.num_records = pending_count_;
  meta.file_size = static_cast<int64_t>(writer.bytes().size());
  meta.crc = crc;
  shards_.push_back(meta);
  pending_records_.clear();
  pending_offsets_.assign(1, 0);
  pending_count_ = 0;
  return Status::OK();
}

Status ShardedGraphStoreWriter::Finalize() {
  if (finalized_) {
    return Status::FailedPrecondition("store already finalized");
  }
  SGCL_RETURN_NOT_OK(FlushShard());
  BufferWriter writer;
  writer.WriteU32(kManifestMagic);
  writer.WriteU32(kFormatVersion);
  writer.WriteString(options_.name);
  writer.WriteI64(options_.num_classes);
  writer.WriteI64(options_.num_tasks);
  writer.WriteI64(feat_dim_);
  writer.WriteI64(total_graphs_);
  writer.WriteI64(static_cast<int64_t>(shards_.size()));
  for (const ShardMeta& meta : shards_) {
    writer.WriteI64(meta.num_records);
    writer.WriteI64(meta.file_size);
    writer.WriteU32(meta.crc);
  }
  writer.WriteU32(Crc32(writer.bytes()));

  if (auto fault = FaultInjector::Global().Check(kFaultManifestWrite);
      fault.has_value()) {
    if (*fault == FaultKind::kCrash) {
      return SimulatedCrash(kFaultManifestWrite);
    }
    return Status::Internal("injected failure writing store manifest");
  }
  SGCL_RETURN_NOT_OK(
      AtomicWriteFile(ShardedGraphStore::ManifestPath(dir_), writer.bytes()));
  finalized_ = true;
  // The manifest is the commit point: shard files past it are left over
  // from a larger store this one replaced.
  int64_t stale = static_cast<int64_t>(shards_.size());
  std::error_code ec;
  while (std::filesystem::remove(ShardedGraphStore::ShardPath(dir_, stale),
                                 ec)) {
    ++stale;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reader

Result<std::unique_ptr<ShardedGraphStore>> ShardedGraphStore::Open(
    const std::string& dir) {
  const std::string manifest_path = ManifestPath(dir);
  SGCL_ASSIGN_OR_RETURN(const std::string bytes,
                        ReadFileToString(manifest_path));
  SGCL_ASSIGN_OR_RETURN(const size_t body_size,
                        CheckTrailingCrc(bytes, manifest_path));
  BufferReader reader(bytes);
  if (reader.ReadU32() != kManifestMagic || !reader.ok()) {
    return Status::InvalidArgument(
        StrFormat("%s is not a shard-store manifest", manifest_path.c_str()));
  }
  const uint32_t version = reader.ReadU32();
  if (version != kFormatVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported shard-store version %u in %s", version,
                  manifest_path.c_str()));
  }
  // NOLINTNEXTLINE(sgcl-R5): private ctor, make_unique cannot reach it
  std::unique_ptr<ShardedGraphStore> store(new ShardedGraphStore());
  store->dir_ = dir;
  store->name_ = reader.ReadString();
  const int64_t num_classes = reader.ReadI64();
  const int64_t num_tasks = reader.ReadI64();
  store->feat_dim_ = reader.ReadI64();
  store->total_graphs_ = reader.ReadI64();
  const int64_t num_shards = reader.ReadI64();
  if (!reader.ok() || num_classes < 0 || num_classes > (1 << 20) ||
      num_tasks < 1 || num_tasks > (1 << 20) || store->total_graphs_ < 0 ||
      store->total_graphs_ > kMaxRecordGraphs || num_shards < 0 ||
      num_shards > kMaxShards) {
    return Status::InvalidArgument(
        StrFormat("corrupt manifest header in %s", manifest_path.c_str()));
  }
  store->num_classes_ = static_cast<int>(num_classes);
  store->num_tasks_ = static_cast<int>(num_tasks);
  store->shards_.reserve(static_cast<size_t>(num_shards));
  int64_t first_index = 0;
  for (int64_t s = 0; s < num_shards; ++s) {
    ShardInfo info;
    info.num_records = reader.ReadI64();
    info.file_size = reader.ReadI64();
    info.crc = reader.ReadU32();
    info.first_index = first_index;
    if (!reader.ok() || info.num_records < 1 || info.file_size < 1) {
      return Status::InvalidArgument(StrFormat(
          "corrupt shard table entry %lld in %s",
          static_cast<long long>(s), manifest_path.c_str()));
    }
    first_index += info.num_records;
    store->shards_.push_back(info);
  }
  if (reader.position() != body_size) {
    return Status::InvalidArgument(
        StrFormat("trailing bytes in %s", manifest_path.c_str()));
  }
  if (first_index != store->total_graphs_) {
    return Status::InvalidArgument(StrFormat(
        "manifest %s declares %lld graphs but shards hold %lld",
        manifest_path.c_str(), static_cast<long long>(store->total_graphs_),
        static_cast<long long>(first_index)));
  }
  // The manifest bytes (CRC included) are the store's identity.
  const uint64_t fp = Fnv1a64(bytes);
  store->fingerprint_ = fp == 0 ? 1 : fp;
  return store;
}

Result<int64_t> ShardedGraphStore::FeatDim() const {
  if (total_graphs_ == 0 || feat_dim_ < 0) {
    return Status::FailedPrecondition(StrFormat(
        "store %s is empty: feature dimension is undefined", name_.c_str()));
  }
  return feat_dim_;
}

std::vector<IndexRange> ShardedGraphStore::FetchBlocks() const {
  std::vector<IndexRange> blocks;
  blocks.reserve(shards_.size());
  for (const ShardInfo& info : shards_) {
    blocks.push_back(
        IndexRange{info.first_index, info.first_index + info.num_records});
  }
  if (blocks.empty()) blocks.push_back(IndexRange{0, 0});
  return blocks;
}

int64_t ShardedGraphStore::ShardOf(int64_t index) const {
  // Largest shard whose first_index <= index.
  int64_t lo = 0, hi = static_cast<int64_t>(shards_.size()) - 1;
  while (lo < hi) {
    const int64_t mid = (lo + hi + 1) / 2;
    if (shards_[static_cast<size_t>(mid)].first_index <= index) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

int64_t ShardedGraphStore::shard_decodes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return decode_count_;
}

Result<std::shared_ptr<const ShardedGraphStore::DecodedShard>>
ShardedGraphStore::DecodeShard(int64_t shard) const {
  const ShardInfo& info = shards_[static_cast<size_t>(shard)];
  const std::string path = ShardPath(dir_, shard);
  SGCL_ASSIGN_OR_RETURN(const std::string bytes, ReadFileToString(path));
  if (static_cast<int64_t>(bytes.size()) != info.file_size) {
    return Status::InvalidArgument(StrFormat(
        "%s holds %zu bytes, manifest expects %lld", path.c_str(),
        bytes.size(), static_cast<long long>(info.file_size)));
  }
  SGCL_ASSIGN_OR_RETURN(const size_t body_size,
                        CheckTrailingCrc(bytes, path));
  uint32_t file_crc = 0;
  std::memcpy(&file_crc, bytes.data() + body_size, sizeof(file_crc));
  if (file_crc != info.crc) {
    return Status::InvalidArgument(StrFormat(
        "%s does not match the manifest's digest (stale or swapped shard)",
        path.c_str()));
  }
  BufferReader reader(bytes);
  if (reader.ReadU32() != kShardMagic || !reader.ok()) {
    return Status::InvalidArgument(
        StrFormat("%s is not a shard file", path.c_str()));
  }
  if (reader.ReadU32() != kFormatVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported shard version in %s", path.c_str()));
  }
  const int64_t declared_index = reader.ReadI64();
  const int64_t num_records = reader.ReadI64();
  if (!reader.ok() || declared_index != shard ||
      num_records != info.num_records) {
    return Status::InvalidArgument(StrFormat(
        "%s header disagrees with the manifest", path.c_str()));
  }
  std::vector<int64_t> offsets(static_cast<size_t>(num_records) + 1);
  for (int64_t& off : offsets) off = reader.ReadI64();
  const size_t records_begin = reader.position();
  if (!reader.ok() || offsets.front() != 0 ||
      records_begin + static_cast<size_t>(offsets.back()) != body_size) {
    return Status::InvalidArgument(
        StrFormat("corrupt offset table in %s", path.c_str()));
  }
  auto decoded = std::make_shared<DecodedShard>();
  decoded->graphs.reserve(static_cast<size_t>(num_records));
  for (int64_t r = 0; r < num_records; ++r) {
    if (offsets[static_cast<size_t>(r)] >
        offsets[static_cast<size_t>(r) + 1]) {
      return Status::InvalidArgument(
          StrFormat("non-monotone offset table in %s", path.c_str()));
    }
    if (reader.position() !=
        records_begin + static_cast<size_t>(offsets[static_cast<size_t>(r)])) {
      return Status::InvalidArgument(StrFormat(
          "record %lld in %s does not start at its declared offset",
          static_cast<long long>(r), path.c_str()));
    }
    SGCL_ASSIGN_OR_RETURN(Graph g, ParseGraphRecord(&reader));
    if (g.feat_dim() != feat_dim_) {
      return Status::InvalidArgument(StrFormat(
          "record %lld in %s has feat_dim %lld, store holds %lld",
          static_cast<long long>(r), path.c_str(),
          static_cast<long long>(g.feat_dim()),
          static_cast<long long>(feat_dim_)));
    }
    decoded->graphs.push_back(std::move(g));
  }
  if (reader.position() != body_size) {
    return Status::InvalidArgument(
        StrFormat("trailing bytes in %s", path.c_str()));
  }
  return std::shared_ptr<const DecodedShard>(std::move(decoded));
}

Result<std::shared_ptr<const ShardedGraphStore::DecodedShard>>
ShardedGraphStore::GetShard(int64_t shard) const {
  // Decoded-shard LRU cache visibility: hit/miss/eviction counters plus
  // the read+CRC+decode latency of every miss. Process-wide names (one
  // series across stores), matching the "stream/" metric family.
  static Counter* const cache_hits =
      MetricsRegistry::Global().GetCounter("stream/shard_cache_hits");
  static Counter* const cache_misses =
      MetricsRegistry::Global().GetCounter("stream/shard_cache_misses");
  static Counter* const cache_evictions =
      MetricsRegistry::Global().GetCounter("stream/shard_cache_evictions");
  static Histogram* const fetch_us = MetricsRegistry::Global().GetHistogram(
      "stream/shard_fetch_us",
      {100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000});
  // One critical section: a shard is decoded once per cache residency,
  // and a concurrent fetch of it waits for that decode, then hits.
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = cache_.begin(); it != cache_.end(); ++it) {
    if (it->first == shard) {
      cache_.splice(cache_.begin(), cache_, it);  // move to front (MRU)
      cache_hits->Increment();
      return cache_.front().second;
    }
  }
  cache_misses->Increment();
  const int64_t decode_start_us = TraceNowUs();
  std::shared_ptr<const DecodedShard> decoded;
  {
    SGCL_TRACE_SPAN("stream/shard_decode");
    SGCL_ASSIGN_OR_RETURN(decoded, DecodeShard(shard));
  }
  fetch_us->Observe(static_cast<double>(TraceNowUs() - decode_start_us));
  ++decode_count_;
  cache_.emplace_front(shard, decoded);
  while (cache_.size() > kCachedShards) {
    cache_.pop_back();
    cache_evictions->Increment();
  }
  return decoded;
}

Status ShardedGraphStore::Fetch(std::span<const int64_t> indices,
                                FetchedGraphs* out) const {
  for (int64_t i : indices) {
    if (i < 0 || i >= total_graphs_) {
      return Status::OutOfRange(
          StrFormat("index %lld outside store %s of size %lld",
                    static_cast<long long>(i), name_.c_str(),
                    static_cast<long long>(total_graphs_)));
    }
  }
  // Resolve shard-by-shard so each needed shard is pinned exactly once
  // per batch, however the indices interleave.
  std::shared_ptr<const DecodedShard> current;
  int64_t current_shard = -1;
  std::vector<std::pair<int64_t, std::shared_ptr<const DecodedShard>>> pinned;
  std::vector<const Graph*> resolved;
  resolved.reserve(indices.size());
  for (int64_t i : indices) {
    const int64_t shard = ShardOf(i);
    if (shard != current_shard) {
      current.reset();
      for (const auto& [id, ptr] : pinned) {
        if (id == shard) {
          current = ptr;
          break;
        }
      }
      if (!current) {
        SGCL_ASSIGN_OR_RETURN(current, GetShard(shard));
        pinned.emplace_back(shard, current);
      }
      current_shard = shard;
    }
    const int64_t local =
        i - shards_[static_cast<size_t>(shard)].first_index;
    resolved.push_back(&current->graphs[static_cast<size_t>(local)]);
  }
  for (auto& [id, ptr] : pinned) out->AddPin(std::move(ptr));
  for (const Graph* g : resolved) out->AppendBorrowed(g);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// GraphDataset <-> store

Status SaveDataset(const GraphDataset& dataset, const std::string& dir) {
  ShardWriterOptions options;
  options.graphs_per_shard = std::max<int64_t>(1, dataset.size());
  options.name = dataset.name();
  options.num_classes = dataset.num_classes();
  options.num_tasks = dataset.num_tasks();
  SGCL_ASSIGN_OR_RETURN(std::unique_ptr<ShardedGraphStoreWriter> writer,
                        ShardedGraphStoreWriter::Create(dir, options));
  for (const Graph& g : dataset.graphs()) {
    SGCL_RETURN_NOT_OK(writer->Append(g));
  }
  return writer->Finalize();
}

Result<GraphDataset> LoadDataset(const std::string& dir) {
  SGCL_ASSIGN_OR_RETURN(std::unique_ptr<ShardedGraphStore> store,
                        ShardedGraphStore::Open(dir));
  SGCL_ASSIGN_OR_RETURN(const FetchedGraphs all, store->FetchAll());
  GraphDataset dataset(store->name(), store->num_classes(),
                       store->num_tasks());
  dataset.Reserve(store->size());
  for (const Graph* g : all.graphs()) {
    SGCL_RETURN_NOT_OK(dataset.TryAdd(*g));
  }
  // The store's decode checks the wire format only; labels and task
  // counts are checked here against the manifest's metadata.
  SGCL_RETURN_NOT_OK(dataset.Validate());
  return dataset;
}

}  // namespace sgcl
