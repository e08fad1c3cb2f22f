#include "data/shard_store.h"

#include <algorithm>
#include <barrier>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "data/synthetic_molecule.h"
#include "data/synthetic_tu.h"
#include "gtest/gtest.h"

namespace sgcl {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  fs::remove_all(dir);
  return dir;
}

// Writes `ds` into a fresh store at `dir` with `graphs_per_shard`.
void WriteStore(const GraphDataset& ds, const std::string& dir,
                int64_t graphs_per_shard) {
  ShardWriterOptions opt;
  opt.graphs_per_shard = graphs_per_shard;
  opt.name = ds.name();
  opt.num_classes = ds.num_classes();
  opt.num_tasks = ds.num_tasks();
  auto writer = ShardedGraphStoreWriter::Create(dir, opt);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  for (int64_t i = 0; i < ds.size(); ++i) {
    ASSERT_TRUE((*writer)->Append(ds.graph(i)).ok());
  }
  ASSERT_TRUE((*writer)->Finalize().ok());
}

void ExpectGraphsBitIdentical(const Graph& a, const Graph& b) {
  EXPECT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.feat_dim(), b.feat_dim());
  EXPECT_EQ(a.features(), b.features());
  EXPECT_EQ(a.edge_src(), b.edge_src());
  EXPECT_EQ(a.edge_dst(), b.edge_dst());
  EXPECT_EQ(a.label(), b.label());
  EXPECT_EQ(a.scaffold_id(), b.scaffold_id());
  EXPECT_EQ(a.task_labels(), b.task_labels());
  EXPECT_EQ(a.semantic_mask(), b.semantic_mask());
}

TEST(ShardStoreTest, RoundTripBitExact) {
  GraphDataset ds = MakeZincLikeDataset(23, /*seed=*/7);
  const std::string dir = TempDir("shard_roundtrip");
  WriteStore(ds, dir, /*graphs_per_shard=*/5);

  auto store = ShardedGraphStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->size(), 23);
  EXPECT_EQ((*store)->num_shards(), 5);  // 5*4 + 3
  EXPECT_EQ((*store)->name(), "ZINC-like");
  EXPECT_EQ((*store)->FeatDim().value(), kMoleculeFeatDim);

  std::vector<int64_t> all(23);
  for (int64_t i = 0; i < 23; ++i) all[i] = i;
  FetchedGraphs out;
  ASSERT_TRUE((*store)->Fetch(all, &out).ok());
  ASSERT_EQ(out.size(), 23u);
  for (int64_t i = 0; i < 23; ++i) {
    ExpectGraphsBitIdentical(ds.graph(i), out.graph(i));
  }
  fs::remove_all(dir);
}

TEST(ShardStoreTest, FetchAcrossShardsInArbitraryOrder) {
  GraphDataset ds = MakeZincLikeDataset(12, /*seed=*/3);
  const std::string dir = TempDir("shard_order");
  WriteStore(ds, dir, /*graphs_per_shard=*/4);
  auto store = ShardedGraphStore::Open(dir);
  ASSERT_TRUE(store.ok());
  const std::vector<int64_t> idx = {11, 0, 5, 5, 3};
  FetchedGraphs out;
  ASSERT_TRUE((*store)->Fetch(idx, &out).ok());
  ASSERT_EQ(out.size(), 5u);
  for (size_t k = 0; k < idx.size(); ++k) {
    ExpectGraphsBitIdentical(ds.graph(idx[k]), out.graph(k));
  }
  fs::remove_all(dir);
}

TEST(ShardStoreTest, FetchRejectsOutOfRange) {
  GraphDataset ds = MakeZincLikeDataset(6, /*seed=*/1);
  const std::string dir = TempDir("shard_oob");
  WriteStore(ds, dir, /*graphs_per_shard=*/3);
  auto store = ShardedGraphStore::Open(dir);
  ASSERT_TRUE(store.ok());
  FetchedGraphs out;
  const std::vector<int64_t> bad = {0, 6};
  EXPECT_EQ((*store)->Fetch(bad, &out).code(), StatusCode::kOutOfRange);
  const std::vector<int64_t> neg = {-1};
  EXPECT_EQ((*store)->Fetch(neg, &out).code(), StatusCode::kOutOfRange);
  fs::remove_all(dir);
}

TEST(ShardStoreTest, FetchBlocksMatchShards) {
  GraphDataset ds = MakeZincLikeDataset(10, /*seed=*/4);
  const std::string dir = TempDir("shard_blocks");
  WriteStore(ds, dir, /*graphs_per_shard=*/4);
  auto store = ShardedGraphStore::Open(dir);
  ASSERT_TRUE(store.ok());
  const std::vector<IndexRange> blocks = (*store)->FetchBlocks();
  ASSERT_EQ(blocks.size(), 3u);  // 4 + 4 + 2
  EXPECT_EQ(blocks[0].begin, 0);
  EXPECT_EQ(blocks[0].end, 4);
  EXPECT_EQ(blocks[1].begin, 4);
  EXPECT_EQ(blocks[1].end, 8);
  EXPECT_EQ(blocks[2].begin, 8);
  EXPECT_EQ(blocks[2].end, 10);
  fs::remove_all(dir);
}

TEST(ShardStoreTest, CacheBoundsDecodesAndPinsSurviveEviction) {
  GraphDataset ds = MakeZincLikeDataset(9, /*seed=*/5);
  const std::string dir = TempDir("shard_cache");
  WriteStore(ds, dir, /*graphs_per_shard=*/3);
  auto store = ShardedGraphStore::Open(dir);
  ASSERT_TRUE(store.ok());

  // Sequential fetches within one shard reuse the cached decode.
  FetchedGraphs a, b;
  ASSERT_TRUE((*store)->Fetch(std::vector<int64_t>{0, 1}, &a).ok());
  ASSERT_TRUE((*store)->Fetch(std::vector<int64_t>{2}, &b).ok());
  EXPECT_EQ((*store)->shard_decodes(), 1);

  // Touching the two other shards evicts shard 0 (cache size 2)...
  FetchedGraphs c;
  ASSERT_TRUE((*store)->Fetch(std::vector<int64_t>{3, 6}, &c).ok());
  EXPECT_EQ((*store)->shard_decodes(), 3);
  // ...but the earlier batches' pins keep their graphs alive.
  ExpectGraphsBitIdentical(ds.graph(0), a.graph(0));
  ExpectGraphsBitIdentical(ds.graph(2), b.graph(0));

  // Re-fetching shard 0 decodes again (it was evicted).
  FetchedGraphs d;
  ASSERT_TRUE((*store)->Fetch(std::vector<int64_t>{1}, &d).ok());
  EXPECT_EQ((*store)->shard_decodes(), 4);
  fs::remove_all(dir);
}

TEST(ShardStoreTest, CacheCountersTrackHitsMissesAndEvictions) {
  GraphDataset ds = MakeZincLikeDataset(9, /*seed=*/8);
  const std::string dir = TempDir("shard_cache_metrics");
  WriteStore(ds, dir, /*graphs_per_shard=*/3);
  auto store = ShardedGraphStore::Open(dir);
  ASSERT_TRUE(store.ok());

  // The stream/ counters are process-wide, so measure deltas.
  Counter* hits =
      MetricsRegistry::Global().GetCounter("stream/shard_cache_hits");
  Counter* misses =
      MetricsRegistry::Global().GetCounter("stream/shard_cache_misses");
  Counter* evictions =
      MetricsRegistry::Global().GetCounter("stream/shard_cache_evictions");
  const int64_t hits0 = hits->value();
  const int64_t misses0 = misses->value();
  const int64_t evictions0 = evictions->value();

  // Warm fetch: shard 0 decode is a miss, the repeat is a hit.
  FetchedGraphs out;
  ASSERT_TRUE((*store)->Fetch(std::vector<int64_t>{0, 1}, &out).ok());
  ASSERT_TRUE((*store)->Fetch(std::vector<int64_t>{2}, &out).ok());
  EXPECT_EQ(hits->value() - hits0, 1);
  EXPECT_EQ(misses->value() - misses0, 1);
  EXPECT_EQ(evictions->value() - evictions0, 0);

  // Shard 1 then shard 2: two more misses; the second evicts shard 0
  // (cache size 2).
  ASSERT_TRUE((*store)->Fetch(std::vector<int64_t>{3}, &out).ok());
  ASSERT_TRUE((*store)->Fetch(std::vector<int64_t>{6}, &out).ok());
  EXPECT_EQ(misses->value() - misses0, 3);
  EXPECT_EQ(evictions->value() - evictions0, 1);

  // A scan that revisits every shard once (LRU of 2, 3 shards) can never
  // hit: each shard was evicted just before its turn, so the hit ratio
  // over the run is 1/(1+5), every miss evicts, and every decode paid
  // the fetch-latency histogram.
  ASSERT_TRUE((*store)->Fetch(std::vector<int64_t>{0, 3, 6}, &out).ok());
  const int64_t total_hits = hits->value() - hits0;
  const int64_t total_misses = misses->value() - misses0;
  EXPECT_EQ(total_hits, 1);
  EXPECT_EQ(total_misses, 6);
  EXPECT_EQ(evictions->value() - evictions0, 4);
  EXPECT_EQ(total_misses, (*store)->shard_decodes());
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  const auto it = snap.histograms.find("stream/shard_fetch_us");
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_GE(it->second.count, total_misses);
  fs::remove_all(dir);
}

TEST(ShardStoreTest, ConcurrentFetchesOfOneShardDecodeItOnce) {
  // Four readers released together, each wanting a disjoint 32-graph
  // batch of one uncached 128-graph shard: the first decodes it, the
  // other three wait for that decode and hit.
  constexpr int kReaders = 4;
  constexpr int64_t kBatch = 32;
  GraphDataset ds = MakeZincLikeDataset(kReaders * kBatch, /*seed=*/9);
  const std::string dir = TempDir("shard_concurrent");
  WriteStore(ds, dir, /*graphs_per_shard=*/kReaders * kBatch);
  auto store = ShardedGraphStore::Open(dir);
  ASSERT_TRUE(store.ok());
  Counter* hits =
      MetricsRegistry::Global().GetCounter("stream/shard_cache_hits");
  Counter* misses =
      MetricsRegistry::Global().GetCounter("stream/shard_cache_misses");
  const int64_t hits0 = hits->value();
  const int64_t misses0 = misses->value();

  std::vector<std::vector<int64_t>> batches(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    for (int64_t k = 0; k < kBatch; ++k) batches[r].push_back(r * kBatch + k);
  }
  std::vector<FetchedGraphs> fetched(kReaders);
  std::vector<Status> statuses(kReaders);
  std::barrier start(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      start.arrive_and_wait();
      statuses[r] = (*store)->Fetch(batches[r], &fetched[r]);
    });
  }
  for (std::thread& t : readers) t.join();

  EXPECT_EQ((*store)->shard_decodes(), 1);
  EXPECT_EQ(misses->value() - misses0, 1);
  EXPECT_EQ(hits->value() - hits0, kReaders - 1);
  auto reference = ShardedGraphStore::Open(dir);
  ASSERT_TRUE(reference.ok());
  for (int r = 0; r < kReaders; ++r) {
    ASSERT_TRUE(statuses[r].ok()) << statuses[r].ToString();
    FetchedGraphs expected;
    ASSERT_TRUE((*reference)->Fetch(batches[r], &expected).ok());
    ASSERT_EQ(fetched[r].size(), expected.size());
    for (size_t k = 0; k < expected.size(); ++k) {
      ExpectGraphsBitIdentical(expected.graph(k), fetched[r].graph(k));
    }
  }
  fs::remove_all(dir);
}

TEST(ShardStoreTest, FingerprintStableAcrossOpensAndContentSensitive) {
  GraphDataset ds = MakeZincLikeDataset(8, /*seed=*/6);
  const std::string dir = TempDir("shard_fp_a");
  WriteStore(ds, dir, /*graphs_per_shard=*/4);
  auto s1 = ShardedGraphStore::Open(dir);
  auto s2 = ShardedGraphStore::Open(dir);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_NE((*s1)->ContentFingerprint(), 0u);
  EXPECT_EQ((*s1)->ContentFingerprint(), (*s2)->ContentFingerprint());

  const std::string dir_b = TempDir("shard_fp_b");
  GraphDataset other = MakeZincLikeDataset(8, /*seed=*/99);
  WriteStore(other, dir_b, /*graphs_per_shard=*/4);
  auto s3 = ShardedGraphStore::Open(dir_b);
  ASSERT_TRUE(s3.ok());
  EXPECT_NE((*s1)->ContentFingerprint(), (*s3)->ContentFingerprint());
  fs::remove_all(dir);
  fs::remove_all(dir_b);
}

TEST(ShardStoreTest, OpenMissingDirIsNotFound) {
  auto store = ShardedGraphStore::Open(TempDir("shard_missing"));
  EXPECT_EQ(store.status().code(), StatusCode::kNotFound);
}

TEST(ShardStoreTest, WriterRejectsFeatDimMismatch) {
  const std::string dir = TempDir("shard_featdim");
  auto writer = ShardedGraphStoreWriter::Create(dir, {});
  ASSERT_TRUE(writer.ok());
  Graph a(3, 4);
  ASSERT_TRUE((*writer)->Append(a).ok());
  Graph b(3, 5);
  EXPECT_EQ((*writer)->Append(b).code(), StatusCode::kInvalidArgument);
  fs::remove_all(dir);
}

TEST(ShardStoreTest, WriterRejectsUseAfterFinalize) {
  const std::string dir = TempDir("shard_finalized");
  auto writer = ShardedGraphStoreWriter::Create(dir, {});
  ASSERT_TRUE(writer.ok());
  Graph g(3, 4);
  ASSERT_TRUE((*writer)->Append(g).ok());
  ASSERT_TRUE((*writer)->Finalize().ok());
  EXPECT_EQ((*writer)->Append(g).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*writer)->Finalize().code(), StatusCode::kFailedPrecondition);
  fs::remove_all(dir);
}

// -- Corruption battery --

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A tiny store (one shard of 4 graphs) used by the corruption tests.
class ShardCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest runs each TEST_F as its own process, in
    // parallel, so a shared directory would race.
    const std::string unique =
        std::string("shard_corrupt_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    dir_ = TempDir(unique.c_str());
    GraphDataset ds = MakeZincLikeDataset(4, /*seed=*/11);
    WriteStore(ds, dir_, /*graphs_per_shard=*/4);
    shard_path_ = ShardedGraphStore::ShardPath(dir_, 0);
    manifest_path_ = ShardedGraphStore::ManifestPath(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  // True when the corrupted store either fails to open or fails every
  // full fetch — corruption must never yield silently wrong graphs.
  bool StoreRejected() {
    auto store = ShardedGraphStore::Open(dir_);
    if (!store.ok()) return true;
    std::vector<int64_t> all((*store)->size());
    for (size_t i = 0; i < all.size(); ++i) {
      all[i] = static_cast<int64_t>(i);
    }
    FetchedGraphs out;
    return !(*store)->Fetch(all, &out).ok();
  }

  std::string dir_;
  std::string shard_path_;
  std::string manifest_path_;
};

TEST_F(ShardCorruptionTest, ShardTruncationAtEveryByteRejected) {
  const std::vector<char> full = ReadAll(shard_path_);
  ASSERT_GT(full.size(), 0u);
  for (size_t cut = 0; cut < full.size(); ++cut) {
    WriteAll(shard_path_,
             std::vector<char>(full.begin(), full.begin() + cut));
    EXPECT_TRUE(StoreRejected()) << "shard truncated to " << cut << " of "
                                 << full.size() << " bytes was accepted";
  }
  WriteAll(shard_path_, full);
  EXPECT_FALSE(StoreRejected());
}

TEST_F(ShardCorruptionTest, ManifestTruncationAtEveryByteRejected) {
  const std::vector<char> full = ReadAll(manifest_path_);
  ASSERT_GT(full.size(), 0u);
  for (size_t cut = 0; cut < full.size(); ++cut) {
    WriteAll(manifest_path_,
             std::vector<char>(full.begin(), full.begin() + cut));
    EXPECT_TRUE(StoreRejected()) << "manifest truncated to " << cut
                                 << " bytes was accepted";
  }
  WriteAll(manifest_path_, full);
  EXPECT_FALSE(StoreRejected());
}

TEST_F(ShardCorruptionTest, ShardBitFlipsRejected) {
  const std::vector<char> full = ReadAll(shard_path_);
  // Flip one bit at a spread of positions covering header, offset table,
  // record payload, and trailing CRC.
  for (size_t pos = 0; pos < full.size();
       pos += std::max<size_t>(1, full.size() / 97)) {
    for (int bit = 0; bit < 8; bit += 3) {
      std::vector<char> bad = full;
      bad[pos] = static_cast<char>(bad[pos] ^ (1 << bit));
      WriteAll(shard_path_, bad);
      EXPECT_TRUE(StoreRejected())
          << "bit " << bit << " at byte " << pos << " was accepted";
    }
  }
  WriteAll(shard_path_, full);
  EXPECT_FALSE(StoreRejected());
}

TEST_F(ShardCorruptionTest, ManifestBitFlipsNeverYieldWrongData) {
  const std::vector<char> full = ReadAll(manifest_path_);
  for (size_t pos = 0; pos < full.size();
       pos += std::max<size_t>(1, full.size() / 97)) {
    std::vector<char> bad = full;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x10);
    WriteAll(manifest_path_, bad);
    EXPECT_TRUE(StoreRejected())
        << "manifest flip at byte " << pos << " was accepted";
  }
  WriteAll(manifest_path_, full);
  EXPECT_FALSE(StoreRejected());
}

TEST_F(ShardCorruptionTest, WrongShardMagicRejected) {
  std::vector<char> bad = ReadAll(shard_path_);
  bad[0] = 'X';
  WriteAll(shard_path_, bad);
  EXPECT_TRUE(StoreRejected());
}

TEST_F(ShardCorruptionTest, WrongManifestMagicRejected) {
  std::vector<char> bad = ReadAll(manifest_path_);
  bad[0] = 'X';
  WriteAll(manifest_path_, bad);
  auto store = ShardedGraphStore::Open(dir_);
  EXPECT_FALSE(store.ok());
}

// Rewrites the little-endian u32 trailing CRC so the corruption below is
// only detectable by the field checks, not the checksum.
void FixTrailingCrc(std::vector<char>* bytes) {
  ASSERT_GE(bytes->size(), 4u);
  const uint32_t crc = Crc32(bytes->data(), bytes->size() - 4);
  for (int i = 0; i < 4; ++i) {
    (*bytes)[bytes->size() - 4 + i] =
        static_cast<char>((crc >> (8 * i)) & 0xff);
  }
}

TEST_F(ShardCorruptionTest, UnsupportedManifestVersionRejected) {
  // Version is the u32 after the magic; a file from a future format must
  // fail cleanly even when its CRC is internally consistent.
  std::vector<char> bad = ReadAll(manifest_path_);
  bad[4] = 99;
  FixTrailingCrc(&bad);
  WriteAll(manifest_path_, bad);
  auto store = ShardedGraphStore::Open(dir_);
  EXPECT_FALSE(store.ok());
}

TEST_F(ShardCorruptionTest, UnsupportedShardVersionRejected) {
  std::vector<char> bad = ReadAll(shard_path_);
  bad[4] = 99;
  FixTrailingCrc(&bad);
  WriteAll(shard_path_, bad);
  EXPECT_TRUE(StoreRejected());
}

TEST_F(ShardCorruptionTest, MissingShardFileRejected) {
  fs::remove(shard_path_);
  EXPECT_TRUE(StoreRejected());
}

TEST_F(ShardCorruptionTest, TrailingGarbageRejected) {
  std::vector<char> bad = ReadAll(shard_path_);
  bad.push_back('\0');
  WriteAll(shard_path_, bad);
  EXPECT_TRUE(StoreRejected());
}

// -- SaveDataset / LoadDataset: a dataset on disk is a one-shard store --

void ExpectDatasetsEqual(const GraphDataset& a, const GraphDataset& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(a.num_classes(), b.num_classes());
  EXPECT_EQ(a.num_tasks(), b.num_tasks());
  for (int64_t i = 0; i < a.size(); ++i) {
    ExpectGraphsBitIdentical(a.graph(i), b.graph(i));
  }
}

// Saves a small MUTAG-like dataset at a fresh `name` directory.
std::string SavedMutag(const char* name, uint64_t seed) {
  SyntheticTuOptions opt;
  opt.graph_fraction = 0.03;
  opt.node_cap = 10;
  opt.seed = seed;
  const std::string dir = TempDir(name);
  EXPECT_TRUE(SaveDataset(MakeTuDataset(TuDataset::kMutag, opt), dir).ok());
  return dir;
}

// Writing a store over a larger one leaves exactly the new store's files.
TEST(DatasetIoTest, OverwritingAStoreRemovesStaleShards) {
  const std::string dir = TempDir("dataset_overwrite");
  WriteStore(MakeZincLikeDataset(20, /*seed=*/3), dir, /*graphs_per_shard=*/5);
  ASSERT_TRUE(fs::exists(ShardedGraphStore::ShardPath(dir, 3)));
  SyntheticTuOptions opt;
  opt.graph_fraction = 0.03;
  opt.node_cap = 10;
  const GraphDataset small = MakeTuDataset(TuDataset::kMutag, opt);
  ASSERT_TRUE(SaveDataset(small, dir).ok());
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files.push_back(entry.path().filename().string());
  }
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<std::string>{"manifest.sgsm",
                                             "shard-000000.sgshard"}));
  auto loaded = LoadDataset(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), small.size());
  fs::remove_all(dir);
}

TEST(DatasetIoTest, TuRoundTrip) {
  SyntheticTuOptions opt;
  opt.graph_fraction = 0.05;
  opt.node_cap = 15;
  opt.seed = 10;
  GraphDataset original = MakeTuDataset(TuDataset::kProteins, opt);
  ASSERT_FALSE(original.graph(0).semantic_mask().empty());
  const std::string dir = TempDir("dataset_proteins");
  ASSERT_TRUE(SaveDataset(original, dir).ok());
  auto store = ShardedGraphStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->num_shards(), 1);
  auto loaded = LoadDataset(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectDatasetsEqual(original, *loaded);
  fs::remove_all(dir);
}

TEST(DatasetIoTest, MultiTaskRoundTrip) {
  MolDatasetOptions opt;
  opt.graph_fraction = 0.02;
  opt.max_graphs = 70;
  opt.seed = 11;
  GraphDataset original = MakeMolTaskDataset(MolTask::kTox21, opt);
  ASSERT_GT(original.num_tasks(), 1);
  const std::string dir = TempDir("dataset_tox21");
  ASSERT_TRUE(SaveDataset(original, dir).ok());
  auto loaded = LoadDataset(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectDatasetsEqual(original, *loaded);
  fs::remove_all(dir);
}

TEST(DatasetIoTest, MissingFileIsNotFound) {
  auto result = LoadDataset(TempDir("dataset_missing"));
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

// The store decodes any well-formed record; LoadDataset is what checks
// a label against the manifest's class count.
TEST(DatasetIoTest, LabelOutsideManifestClassesIsOutOfRange) {
  const std::string dir = TempDir("dataset_bad_label");
  ShardWriterOptions opt;
  opt.num_classes = 2;
  auto writer = ShardedGraphStoreWriter::Create(dir, opt);
  ASSERT_TRUE(writer.ok());
  Graph g(3, 2);
  g.AddUndirectedEdge(0, 1);
  g.set_label(5);
  ASSERT_TRUE((*writer)->Append(g).ok());
  ASSERT_TRUE((*writer)->Finalize().ok());
  auto store = ShardedGraphStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->FetchAll().ok());
  EXPECT_EQ(LoadDataset(dir).status().code(), StatusCode::kOutOfRange);
  fs::remove_all(dir);
}

TEST(DatasetIoTest, GarbageFileRejected) {
  const std::string dir = TempDir("dataset_garbage");
  fs::create_directories(dir);
  WriteAll(ShardedGraphStore::ManifestPath(dir), {'n', 'o', 'p', 'e'});
  EXPECT_FALSE(LoadDataset(dir).ok());
  fs::remove_all(dir);
}

TEST(DatasetIoTest, TruncatedFileRejected) {
  const std::string dir = SavedMutag("dataset_trunc", 12);
  const std::string shard = ShardedGraphStore::ShardPath(dir, 0);
  fs::resize_file(shard, fs::file_size(shard) / 2);
  EXPECT_FALSE(LoadDataset(dir).ok());
  fs::remove_all(dir);
}

// Every cut of either file is an error status, never a crash or a
// smaller dataset.
TEST(DatasetIoTest, FuzzTruncationNeverCrashes) {
  const std::string dir = SavedMutag("dataset_fuzz_cut", 99);
  Rng rng(7);
  for (int trial = 0; trial < 25; ++trial) {
    const std::string path = trial % 2 == 0
                                 ? ShardedGraphStore::ShardPath(dir, 0)
                                 : ShardedGraphStore::ManifestPath(dir);
    const std::vector<char> full = ReadAll(path);
    const size_t cut = 1 + static_cast<size_t>(rng.UniformInt(
                               static_cast<int64_t>(full.size()) - 1));
    WriteAll(path, std::vector<char>(full.begin(), full.begin() + cut));
    EXPECT_FALSE(LoadDataset(dir).ok()) << path << " cut at " << cut;
    WriteAll(path, full);
  }
  EXPECT_TRUE(LoadDataset(dir).ok());
  fs::remove_all(dir);
}

// Every file carries a CRC, so any flipped byte is an error status.
TEST(DatasetIoTest, FuzzByteFlipsNeverCrash) {
  const std::string dir = SavedMutag("dataset_fuzz_flip", 100);
  Rng rng(8);
  for (int trial = 0; trial < 25; ++trial) {
    const std::string path = trial % 2 == 0
                                 ? ShardedGraphStore::ShardPath(dir, 0)
                                 : ShardedGraphStore::ManifestPath(dir);
    const std::vector<char> full = ReadAll(path);
    std::vector<char> bad = full;
    const size_t pos = static_cast<size_t>(
        rng.UniformInt(static_cast<int64_t>(full.size())));
    bad[pos] = static_cast<char>(bad[pos] ^ (1 + rng.UniformInt(255)));
    WriteAll(path, bad);
    EXPECT_FALSE(LoadDataset(dir).ok()) << path << " flipped at " << pos;
    WriteAll(path, full);
  }
  EXPECT_TRUE(LoadDataset(dir).ok());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace sgcl
