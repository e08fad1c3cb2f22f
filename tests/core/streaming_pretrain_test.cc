// Streaming pretraining over ShardedGraphStore: loss parity with the
// in-memory path, determinism across prefetch depths, and bitwise
// kill-and-resume across shard/batch boundaries.
#include <filesystem>
#include <vector>

#include "core/sgcl_trainer.h"
#include "core/train_state.h"
#include "data/shard_store.h"
#include "data/synthetic_molecule.h"
#include "gtest/gtest.h"

namespace sgcl {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  fs::remove_all(dir);
  return dir;
}

GraphDataset StreamDataset(int num_graphs = 24) {
  return MakeZincLikeDataset(num_graphs, /*seed=*/17);
}

std::string WriteStoreFor(const GraphDataset& ds, const char* name,
                          int64_t graphs_per_shard) {
  const std::string dir = TempDir(name);
  ShardWriterOptions opt;
  opt.graphs_per_shard = graphs_per_shard;
  opt.name = ds.name();
  opt.num_classes = ds.num_classes();
  EXPECT_TRUE([&]() -> Status {
    SGCL_ASSIGN_OR_RETURN(auto writer,
                          ShardedGraphStoreWriter::Create(dir, opt));
    for (int64_t i = 0; i < ds.size(); ++i) {
      SGCL_RETURN_NOT_OK(writer->Append(ds.graph(i)));
    }
    return writer->Finalize();
  }()
                  .ok());
  return dir;
}

SgclConfig StreamConfig(int epochs = 2) {
  SgclConfig cfg = MakeUnsupervisedConfig(kMoleculeFeatDim);
  cfg.encoder.hidden_dim = 12;
  cfg.encoder.num_layers = 2;
  cfg.proj_dim = 12;
  cfg.batch_size = 6;
  cfg.epochs = epochs;
  return cfg;
}

// A single-shard store has one fetch block, so the trainer's shuffle is
// the plain global shuffle — losses must match the in-memory path bit
// for bit.
TEST(StreamingPretrainTest, SingleShardMatchesInMemoryBitwise) {
  GraphDataset ds = StreamDataset();
  const std::string dir =
      WriteStoreFor(ds, "stream_single", /*graphs_per_shard=*/1000);
  auto store = ShardedGraphStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_EQ((*store)->num_shards(), 1);

  SgclTrainer mem_trainer(StreamConfig(), /*seed=*/5);
  auto mem_stats = mem_trainer.Pretrain(ds);
  ASSERT_TRUE(mem_stats.ok());

  SgclTrainer disk_trainer(StreamConfig(), /*seed=*/5);
  auto disk_stats = disk_trainer.Pretrain(**store);
  ASSERT_TRUE(disk_stats.ok());

  ASSERT_EQ(mem_stats->epoch_losses.size(), disk_stats->epoch_losses.size());
  for (size_t e = 0; e < mem_stats->epoch_losses.size(); ++e) {
    EXPECT_EQ(mem_stats->epoch_losses[e], disk_stats->epoch_losses[e])
        << "epoch " << e;
  }
  fs::remove_all(dir);
}

// Multi-shard runs are deterministic, and the prefetch depth only moves
// when decode happens — never what is computed.
TEST(StreamingPretrainTest, MultiShardDeterministicAcrossPrefetchDepths) {
  GraphDataset ds = StreamDataset();
  const std::string dir =
      WriteStoreFor(ds, "stream_multi", /*graphs_per_shard=*/7);
  auto store = ShardedGraphStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_GT((*store)->num_shards(), 1);

  std::vector<std::vector<float>> runs;
  for (int depth : {1, 2, 4}) {
    SgclTrainer trainer(StreamConfig(), /*seed=*/9);
    PretrainOptions options;
    options.prefetch_depth = depth;
    auto stats = trainer.Pretrain(**store, {}, options);
    ASSERT_TRUE(stats.ok());
    runs.push_back(stats->epoch_losses);
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
  fs::remove_all(dir);
}

// Kill mid-epoch (between shard-sized batches) and resume from the
// mid-epoch checkpoint: the stitched run's losses must equal the
// uninterrupted run's, bitwise.
TEST(StreamingPretrainTest, MidEpochKillResumeBitwise) {
  GraphDataset ds = StreamDataset(30);
  const std::string dir =
      WriteStoreFor(ds, "stream_resume", /*graphs_per_shard=*/8);
  auto store = ShardedGraphStore::Open(dir);
  ASSERT_TRUE(store.ok());
  const std::string ckpt_dir = TempDir("stream_resume_ckpt");

  // Reference: uninterrupted run.
  SgclTrainer ref_trainer(StreamConfig(/*epochs=*/3), /*seed=*/13);
  auto ref_stats = ref_trainer.Pretrain(**store);
  ASSERT_TRUE(ref_stats.ok());

  // Interrupted run: checkpoint every 2 batches, cancel mid-epoch-1
  // after 7 batches total (epoch 0 has 5 batches of 6 graphs).
  {
    SgclTrainer trainer(StreamConfig(/*epochs=*/3), /*seed=*/13);
    PretrainOptions options;
    options.checkpoint_dir = ckpt_dir;
    options.checkpoint_every_batches = 2;
    // should_cancel is polled once before each batch, so the 8th poll
    // (after 7 completed batches) stops the run.
    int polls = 0;
    options.should_cancel = [&polls] { return ++polls > 7; };
    auto stats = trainer.Pretrain(**store, {}, options);
    ASSERT_TRUE(stats.ok());
    EXPECT_TRUE(stats->cancelled);
  }

  // Resume from the newest checkpoint (a mid-epoch one).
  const auto latest = FindLatestCheckpoint(ckpt_dir);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_NE(latest->find("-b"), std::string::npos)
      << "expected a mid-epoch checkpoint, got " << *latest;
  SgclTrainer resumed_trainer(StreamConfig(/*epochs=*/3), /*seed=*/999);
  PretrainOptions resume_options;
  resume_options.resume_from = *latest;
  auto resumed = resumed_trainer.Pretrain(**store, {}, resume_options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

  ASSERT_EQ(resumed->epoch_losses.size(), ref_stats->epoch_losses.size());
  for (size_t e = 0; e < ref_stats->epoch_losses.size(); ++e) {
    EXPECT_EQ(ref_stats->epoch_losses[e], resumed->epoch_losses[e])
        << "epoch " << e;
  }
  EXPECT_EQ(resumed->total_batches, ref_stats->total_batches);
  fs::remove_all(dir);
  fs::remove_all(ckpt_dir);
}

// End-of-epoch checkpoints now record the source fingerprint: resuming
// against different data is refused.
TEST(StreamingPretrainTest, ResumeRejectsDifferentSource) {
  GraphDataset ds = StreamDataset();
  const std::string dir =
      WriteStoreFor(ds, "stream_fp_guard", /*graphs_per_shard=*/8);
  auto store = ShardedGraphStore::Open(dir);
  ASSERT_TRUE(store.ok());
  const std::string ckpt_dir = TempDir("stream_fp_guard_ckpt");

  {
    SgclTrainer trainer(StreamConfig(), /*seed=*/3);
    PretrainOptions options;
    options.checkpoint_dir = ckpt_dir;
    auto stats = trainer.Pretrain(**store, {}, options);
    ASSERT_TRUE(stats.ok());
  }
  const auto latest = FindLatestCheckpoint(ckpt_dir);
  ASSERT_TRUE(latest.ok());

  GraphDataset other = MakeZincLikeDataset(24, /*seed=*/555);
  SgclTrainer trainer(StreamConfig(), /*seed=*/3);
  PretrainOptions options;
  options.resume_from = *latest;
  auto stats = trainer.Pretrain(other, {}, options);
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
  fs::remove_all(dir);
  fs::remove_all(ckpt_dir);
}

// Every batch goes through the pipeline, so it needs a batch in flight.
TEST(StreamingPretrainTest, RejectsPrefetchDepthBelowOne) {
  GraphDataset ds = StreamDataset();
  SgclTrainer trainer(StreamConfig(), /*seed=*/1);
  PretrainOptions options;
  options.prefetch_depth = 0;
  auto stats = trainer.Pretrain(ds, {}, options);
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(stats.status().message().find("prefetch_depth"),
            std::string::npos)
      << stats.status().ToString();
}

TEST(StreamingPretrainTest, RejectsBatchCheckpointingWithoutDir) {
  GraphDataset ds = StreamDataset();
  SgclTrainer trainer(StreamConfig(), /*seed=*/1);
  PretrainOptions options;
  options.checkpoint_every_batches = 2;
  auto stats = trainer.Pretrain(ds, {}, options);
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace sgcl
