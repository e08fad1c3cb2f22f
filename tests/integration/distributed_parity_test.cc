// The tentpole acceptance test: multi-process data-parallel
// pretraining is bitwise-identical to --workers=1 for every worker
// count, over in-memory and sharded sources, and stays so when a
// worker is killed mid-epoch and elastically rejoins from its
// checkpoint.
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "comms/distributed_test_util.h"
#include "common/fault.h"
#include "core/sgcl_trainer.h"
#include "core/train_state.h"
#include "data/shard_store.h"
#include "data/synthetic_molecule.h"
#include "gtest/gtest.h"

namespace sgcl {
namespace {

using ::sgcl::testing::ClusterConfig;
using ::sgcl::testing::RunCluster;

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

GraphDataset ParityDataset() {
  return MakeZincLikeDataset(/*num_graphs=*/26, /*seed=*/33);
}

SgclConfig ParityConfig(int epochs = 3) {
  SgclConfig cfg = MakeUnsupervisedConfig(kMoleculeFeatDim);
  cfg.encoder.hidden_dim = 10;
  cfg.encoder.num_layers = 2;
  cfg.proj_dim = 10;
  cfg.batch_size = 4;  // 6 batches/epoch -> rounds of 4 + tail of 2
  cfg.epochs = epochs;
  return cfg;
}

ClusterConfig ParityCluster(int world) {
  ClusterConfig cc;
  cc.config = ParityConfig();
  cc.seed = 23;
  cc.world = world;
  cc.accum = 4;
  return cc;
}

// Per-epoch losses of an N-worker cluster, after asserting every rank
// reported the identical loss vector.
std::vector<float> ClusterLosses(const ClusterConfig& cc,
                                 const GraphSource& source) {
  const std::vector<PretrainStats> stats = RunCluster(cc, source);
  EXPECT_EQ(static_cast<int>(stats.size()), cc.world);
  for (size_t rank = 1; rank < stats.size(); ++rank) {
    EXPECT_EQ(stats[rank].epoch_losses, stats[0].epoch_losses)
        << "rank " << rank << " diverged from rank 0";
  }
  return stats.empty() ? std::vector<float>() : stats[0].epoch_losses;
}

TEST(DistributedParityTest, WorkerCountsAreBitwiseIdenticalInMemory) {
  GraphDataset ds = ParityDataset();
  const InMemorySource source(&ds);
  const std::vector<float> one = ClusterLosses(ParityCluster(1), source);
  ASSERT_EQ(one.size(), 3u);
  const std::vector<float> two = ClusterLosses(ParityCluster(2), source);
  const std::vector<float> four = ClusterLosses(ParityCluster(4), source);
  // Bitwise float equality — the whole point of the fixed-order
  // reduction.
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
}

// ParityDataset written as a multi-shard store (multiple blocks: the
// block-aware shuffle path).
std::unique_ptr<ShardedGraphStore> ParityStore(const GraphDataset& ds,
                                               const std::string& name) {
  const std::string dir = TempDir(name);
  ShardWriterOptions opt;
  opt.graphs_per_shard = 7;
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
  auto store = ShardedGraphStore::Open(dir);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  if (!store.ok()) return nullptr;
  EXPECT_GT((*store)->num_shards(), 1);
  return std::move(*store);
}

TEST(DistributedParityTest, WorkerCountsAreBitwiseIdenticalSharded) {
  GraphDataset ds = ParityDataset();
  const auto store = ParityStore(ds, "dist_parity_shards");
  ASSERT_NE(store, nullptr);

  const std::vector<float> one = ClusterLosses(ParityCluster(1), *store);
  ASSERT_EQ(one.size(), 3u);
  const std::vector<float> two = ClusterLosses(ParityCluster(2), *store);
  EXPECT_EQ(one, two);
}

// Plain Pretrain is the schedule's world-1, one-batch-per-round case: it
// must equal a world-1, grad_accum-1 cluster bit for bit.
TEST(DistributedParityTest, PlainLoopIsWorldOneAccumOne) {
  GraphDataset ds = ParityDataset();
  const InMemorySource memory(&ds);
  const auto store = ParityStore(ds, "dist_parity_plain_shards");
  ASSERT_NE(store, nullptr);
  ClusterConfig cc = ParityCluster(1);
  cc.accum = 1;
  for (const GraphSource* source :
       {static_cast<const GraphSource*>(&memory),
        static_cast<const GraphSource*>(store.get())}) {
    SgclTrainer plain(cc.config, cc.seed);
    auto plain_stats = plain.Pretrain(*source, {}, {});
    ASSERT_TRUE(plain_stats.ok()) << plain_stats.status().ToString();
    const std::vector<float> cluster = ClusterLosses(cc, *source);
    ASSERT_EQ(cluster.size(), 3u);
    EXPECT_EQ(plain_stats->epoch_losses, cluster);
  }
}

// Changing the worker count must not silently change the schedule:
// the single-process plain Pretrain loop (no accumulation) is a
// DIFFERENT training run. Guard against accidentally "proving" parity
// by comparing against it.
TEST(DistributedParityTest, DistributedScheduleDiffersFromPlainLoop) {
  GraphDataset ds = ParityDataset();
  const InMemorySource source(&ds);
  SgclTrainer plain(ParityConfig(), /*seed=*/23);
  auto plain_stats = plain.Pretrain(source, {}, {});
  ASSERT_TRUE(plain_stats.ok());
  const std::vector<float> one = ClusterLosses(ParityCluster(1), source);
  EXPECT_NE(plain_stats->epoch_losses, one)
      << "grad-accum rounds should not reproduce per-batch SGD";
}

// An epoch-boundary checkpoint has batch cursor 0, a multiple of every
// round size; the grad_accum it records is what refuses resuming it
// under another schedule, at grad_accum 2 or in plain Pretrain.
TEST(DistributedParityTest, ResumeRefusesAnotherRoundSize) {
  GraphDataset ds = ParityDataset();
  const InMemorySource source(&ds);
  ClusterConfig cc = ParityCluster(1);
  cc.ckpt_root = TempDir("dist_parity_round_size");
  ASSERT_EQ(ClusterLosses(cc, source).size(), 3u);
  const std::string ckpt =
      CheckpointFileName(::sgcl::testing::RankCheckpointDir(cc, 0), 1);
  auto state = LoadTrainCheckpoint(ckpt);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(state->batch_cursor, 0);
  EXPECT_EQ(state->grad_accum, 4u);

  // Refused before joining: nothing listens on port 1.
  ClusterConfig at_two = cc;
  at_two.accum = 2;
  at_two.ckpt_root.clear();
  at_two.timeout_ms = 500;
  auto distributed = ::sgcl::testing::RunWorkerOnce(
      at_two, source, /*rank=*/0, /*port=*/1, cc.seed, ckpt);
  EXPECT_EQ(distributed.status().code(), StatusCode::kInvalidArgument)
      << distributed.status().ToString();

  SgclTrainer plain(cc.config, cc.seed);
  PretrainOptions options;
  options.resume_from = ckpt;
  auto plain_stats = plain.Pretrain(source, {}, options);
  EXPECT_EQ(plain_stats.status().code(), StatusCode::kInvalidArgument)
      << plain_stats.status().ToString();
}

// A plain run's checkpoint records grad_accum 1, so a world-1,
// grad_accum-1 worker resumes it and continues the plain run bit for bit.
TEST(DistributedParityTest, PlainCheckpointResumesAtWorldOneAccumOne) {
  GraphDataset ds = ParityDataset();
  const InMemorySource source(&ds);
  ClusterConfig cc = ParityCluster(1);
  cc.accum = 1;
  const std::string plain_dir = TempDir("dist_parity_plain_ckpt");
  SgclTrainer plain(cc.config, cc.seed);
  PretrainOptions plain_options;
  plain_options.checkpoint_dir = plain_dir;
  auto reference = plain.Pretrain(source, {}, plain_options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  ::sgcl::testing::TestCoordinator coordinator(cc, source);
  {
    // A first worker reduces epoch 0's rounds, then dies saving its
    // epoch-end checkpoint, so the cluster waits at epoch 1's first round.
    ScopedFaultInjection faults;
    FaultInjector::Global().Arm("checkpoint/serialize", FaultKind::kCrash);
    ClusterConfig first = cc;
    first.ckpt_root = TempDir("dist_parity_plain_ckpt_first");
    EXPECT_FALSE(::sgcl::testing::RunWorkerOnce(first, source, /*rank=*/0,
                                                coordinator.port(), cc.seed,
                                                /*resume_from=*/"")
                     .ok());
  }
  ASSERT_EQ(coordinator.get().completed_rounds(),
            static_cast<uint64_t>(
                PretrainBatchesPerEpoch(ds.size(), cc.config.batch_size)));
  auto resumed = ::sgcl::testing::RunWorkerOnce(
      cc, source, /*rank=*/0, coordinator.port(), cc.seed + 1000,
      CheckpointFileName(plain_dir, 1));
  coordinator.Shutdown();
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->epoch_losses, reference->epoch_losses);
}

// Mid-run worker death: a worker crashes via an injected comms fault,
// restarts from its checkpoint (with a different ctor seed — the
// checkpointed train_seed must carry the stream), rejoins, and the
// final losses still match the undisturbed 1-worker run bitwise.
TEST(DistributedParityTest, KillAndRejoinKeepsBitwiseParity) {
  GraphDataset ds = ParityDataset();
  const InMemorySource source(&ds);
  const std::vector<float> baseline =
      ClusterLosses(ParityCluster(1), source);

  ClusterConfig cc = ParityCluster(2);
  cc.ckpt_root = TempDir("dist_parity_kill");
  cc.ckpt_every_batches = 4;  // checkpoint at every full round
  ScopedFaultInjection faults;
  // Fire deep enough into the run that checkpoints exist, so the
  // restart exercises resume + cache catch-up rather than a from-
  // scratch replay.
  FaultInjector::Global().Arm("comms/send", FaultKind::kCrash, /*nth=*/20);
  int restarts = 0;
  const std::vector<PretrainStats> stats =
      RunCluster(cc, source, &restarts);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_GE(restarts, 1) << "the armed crash never fired";
  EXPECT_GT(FaultInjector::Global().hits("comms/send"), 0);
  EXPECT_EQ(stats[0].epoch_losses, baseline);
  EXPECT_EQ(stats[1].epoch_losses, baseline);
}

}  // namespace
}  // namespace sgcl
