// Pins the persisted hash values. Checkpoints carry ConfigFingerprint,
// resume and streaming runs compare GraphSource::ContentFingerprint, and
// the WL kernel's feature ids are FNV hashes: a refactor that moves any
// of these values silently orphans every checkpoint and shard store
// written before it. The expected values were computed by the code that
// wrote those files; a failure here means a format change, not a bug in
// the test.
#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "baselines/graph_kernels.h"
#include "core/sgcl_config.h"
#include "core/train_state.h"
#include "data/shard_store.h"
#include "graph/graph_source.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace sgcl {
namespace {

// Three small fixed graphs with distinct shapes and labels.
GraphDataset FixedDataset() {
  GraphDataset ds("pinned", /*num_classes=*/2);
  ds.Add(testing::HouseGraph(3));
  ds.Add(testing::PathGraph3(3));
  Graph loop(2, 3);
  loop.AddUndirectedEdge(0, 1);
  loop.AddUndirectedEdge(1, 1);
  loop.set_feature(0, 2, 1.0f);
  loop.set_label(1);
  ds.Add(std::move(loop));
  return ds;
}

TEST(HashPinTest, ConfigFingerprints) {
  EXPECT_EQ(ConfigFingerprint(MakeUnsupervisedConfig(7)),
            0x1dd839c024d126ddULL);
  EXPECT_EQ(ConfigFingerprint(MakeTransferConfig(9)), 0x817231b3b0cb91fdULL);
}

TEST(HashPinTest, InMemorySourceFingerprint) {
  EXPECT_EQ(InMemorySource::Fingerprint(FixedDataset()),
            0xd6ba8477479552c0ULL);
}

TEST(HashPinTest, ShardStoreContentFingerprint) {
  const GraphDataset ds = FixedDataset();
  const std::string dir =
      std::string(::testing::TempDir()) + "/hash_pin_store";
  std::filesystem::remove_all(dir);
  ShardWriterOptions opt;
  opt.graphs_per_shard = 2;  // two shards: {house, path}, {loop}
  opt.name = ds.name();
  opt.num_classes = ds.num_classes();
  auto writer = ShardedGraphStoreWriter::Create(dir, opt);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  for (int64_t i = 0; i < ds.size(); ++i) {
    ASSERT_TRUE((*writer)->Append(ds.graph(i)).ok());
  }
  ASSERT_TRUE((*writer)->Finalize().ok());
  ASSERT_EQ((*writer)->shards_written(), 2);
  auto store = ShardedGraphStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->ContentFingerprint(), 0xdc3773197f13d7cbULL);
  std::filesystem::remove_all(dir);
}

TEST(HashPinTest, WlFeatureIds) {
  const GraphKernel wl(KernelKind::kWlSubtree);
  const auto features = wl.WlFeatureMap(testing::HouseGraph(3));
  std::vector<std::pair<int64_t, double>> sorted(features.begin(),
                                                 features.end());
  std::sort(sorted.begin(), sorted.end());
  // Every node starts with label 2 (the argmax feature column); each of
  // the three iterations then hashes five (iteration, label, sorted
  // neighbour labels) signatures.
  const std::vector<std::pair<int64_t, double>> want = {
      {2, 5.0},
      {0x15cbada8487c4d6a, 1.0},
      {0x191984924c8e102a, 2.0},
      {0x1e25ebb8dc4edd8f, 2.0},
      {0x3fa3461659880a24, 2.0},
      {0x69350d8e4f98367c, 1.0},
      {0x6bbf3e9c6bb4e81b, 2.0},
      {0x7472128b151ceda6, 3.0},
      {0x7d49185a8c5d2e20, 2.0},
  };
  EXPECT_EQ(sorted, want);
}

}  // namespace
}  // namespace sgcl
