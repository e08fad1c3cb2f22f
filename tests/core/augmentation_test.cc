#include "core/augmentation.h"

#include <numeric>

#include "gtest/gtest.h"
#include "test_util.h"

namespace sgcl {
namespace {

TEST(BinarizeLipschitzTest, MeanThreshold) {
  std::vector<uint8_t> c = BinarizeLipschitz({1.0f, 2.0f, 3.0f, 10.0f});
  // Mean = 4: only the 10.0 node is >= mean.
  EXPECT_EQ(c, (std::vector<uint8_t>{0, 0, 0, 1}));
}

TEST(BinarizeLipschitzTest, UniformConstantsAllSemantic) {
  std::vector<uint8_t> c = BinarizeLipschitz({2.0f, 2.0f, 2.0f});
  EXPECT_EQ(c, (std::vector<uint8_t>{1, 1, 1}));
}

TEST(AugmentationPlanTest, LipschitzModeNeverDropsSemanticNodes) {
  Rng rng(1);
  // Nodes 3, 4 are clearly semantic (large K).
  std::vector<float> k = {0.1f, 0.2f, 0.15f, 5.0f, 6.0f};
  std::vector<float> keep = {0.5f, 0.5f, 0.5f, 0.5f, 0.5f};
  for (int trial = 0; trial < 30; ++trial) {
    AugmentationPlan plan = BuildAugmentationPlan(
        k, keep, AugmentationMode::kLipschitz, 0.9, &rng);
    EXPECT_EQ(plan.keep_sample[3], 1);
    EXPECT_EQ(plan.keep_sample[4], 1);
    EXPECT_EQ(plan.binary_semantic[3], 1);
    EXPECT_EQ(plan.binary_semantic[0], 0);
    // Preservation prob is 1 for semantic, learned for unrelated (Eq. 18).
    EXPECT_FLOAT_EQ(plan.preserve_prob[3], 1.0f);
    EXPECT_FLOAT_EQ(plan.preserve_prob[0], 0.5f);
  }
}

TEST(AugmentationPlanTest, RhoControlsEligibleDropCount) {
  Rng rng(2);
  std::vector<float> k = {0.1f, 0.2f, 0.15f, 0.12f, 5.0f, 6.0f};
  std::vector<float> keep(6, 0.5f);
  AugmentationPlan plan = BuildAugmentationPlan(
      k, keep, AugmentationMode::kLipschitz, 0.5, &rng);
  // (1 - rho)|V| = 3 nodes dropped, all from the 4 unrelated ones.
  int dropped = 0;
  for (int v = 0; v < 4; ++v) dropped += (plan.keep_sample[v] == 0);
  EXPECT_EQ(dropped, 3);
  // Complement: 2 related nodes, rho = 0.5 -> 1 dropped among {4, 5}.
  int dropped_rel = (plan.keep_complement[4] == 0) +
                    (plan.keep_complement[5] == 0);
  EXPECT_EQ(dropped_rel, 1);
  // Unrelated nodes are kept in the complement view.
  for (int v = 0; v < 4; ++v) EXPECT_EQ(plan.keep_complement[v], 1);
}

TEST(AugmentationPlanTest, DropWeightsFollowInversePreservation) {
  // A node with tiny learned keep probability should be dropped far more
  // often than one with a large probability.
  std::vector<float> k = {0.1f, 0.1f, 0.1f, 9.0f};  // node 3 semantic
  std::vector<float> keep = {0.05f, 0.95f, 0.95f, 0.5f};
  Rng rng(3);
  int node0_dropped = 0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    AugmentationPlan plan = BuildAugmentationPlan(
        k, keep, AugmentationMode::kLipschitz, 0.75, &rng);  // drop 1 node
    node0_dropped += (plan.keep_sample[0] == 0);
  }
  EXPECT_GT(node0_dropped, trials / 2);
}

TEST(AugmentationPlanTest, RandomModeDropsUniformly) {
  Rng rng(4);
  std::vector<float> keep(10, 0.5f);
  AugmentationPlan plan = BuildAugmentationPlan(
      {}, keep, AugmentationMode::kRandom, 0.9, &rng);
  int kept = std::accumulate(plan.keep_sample.begin(), plan.keep_sample.end(),
                             0);
  EXPECT_EQ(kept, 9);  // (1 - rho) of all nodes dropped
  // Binary constants are untouched in random mode.
  for (uint8_t c : plan.binary_semantic) EXPECT_EQ(c, 1);
}

TEST(AugmentationPlanTest, LearnableOnlyModeIgnoresLipschitz) {
  Rng rng(5);
  std::vector<float> k = {100.0f, 100.0f, 0.1f, 0.1f};
  std::vector<float> keep = {0.9f, 0.9f, 0.9f, 0.9f};
  AugmentationPlan plan = BuildAugmentationPlan(
      k, keep, AugmentationMode::kLearnableOnly, 0.5, &rng);
  // Without binarization every node is eligible: 2 of 4 dropped.
  int kept = std::accumulate(plan.keep_sample.begin(), plan.keep_sample.end(),
                             0);
  EXPECT_EQ(kept, 2);
  for (uint8_t c : plan.binary_semantic) EXPECT_EQ(c, 0);
}

TEST(MaskBatchTest, ZeroesFeaturesAndFiltersEdges) {
  Graph a = testing::PathGraph3(2);
  GraphBatch batch = GraphBatch::FromGraphPtrs({&a});
  GraphBatch masked = MaskBatch(batch, {1, 0, 1});
  EXPECT_EQ(masked.num_nodes, 3);  // node count preserved
  // Node 1's features zeroed.
  EXPECT_FLOAT_EQ(masked.features.At(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(masked.features.At(1, 1), 0.0f);
  // Node 0's features intact.
  EXPECT_FLOAT_EQ(masked.features.At(0, 0), a.feature(0, 0));
  // All edges touched node 1 in a path graph -> none remain.
  EXPECT_TRUE(masked.edge_src.empty());
}

TEST(MaskBatchTest, KeepAllIsIdentity) {
  Graph a = testing::HouseGraph(2);
  GraphBatch batch = GraphBatch::FromGraphPtrs({&a});
  GraphBatch masked = MaskBatch(batch, std::vector<uint8_t>(5, 1));
  EXPECT_EQ(masked.edge_src, batch.edge_src);
  EXPECT_EQ(masked.features.values(), batch.features.values());
}

}  // namespace
}  // namespace sgcl
