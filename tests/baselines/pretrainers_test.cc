// Smoke + behavior tests for every baseline pretrainer: losses are
// finite, decrease over a short run, embeddings come out frozen and the
// encoder is exposed for fine-tuning.
#include <cmath>
#include <vector>

#include "baselines/adgcl.h"
#include "baselines/attr_masking.h"
#include "baselines/context_pred.h"
#include "baselines/gae.h"
#include "baselines/graphcl.h"
#include "baselines/infograph.h"
#include "baselines/joao.h"
#include "baselines/simgrace.h"
#include "baselines/view_generator.h"
#include "data/synthetic_tu.h"
#include "gtest/gtest.h"

namespace sgcl {
namespace {

GraphDataset SmallDataset() {
  SyntheticTuOptions opt;
  opt.graph_fraction = 0.05;
  opt.node_cap = 15;
  opt.seed = 101;
  return MakeTuDataset(TuDataset::kMutag, opt);
}

BaselineConfig SmallConfig(const GraphDataset& ds) {
  BaselineConfig cfg;
  cfg.encoder.arch = GnnArch::kGin;
  cfg.encoder.in_dim = ds.feat_dim();
  cfg.encoder.hidden_dim = 16;
  cfg.encoder.num_layers = 2;
  cfg.batch_size = 8;
  cfg.epochs = 4;
  cfg.seed = 5;
  return cfg;
}

void CheckPretrainer(Pretrainer* method, const GraphDataset& ds) {
  PretrainStats stats = method->Pretrain(ds, {});
  ASSERT_FALSE(stats.epoch_losses.empty()) << method->name();
  for (float l : stats.epoch_losses) {
    EXPECT_TRUE(std::isfinite(l)) << method->name();
  }
  std::vector<const Graph*> some = {&ds.graph(0), &ds.graph(1),
                                    &ds.graph(2)};
  Tensor emb = method->EmbedGraphs(some);
  EXPECT_EQ(emb.rows(), 3);
  EXPECT_EQ(emb.cols(), 16);
  EXPECT_FALSE(emb.requires_grad());
  for (float v : emb.values()) EXPECT_TRUE(std::isfinite(v));
  EXPECT_NE(method->mutable_encoder(), nullptr);
}

TEST(PretrainersTest, GraphCl) {
  GraphDataset ds = SmallDataset();
  GraphClBaseline method(SmallConfig(ds));
  EXPECT_EQ(method.name(), "GraphCL");
  CheckPretrainer(&method, ds);
}

TEST(PretrainersTest, Joao) {
  GraphDataset ds = SmallDataset();
  JoaoBaseline method(SmallConfig(ds));
  EXPECT_EQ(method.name(), "JOAOv2");
  CheckPretrainer(&method, ds);
  // The augmentation distribution was updated away from all-equal.
  const auto& w = method.aug_weights();
  bool any_diff = false;
  for (double x : w) {
    if (std::fabs(x - w[0]) > 1e-12) any_diff = true;
  }
  // After epochs with differing losses this is overwhelmingly likely;
  // equal weights would mean OnEpochEnd never ran.
  EXPECT_TRUE(any_diff || w[0] != 1.0);
}

TEST(PretrainersTest, SimGrace) {
  GraphDataset ds = SmallDataset();
  SimGraceBaseline method(SmallConfig(ds));
  CheckPretrainer(&method, ds);
}

TEST(PretrainersTest, AdGcl) {
  GraphDataset ds = SmallDataset();
  AdGclBaseline method(SmallConfig(ds));
  CheckPretrainer(&method, ds);
}

TEST(PretrainersTest, InfoGraph) {
  GraphDataset ds = SmallDataset();
  InfoGraphBaseline method(SmallConfig(ds));
  CheckPretrainer(&method, ds);
}

TEST(PretrainersTest, AutoGcl) {
  GraphDataset ds = SmallDataset();
  LearnableViewBaseline method(SmallConfig(ds), ViewGenVariant::kAutoGcl);
  EXPECT_EQ(method.name(), "AutoGCL");
  CheckPretrainer(&method, ds);
}

TEST(PretrainersTest, Rgcl) {
  GraphDataset ds = SmallDataset();
  LearnableViewBaseline method(SmallConfig(ds), ViewGenVariant::kRgcl);
  EXPECT_EQ(method.name(), "RGCL");
  CheckPretrainer(&method, ds);
  // Keep probabilities are proper probabilities.
  std::vector<float> p = method.NodeKeepProbs(ds.graph(0));
  ASSERT_EQ(static_cast<int64_t>(p.size()), ds.graph(0).num_nodes());
  for (float v : p) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(PretrainersTest, AttrMasking) {
  GraphDataset ds = SmallDataset();
  AttrMaskingBaseline method(SmallConfig(ds));
  CheckPretrainer(&method, ds);
}

TEST(PretrainersTest, ContextPred) {
  GraphDataset ds = SmallDataset();
  ContextPredBaseline method(SmallConfig(ds));
  CheckPretrainer(&method, ds);
}

TEST(PretrainersTest, Gae) {
  GraphDataset ds = SmallDataset();
  GaeBaseline method(SmallConfig(ds));
  CheckPretrainer(&method, ds);
}

TEST(PretrainersTest, NoPretrainEmbedsWithoutTraining) {
  GraphDataset ds = SmallDataset();
  NoPretrain method(SmallConfig(ds), 3);
  PretrainStats stats = method.Pretrain(ds, {});
  EXPECT_TRUE(stats.epoch_losses.empty());
  Tensor emb = method.EmbedGraphs({&ds.graph(0), &ds.graph(1)});
  EXPECT_EQ(emb.rows(), 2);
}

// Baselines train through the shared round loop, so their stats carry
// per-epoch wall times and the batch count like SGCL's.
TEST(PretrainersTest, StatsTimeEveryEpochAndCountBatches) {
  GraphDataset ds = SmallDataset();
  const BaselineConfig cfg = SmallConfig(ds);
  GraphClBaseline graphcl(cfg);
  JoaoBaseline joao(cfg);
  for (Pretrainer* method : std::vector<Pretrainer*>{&graphcl, &joao}) {
    const PretrainStats stats = method->Pretrain(ds, {});
    ASSERT_EQ(stats.epoch_losses.size(), static_cast<size_t>(cfg.epochs))
        << method->name();
    EXPECT_EQ(stats.epoch_seconds.size(), static_cast<size_t>(cfg.epochs))
        << method->name();
    EXPECT_EQ(stats.total_batches,
              cfg.epochs * PretrainBatchesPerEpoch(ds.size(), cfg.batch_size))
        << method->name();
    EXPECT_GT(stats.total_batches, 0) << method->name();
  }
}

TEST(PretrainersTest, TrainingReducesLoss) {
  // GraphCL over more epochs: late loss should not exceed early loss by
  // much (contrastive losses are noisy but trend down).
  GraphDataset ds = SmallDataset();
  BaselineConfig cfg = SmallConfig(ds);
  cfg.epochs = 10;
  GraphClBaseline method(cfg);
  PretrainStats stats = method.Pretrain(ds, {});
  const float early = stats.epoch_losses[0];
  const float late = stats.epoch_losses.back();
  EXPECT_LT(late, early + 0.1f);
}

}  // namespace
}  // namespace sgcl
