// End-to-end integration tests that walk the full paper pipeline:
// generate data -> pretrain -> checkpoint -> reload -> embed -> evaluate,
// and the transfer pipeline zinc-pretrain -> scaffold split -> fine-tune.
#include <cstdio>
#include <filesystem>

#include "baselines/registry.h"
#include "core/sgcl_trainer.h"
#include "data/shard_store.h"
#include "data/synthetic_molecule.h"
#include "data/synthetic_tu.h"
#include "eval/cross_validation.h"
#include "eval/finetune.h"
#include "graph/splits.h"
#include "gtest/gtest.h"
#include "nn/checkpoint.h"

namespace sgcl {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(PipelineTest, UnsupervisedEndToEndThroughDisk) {
  // 1. Generate and freeze a dataset.
  SyntheticTuOptions opt;
  opt.graph_fraction = 0.2;
  opt.node_cap = 15;
  opt.seed = 71;
  GraphDataset generated = MakeTuDataset(TuDataset::kMutag, opt);
  const std::string data_path = TempPath("pipeline_data");
  ASSERT_TRUE(SaveDataset(generated, data_path).ok());
  auto dataset = LoadDataset(data_path);
  ASSERT_TRUE(dataset.ok());

  // 2. Pretrain SGCL and checkpoint it.
  SgclConfig cfg = MakeUnsupervisedConfig(dataset->feat_dim());
  cfg.encoder.hidden_dim = 16;
  cfg.encoder.num_layers = 2;
  cfg.proj_dim = 16;
  cfg.epochs = 6;
  cfg.batch_size = 8;
  SgclTrainer trainer(cfg, 72);
  PretrainStats stats = trainer.Pretrain(*dataset).value();
  ASSERT_EQ(static_cast<int>(stats.epoch_losses.size()), cfg.epochs);
  const std::string ckpt_path = TempPath("pipeline_model.ckpt");
  ASSERT_TRUE(SaveCheckpoint(trainer.model(), ckpt_path).ok());

  // 3. Reload into a fresh model and evaluate embeddings with SVM CV.
  Rng rng(73);
  SgclModel restored(cfg, &rng);
  ASSERT_TRUE(LoadCheckpoint(ckpt_path, &restored).ok());
  std::vector<const Graph*> all;
  for (int64_t i = 0; i < dataset->size(); ++i) {
    all.push_back(&dataset->graph(i));
  }
  Tensor emb = restored.EmbedGraphs(all);
  MeanStd cv = SvmCrossValidate(emb.values(), emb.rows(), emb.cols(),
                                dataset->Labels().value(), dataset->num_classes(),
                                /*folds=*/5, &rng);
  // Pretrained embeddings on the planted-motif data must beat chance
  // clearly.
  EXPECT_GT(cv.mean, 0.6);
  // And must match the original (non-restored) model exactly.
  Tensor emb_orig = trainer.model().EmbedGraphs(all);
  for (int64_t i = 0; i < emb.numel(); ++i) {
    EXPECT_FLOAT_EQ(emb.data()[i], emb_orig.data()[i]);
  }
  std::filesystem::remove_all(data_path);
  std::remove(ckpt_path.c_str());
}

TEST(PipelineTest, TransferEndToEnd) {
  GraphDataset zinc = MakeZincLikeDataset(60, 81);
  MolDatasetOptions mopt;
  mopt.graph_fraction = 0.05;
  mopt.max_graphs = 120;
  mopt.seed = 82;
  GraphDataset bbbp = MakeMolTaskDataset(MolTask::kBbbp, mopt);

  SgclConfig cfg = MakeTransferConfig(kMoleculeFeatDim, /*hidden_dim=*/16);
  cfg.encoder.num_layers = 2;
  cfg.epochs = 3;
  cfg.batch_size = 16;
  SgclTrainer trainer(cfg, 83);
  ASSERT_TRUE(trainer.Pretrain(zinc).ok());

  ThreeWaySplit split = ScaffoldSplit(bbbp, 0.7, 0.1);
  FinetuneConfig ft;
  ft.epochs = 8;
  Rng rng(84);
  const double auc = FinetuneAndEvalRocAuc(
      trainer.model().mutable_encoder_k(), bbbp, split.train, split.test, ft,
      &rng);
  EXPECT_GE(auc, 0.0);
  EXPECT_LE(auc, 1.0);
}

TEST(PipelineTest, RegistryDrivenComparison) {
  // A miniature of the Table III harness: two registry-built methods run
  // the same protocol and produce comparable finite numbers.
  SyntheticTuOptions opt;
  opt.graph_fraction = 0.1;
  opt.node_cap = 12;
  opt.seed = 91;
  GraphDataset ds = MakeTuDataset(TuDataset::kProteins, opt);
  BaselineConfig bcfg;
  bcfg.encoder.arch = GnnArch::kGin;
  bcfg.encoder.in_dim = ds.feat_dim();
  bcfg.encoder.hidden_dim = 16;
  bcfg.encoder.num_layers = 2;
  bcfg.epochs = 3;
  bcfg.batch_size = 8;
  SgclConfig scfg = MakeUnsupervisedConfig(ds.feat_dim());
  scfg.encoder.hidden_dim = 16;
  scfg.encoder.num_layers = 2;
  scfg.proj_dim = 16;
  scfg.epochs = 3;
  scfg.batch_size = 8;
  for (const std::string name : {"SGCL", "GraphCL"}) {
    auto method = MakePretrainer(name, bcfg, scfg, 92);
    ASSERT_TRUE(method.ok());
    (*method)->Pretrain(ds, {});
    std::vector<const Graph*> all;
    for (int64_t i = 0; i < ds.size(); ++i) all.push_back(&ds.graph(i));
    Tensor emb = (*method)->EmbedGraphs(all);
    Rng rng(93);
    MeanStd cv = SvmCrossValidate(emb.values(), emb.rows(), emb.cols(),
                                  ds.Labels().value(), ds.num_classes(), 3, &rng);
    EXPECT_GT(cv.mean, 0.4) << name;
    EXPECT_LE(cv.mean, 1.0) << name;
  }
}

}  // namespace
}  // namespace sgcl
