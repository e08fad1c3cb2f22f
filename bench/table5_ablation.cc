// Reproduces paper Table V: ablation study of SGCL on four transfer
// tasks (BBBP, TOX21, TOXCAST, SIDER). Variants:
//   SGCL w/o VG   — random node dropping instead of the view generator
//   SGCL w/o LGA  — learnable view generator without Lipschitz constants
//   SGCL w/o SRL  — no Lipschitz-weighted anchor pooling (Eq. 21)
//   SGCL w/o Lc   — no complement loss (lambda_c = 0)
//   SGCL w/o LW   — no weight regularizer (lambda_W = 0)
//   SGCL (full)
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "eval/finetune.h"
#include "eval/metrics.h"
#include "eval/table.h"
#include "graph/splits.h"

using namespace sgcl;
using namespace sgcl::bench;

namespace {

SgclConfig VariantConfig(const std::string& variant, int64_t feat_dim,
                         const BenchScale& scale) {
  SgclConfig cfg = ScaledSgclConfig(feat_dim, scale);
  if (variant == "SGCL w/o VG") {
    cfg.augmentation = AugmentationMode::kRandom;
  } else if (variant == "SGCL w/o LGA") {
    cfg.augmentation = AugmentationMode::kLearnableOnly;
  } else if (variant == "SGCL w/o SRL") {
    cfg.semantic_pooling = false;
  } else if (variant == "SGCL w/o Lc") {
    cfg.lambda_c = 0.0f;
  } else if (variant == "SGCL w/o LW") {
    cfg.lambda_w = 0.0f;
  }
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  const std::vector<std::string> variants = {
      "SGCL w/o VG", "SGCL w/o LGA", "SGCL w/o SRL",
      "SGCL w/o Lc", "SGCL w/o LW",  "SGCL"};
  std::string only;
  BenchScale scale = ParseArgs(argc, argv, variants, &only);

  const std::vector<MolTask> tasks = {MolTask::kBbbp, MolTask::kTox21,
                                      MolTask::kToxcast, MolTask::kSider};
  std::vector<std::string> task_names;
  std::vector<GraphDataset> downstream;
  for (size_t t = 0; t < tasks.size(); ++t) {
    downstream.push_back(MakeMol(tasks[t], scale, /*seed=*/500 + t));
    task_names.push_back(downstream.back().name());
  }
  GraphDataset zinc = MakeZincLikeDataset(scale.zinc_graphs, /*seed=*/321);

  ResultTable table(task_names);
  Stopwatch total;
  FinetuneConfig ft;
  ft.epochs = scale.finetune_epochs;
  ft.batch_size = scale.batch_size;

  for (const std::string& variant : variants) {
    if (!Selected(variant, only)) continue;
    std::vector<std::vector<double>> per_task(tasks.size());
    for (int s = 0; s < scale.seeds; ++s) {
      const uint64_t seed = 2000ULL * (s + 1);
      SgclTrainer trainer(VariantConfig(variant, kMoleculeFeatDim, scale),
                          seed);
      const auto pretrain = trainer.Pretrain(zinc);
      SGCL_CHECK(pretrain.ok());
      const GnnEncoder& pretrained = trainer.model().encoder_k();
      for (size_t t = 0; t < tasks.size(); ++t) {
        Rng rng(seed + 31 * t);
        GnnEncoder encoder(pretrained.config(), &rng);
        encoder.CopyParametersFrom(pretrained);
        ThreeWaySplit split = ScaffoldSplit(downstream[t], 0.7, 0.1);
        per_task[t].push_back(FinetuneAndEvalRocAuc(
            &encoder, downstream[t], split.train, split.test, ft, &rng));
      }
      std::fprintf(stderr, "[%6.1fs] %s seed %d done\n",
                   total.ElapsedSeconds(), variant.c_str(), s);
    }
    std::vector<std::optional<MeanStd>> row(task_names.size());
    for (size_t t = 0; t < tasks.size(); ++t) {
      MeanStd auc = ComputeMeanStd(per_task[t]);
      row[t] = MeanStd{100.0 * auc.mean, 100.0 * auc.std};
    }
    table.AddRow(variant, std::move(row));
  }

  std::printf(
      "Table V — SGCL ablation ROC-AUC (%%) on transfer tasks "
      "[mode=%s, seeds=%d]\n\n%s\n",
      scale.paper ? "paper" : "ci", scale.seeds,
      table.ToString(/*with_ranks=*/false).c_str());
  std::printf("total time: %.1fs\n", total.ElapsedSeconds());
  return 0;
}
