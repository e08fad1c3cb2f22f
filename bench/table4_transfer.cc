// Reproduces paper Table IV: transfer learning ROC-AUC (%) on the eight
// MoleculeNet-like downstream tasks. Each method pretrains on the
// ZINC-like corpus, then its encoder is fine-tuned per task with a
// scaffold split.
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "eval/evaluator.h"
#include "eval/finetune.h"
#include "eval/table.h"
#include "graph/splits.h"

using namespace sgcl;
using namespace sgcl::bench;

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  const std::vector<std::string> methods = TransferMethodNames();
  std::string only;
  BenchScale scale = ParseArgs(argc, argv, methods, &only);

  const std::vector<MolTask> tasks = AllMolTasks();
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

  for (const std::string& method : methods) {
    if (!Selected(method, only)) continue;
    std::vector<std::vector<double>> per_task(tasks.size());
    for (int s = 0; s < scale.seeds; ++s) {
      const uint64_t seed = 1000ULL * (s + 1);
      // Pretrain once per (method, seed); each task fine-tunes a fresh
      // copy of the pretrained encoder.
      std::unique_ptr<Pretrainer> pre =
          MakeMethod(method, kMoleculeFeatDim, scale, seed);
      pre->Pretrain(zinc, {});
      const GnnEncoder& pretrained = *pre->mutable_encoder();
      for (size_t t = 0; t < tasks.size(); ++t) {
        Rng rng(seed + 5 + 17 * t);
        GnnEncoder encoder(pretrained.config(), &rng);
        encoder.CopyParametersFrom(pretrained);
        ThreeWaySplit split = ScaffoldSplit(downstream[t], 0.7, 0.1);
        per_task[t].push_back(FinetuneAndEvalRocAuc(
            &encoder, downstream[t], split.train, split.test, ft, &rng));
      }
      std::fprintf(stderr, "[%6.1fs] %s seed %d done\n",
                   total.ElapsedSeconds(), method.c_str(), s);
    }
    std::vector<std::optional<MeanStd>> row(task_names.size());
    for (size_t t = 0; t < tasks.size(); ++t) {
      MeanStd auc = ComputeMeanStd(per_task[t]);
      row[t] = MeanStd{100.0 * auc.mean, 100.0 * auc.std};
    }
    table.AddRow(method, std::move(row));
  }

  std::printf(
      "Table IV — transfer learning ROC-AUC (%%) on downstream tasks "
      "[mode=%s, seeds=%d]\n\n%s\n",
      scale.paper ? "paper" : "ci", scale.seeds, table.ToString().c_str());
  std::printf("total time: %.1fs\n", total.ElapsedSeconds());
  return 0;
}
