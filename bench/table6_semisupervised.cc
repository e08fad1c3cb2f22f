// Reproduces paper Table VI: semi-supervised accuracy (%) at 1% / 10%
// label rates on NCI1 and COLLAB. Each method pretrains unsupervised on
// the full dataset, then fine-tunes with the reduced labeled subset.
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

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  const std::vector<std::string> methods = {
      "No Pre-Train", "GAE",     "Infomax", "GraphCL",
      "JOAOv2",       "SimGRACE", "AutoGCL", "SGCL"};
  std::string only;
  BenchScale scale = ParseArgs(argc, argv, methods, &only);

  const std::vector<TuDataset> datasets = {TuDataset::kNci1,
                                           TuDataset::kCollab};
  const std::vector<double> label_rates = {0.01, 0.10};
  // Column layout follows the paper: NCI1(1%), COLLAB(1%), NCI1(10%),
  // COLLAB(10%).
  std::vector<std::string> columns;
  std::vector<GraphDataset> data;
  for (double rate : label_rates) {
    for (TuDataset d : datasets) {
      TuConfig cfg = GetTuConfig(d);
      columns.push_back(cfg.name + "(" + std::to_string(int(rate * 100)) +
                        "%)");
    }
  }
  for (TuDataset d : datasets) {
    data.push_back(MakeTu(d, scale, /*seed=*/800 + static_cast<int>(d)));
  }

  ResultTable table(columns);
  Stopwatch total;
  FinetuneConfig ft;
  ft.epochs = scale.finetune_epochs;
  ft.batch_size = scale.batch_size;

  for (const std::string& method : methods) {
    if (!Selected(method, only)) continue;
    // results[rate][dataset] accumulated over seeds.
    std::vector<std::vector<std::vector<double>>> results(
        label_rates.size(),
        std::vector<std::vector<double>>(datasets.size()));
    for (size_t d = 0; d < datasets.size(); ++d) {
      const GraphDataset& ds = data[d];
      for (int s = 0; s < scale.seeds; ++s) {
        const uint64_t seed = 3000ULL * (s + 1) + 41 * d;
        std::unique_ptr<Pretrainer> pre =
            MakeMethod(method, ds.feat_dim(), scale, seed);
        pre->Pretrain(ds, {});
        const GnnEncoder& pretrained = *pre->mutable_encoder();
        for (size_t r = 0; r < label_rates.size(); ++r) {
          Rng rng(seed + 7 * r);
          // Held-out test fold, label-rate-limited training subset.
          HoldoutSplit holdout = TrainTestSplit(ds.size(), 0.2, &rng);
          std::vector<int> train_labels;
          for (int64_t i : holdout.train) {
            train_labels.push_back(ds.graph(i).label());
          }
          std::vector<int64_t> subset_local =
              LabelRateSubset(train_labels, label_rates[r], &rng);
          std::vector<int64_t> train;
          for (int64_t j : subset_local) train.push_back(holdout.train[j]);
          GnnEncoder encoder(pretrained.config(), &rng);
          encoder.CopyParametersFrom(pretrained);
          results[r][d].push_back(FinetuneAndEvalAccuracy(
              &encoder, ds, train, holdout.test, ft, &rng));
        }
      }
      std::fprintf(stderr, "[%6.1fs] %s / %s done\n", total.ElapsedSeconds(),
                   method.c_str(), ds.name().c_str());
    }
    std::vector<std::optional<MeanStd>> row;
    for (size_t r = 0; r < label_rates.size(); ++r) {
      for (size_t d = 0; d < datasets.size(); ++d) {
        MeanStd acc = ComputeMeanStd(results[r][d]);
        row.push_back(MeanStd{100.0 * acc.mean, 100.0 * acc.std});
      }
    }
    table.AddRow(method, std::move(row));
  }

  std::printf(
      "Table VI — semi-supervised accuracy (%%) at 1%% / 10%% label rate "
      "[mode=%s, seeds=%d]\n\n%s\n",
      scale.paper ? "paper" : "ci", scale.seeds,
      table.ToString(/*with_ranks=*/false).c_str());
  std::printf("total time: %.1fs\n", total.ElapsedSeconds());
  return 0;
}
