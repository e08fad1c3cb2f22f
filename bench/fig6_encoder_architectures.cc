// Reproduces paper Figure 6: SGCL accuracy with different encoder
// architectures (GCN, GraphSAGE, GAT, GIN) on MUTAG, PROTEINS, DD and
// IMDB-B under the unsupervised protocol.
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "eval/evaluator.h"
#include "eval/table.h"

using namespace sgcl;
using namespace sgcl::bench;

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  const std::vector<GnnArch> archs = {GnnArch::kGcn, GnnArch::kSage,
                                      GnnArch::kGat, GnnArch::kGin};
  std::vector<std::string> rows;
  for (GnnArch arch : archs) rows.push_back(GnnArchToString(arch));
  std::string only;
  BenchScale scale = ParseArgs(argc, argv, rows, &only);

  const std::vector<TuDataset> datasets = {
      TuDataset::kMutag, TuDataset::kProteins, TuDataset::kDd,
      TuDataset::kImdbB};
  std::vector<std::string> dataset_names;
  std::vector<GraphDataset> data;
  for (size_t d = 0; d < datasets.size(); ++d) {
    data.push_back(MakeTu(datasets[d], scale, /*seed=*/700 + d));
    dataset_names.push_back(data.back().name());
  }

  UnsupervisedProtocolOptions proto;
  proto.num_seeds = scale.seeds;
  proto.cv_folds = scale.cv_folds;

  ResultTable table(dataset_names);
  Stopwatch total;
  for (GnnArch arch : archs) {
    const std::string arch_name = GnnArchToString(arch);
    if (!Selected(arch_name, only)) continue;
    std::vector<std::optional<MeanStd>> row;
    for (size_t d = 0; d < data.size(); ++d) {
      proto.base_seed = 50 * d;
      MeanStd acc = RunUnsupervisedProtocol(
          [&](uint64_t seed) -> std::unique_ptr<Pretrainer> {
            SgclConfig cfg = ScaledSgclConfig(data[d].feat_dim(), scale);
            cfg.encoder.arch = arch;
            return std::make_unique<SgclPretrainer>(cfg, seed);
          },
          data[d], proto);
      row.push_back(MeanStd{100.0 * acc.mean, 100.0 * acc.std});
      std::fprintf(stderr, "[%6.1fs] %s / %s = %.2f\n",
                   total.ElapsedSeconds(), arch_name.c_str(),
                   dataset_names[d].c_str(), 100.0 * acc.mean);
    }
    table.AddRow(arch_name, std::move(row));
  }

  std::printf(
      "Figure 6 — SGCL accuracy (%%) by encoder architecture "
      "[mode=%s, seeds=%d]\n\n%s\n",
      scale.paper ? "paper" : "ci", scale.seeds,
      table.ToString(/*with_ranks=*/false).c_str());
  std::printf("total time: %.1fs\n", total.ElapsedSeconds());
  return 0;
}
