// Reproduces paper Table III: unsupervised graph classification accuracy
// (%) on the eight TU datasets for graph kernels (GL, WL, DGK) and the
// eight self-supervised methods, plus the average-rank column.
#include <cstdio>
#include <memory>

#include "baselines/graph_kernels.h"
#include "bench_util.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "eval/evaluator.h"
#include "eval/table.h"

using namespace sgcl;
using namespace sgcl::bench;

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  const std::vector<KernelKind> kernels = {
      KernelKind::kGraphlet, KernelKind::kWlSubtree, KernelKind::kDeepWl};
  const std::vector<std::string> methods = UnsupervisedMethodNames();
  std::vector<std::string> rows;
  for (KernelKind kind : kernels) rows.push_back(GraphKernel(kind).name());
  rows.insert(rows.end(), methods.begin(), methods.end());
  std::string only;
  BenchScale scale = ParseArgs(argc, argv, rows, &only);

  const std::vector<TuDataset> datasets = AllTuDatasets();
  std::vector<std::string> dataset_names;
  for (TuDataset d : datasets) dataset_names.push_back(GetTuConfig(d).name);

  ResultTable table(dataset_names);
  Stopwatch total;

  UnsupervisedProtocolOptions proto;
  proto.num_seeds = scale.seeds;
  proto.cv_folds = scale.cv_folds;

  // --- Graph-kernel rows. ---
  for (KernelKind kind : kernels) {
    GraphKernel kernel(kind);
    if (!Selected(kernel.name(), only)) continue;
    std::vector<std::optional<MeanStd>> row;
    for (size_t d = 0; d < datasets.size(); ++d) {
      GraphDataset ds = MakeTu(datasets[d], scale, /*seed=*/100 + d);
      std::vector<const Graph*> graphs;
      for (int64_t i = 0; i < ds.size(); ++i) graphs.push_back(&ds.graph(i));
      std::vector<double> gram = kernel.GramMatrix(graphs);
      proto.base_seed = 10 * d;
      MeanStd acc = RunKernelProtocol(gram, ds, proto);
      row.push_back(MeanStd{100.0 * acc.mean, 100.0 * acc.std});
      std::fprintf(stderr, "[%6.1fs] %s / %s = %.2f\n",
                   total.ElapsedSeconds(), kernel.name().c_str(),
                   dataset_names[d].c_str(), 100.0 * acc.mean);
    }
    table.AddRow(kernel.name(), std::move(row));
  }

  // --- Self-supervised rows. ---
  for (const std::string& method : methods) {
    if (!Selected(method, only)) continue;
    std::vector<std::optional<MeanStd>> row;
    for (size_t d = 0; d < datasets.size(); ++d) {
      GraphDataset ds = MakeTu(datasets[d], scale, /*seed=*/100 + d);
      proto.base_seed = 10 * d;
      MeanStd acc = RunUnsupervisedProtocol(
          [&](uint64_t seed) {
            return MakeMethod(method, ds.feat_dim(), scale, seed);
          },
          ds, proto);
      row.push_back(MeanStd{100.0 * acc.mean, 100.0 * acc.std});
      std::fprintf(stderr, "[%6.1fs] %s / %s = %.2f\n",
                   total.ElapsedSeconds(), method.c_str(),
                   dataset_names[d].c_str(), 100.0 * acc.mean);
    }
    table.AddRow(method, std::move(row));
  }

  std::printf(
      "Table III — unsupervised graph classification accuracy (%%) "
      "[mode=%s, seeds=%d]\n\n%s\n",
      scale.paper ? "paper" : "ci", scale.seeds,
      table.ToString().c_str());
  std::printf("total time: %.1fs\n", total.ElapsedSeconds());
  return 0;
}
