// Reproduces paper Figure 4: sensitivity of SGCL to lambda_c, lambda_W,
// rho, and tau in the unsupervised protocol, reported as the average
// accuracy over PROTEINS, DD and IMDB-B. Prints one series per
// hyperparameter (x value -> mean accuracy).
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "eval/evaluator.h"

using namespace sgcl;
using namespace sgcl::bench;

namespace {

struct Sweep {
  const char* name;
  std::vector<double> values;
  void (*apply)(SgclConfig*, double);
};

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  const std::vector<Sweep> sweeps = {
      {"lambda_c",
       {0.0001, 0.001, 0.005, 0.01, 0.05, 0.1},
       [](SgclConfig* c, double v) { c->lambda_c = static_cast<float>(v); }},
      {"lambda_W",
       {0.001, 0.01, 0.05, 0.1, 0.2, 0.5},
       [](SgclConfig* c, double v) { c->lambda_w = static_cast<float>(v); }},
      {"rho",
       {0.5, 0.6, 0.7, 0.8, 0.9},
       [](SgclConfig* c, double v) { c->rho = v; }},
      {"tau",
       {0.1, 0.2, 0.3, 0.4, 0.5},
       [](SgclConfig* c, double v) { c->tau = static_cast<float>(v); }},
  };
  std::vector<std::string> rows;
  for (const Sweep& sweep : sweeps) rows.push_back(sweep.name);
  std::string only;
  BenchScale scale = ParseArgs(argc, argv, rows, &only);

  const std::vector<TuDataset> datasets = {
      TuDataset::kProteins, TuDataset::kDd, TuDataset::kImdbB};
  std::vector<GraphDataset> data;
  for (size_t d = 0; d < datasets.size(); ++d) {
    data.push_back(MakeTu(datasets[d], scale, /*seed=*/900 + d));
  }

  UnsupervisedProtocolOptions proto;
  proto.num_seeds = scale.seeds;
  proto.cv_folds = scale.cv_folds;

  Stopwatch total;
  std::printf(
      "Figure 4 — SGCL hyperparameter sensitivity, unsupervised "
      "(avg accuracy %% over PROTEINS/DD/IMDB-B) [mode=%s]\n\n",
      scale.paper ? "paper" : "ci");
  for (const Sweep& sweep : sweeps) {
    if (!Selected(sweep.name, only)) continue;
    std::printf("%s:\n", sweep.name);
    for (double v : sweep.values) {
      double sum = 0.0;
      for (size_t d = 0; d < data.size(); ++d) {
        proto.base_seed = 100 * d;
        MeanStd acc = RunUnsupervisedProtocol(
            [&](uint64_t seed) -> std::unique_ptr<Pretrainer> {
              SgclConfig cfg =
                  ScaledSgclConfig(data[d].feat_dim(), scale);
              sweep.apply(&cfg, v);
              return std::make_unique<SgclPretrainer>(cfg, seed);
            },
            data[d], proto);
        sum += acc.mean;
      }
      std::printf("  %-8g -> %.2f\n", v,
                  100.0 * sum / static_cast<double>(data.size()));
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("total time: %.1fs\n", total.ElapsedSeconds());
  return 0;
}
