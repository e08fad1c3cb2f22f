// Reproduces paper Figure 5: sensitivity of SGCL to lambda_c, lambda_W,
// rho, and tau in the transfer protocol (pretrain on the ZINC-like
// corpus, fine-tune on BBBP-like; ROC-AUC %).
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/sgcl_trainer.h"
#include "eval/finetune.h"
#include "eval/metrics.h"
#include "graph/splits.h"

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

  GraphDataset zinc = MakeZincLikeDataset(scale.zinc_graphs, /*seed=*/321);
  GraphDataset bbbp = MakeMol(MolTask::kBbbp, scale, /*seed=*/501);
  ThreeWaySplit split = ScaffoldSplit(bbbp, 0.8, 0.1);
  FinetuneConfig ft;
  ft.epochs = scale.finetune_epochs;
  ft.batch_size = scale.batch_size;

  Stopwatch total;
  std::printf(
      "Figure 5 — SGCL hyperparameter sensitivity, transfer "
      "(BBBP ROC-AUC %%) [mode=%s]\n\n",
      scale.paper ? "paper" : "ci");
  for (const Sweep& sweep : sweeps) {
    if (!Selected(sweep.name, only)) continue;
    std::printf("%s:\n", sweep.name);
    for (double v : sweep.values) {
      std::vector<double> per_seed;
      for (int s = 0; s < scale.seeds; ++s) {
        const uint64_t seed = 4000ULL * (s + 1);
        SgclConfig cfg = ScaledSgclConfig(kMoleculeFeatDim, scale);
        sweep.apply(&cfg, v);
        SgclTrainer trainer(cfg, seed);
        const auto pretrain = trainer.Pretrain(zinc);
        SGCL_CHECK(pretrain.ok());
        Rng rng(seed + 9);
        GnnEncoder encoder(trainer.model().encoder_k().config(), &rng);
        encoder.CopyParametersFrom(trainer.model().encoder_k());
        per_seed.push_back(FinetuneAndEvalRocAuc(
            &encoder, bbbp, split.train, split.test, ft, &rng));
      }
      std::printf("  %-8g -> %.2f\n", v,
                  100.0 * ComputeMeanStd(per_seed).mean);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("total time: %.1fs\n", total.ElapsedSeconds());
  return 0;
}
