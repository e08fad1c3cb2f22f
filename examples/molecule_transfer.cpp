// Transfer learning demo: pretrain SGCL on a ZINC-like molecule stream,
// fine-tune on a BBBP-like property-prediction task with a scaffold
// split, and compare against training the same encoder from scratch.
//
//   ./molecule_transfer [seed]
#include <cstdio>
#include <cstdlib>

#include "common/stopwatch.h"
#include "core/sgcl_trainer.h"
#include "data/synthetic_molecule.h"
#include "eval/finetune.h"
#include "graph/splits.h"

using namespace sgcl;

int main(int argc, char** argv) {
  const uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 11;

  // Pretraining corpus (ZINC-2M stand-in, scaled).
  GraphDataset zinc = MakeZincLikeDataset(/*num_graphs=*/300, seed);
  std::printf("pretraining corpus: %lld unlabeled molecules\n",
              static_cast<long long>(zinc.size()));

  // Downstream task (BBBP-like, scaffold split).
  MolDatasetOptions mol_opt;
  mol_opt.graph_fraction = 0.15;
  mol_opt.max_graphs = 300;
  mol_opt.seed = seed + 1;
  GraphDataset bbbp = MakeMolTaskDataset(MolTask::kBbbp, mol_opt);
  ThreeWaySplit split = ScaffoldSplit(bbbp, 0.8, 0.1);
  std::printf("downstream %s: %lld graphs (train %zu / valid %zu / test %zu)\n",
              bbbp.name().c_str(), static_cast<long long>(bbbp.size()),
              split.train.size(), split.valid.size(), split.test.size());

  SgclConfig config = MakeTransferConfig(kMoleculeFeatDim, /*hidden_dim=*/32);
  config.encoder.num_layers = 3;  // scaled from the paper's 5x300
  config.epochs = 8;
  config.batch_size = 32;

  FinetuneConfig ft;
  ft.epochs = 15;

  // (a) SGCL-pretrained encoder.
  Stopwatch watch;
  SgclTrainer trainer(config, seed);
  const auto pretrain = trainer.Pretrain(zinc);
  SGCL_CHECK(pretrain.ok());
  std::printf("SGCL pretraining took %.1fs\n", watch.ElapsedSeconds());
  Rng rng_a(seed + 2);
  const double auc_pretrained = FinetuneAndEvalRocAuc(
      trainer.model().mutable_encoder_k(), bbbp, split.train, split.test, ft,
      &rng_a);

  // (b) Same architecture from scratch.
  Rng init_rng(seed + 3);
  GnnEncoder scratch(config.encoder, &init_rng);
  Rng rng_b(seed + 2);
  const double auc_scratch = FinetuneAndEvalRocAuc(
      &scratch, bbbp, split.train, split.test, ft, &rng_b);

  std::printf("test ROC-AUC: SGCL-pretrained %.4f vs no-pretrain %.4f\n",
              auc_pretrained, auc_scratch);
  std::printf("%s\n", auc_pretrained >= auc_scratch
                          ? "pretraining helped"
                          : "pretraining did not help on this tiny run");
  return 0;
}
