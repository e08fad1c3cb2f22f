// Shared infrastructure for the experiment harnesses in bench/.
//
// Every table/figure binary supports:
//   --mode=ci     scaled-down sizes that finish on a single core (default)
//   --mode=paper  the paper's full protocol sizes
//   --seeds=N     override the seed count
//   --only=SUBSTR run only the rows (methods, kernels, variants, sweeps,
//                 architectures) whose name contains SUBSTR
#ifndef SGCL_BENCH_BENCH_UTIL_H_
#define SGCL_BENCH_BENCH_UTIL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/pretrainer.h"
#include "core/sgcl_model.h"
#include "data/synthetic_molecule.h"
#include "data/synthetic_tu.h"

namespace sgcl::bench {

struct BenchScale {
  bool paper = false;
  // TU data. CI mode clamps every dataset to ~tu_target_graphs so the
  // per-cell cost is uniform; paper mode uses the full counts.
  int tu_target_graphs = 120;
  double tu_node_cap = 22.0;
  // Molecule data.
  int zinc_graphs = 350;
  double mol_graph_fraction = 0.15;
  int mol_max_graphs = 300;
  // Model / training.
  int64_t hidden_dim = 32;
  int num_layers = 3;
  int pretrain_epochs = 12;
  int finetune_epochs = 8;
  int batch_size = 16;
  // Protocol.
  int seeds = 2;
  int cv_folds = 5;
};

// Parses --mode/--seeds/--only; returns the scale and sets `only_filter`.
// `rows` names the binary's rows, the things --only selects. Exits 0 after
// --help, and 2 on an unknown flag, an unknown mode, a malformed or < 1
// seed count, or an --only that selects none of `rows`, before any
// dataset is built.
BenchScale ParseArgs(int argc, char** argv,
                     const std::vector<std::string>& rows,
                     std::string* only_filter);

// True when `name` passes the --only filter (case-sensitive substring).
bool Selected(const std::string& name, const std::string& only_filter);

// TU dataset scaled for the bench mode.
GraphDataset MakeTu(TuDataset which, const BenchScale& scale, uint64_t seed);

// MoleculeNet-like task dataset scaled for the bench mode.
GraphDataset MakeMol(MolTask task, const BenchScale& scale, uint64_t seed);

// SGCL config matching the scale (unsupervised protocol defaults).
SgclConfig ScaledSgclConfig(int64_t feat_dim, const BenchScale& scale);

// Baseline config matching the scale.
BaselineConfig ScaledBaselineConfig(int64_t feat_dim,
                                    const BenchScale& scale, uint64_t seed);

// The self-supervised method rows of Table III, in paper order:
// InfoGraph, GraphCL, JOAOv2, AD-GCL, SimGRACE, RGCL, AutoGCL, SGCL.
std::vector<std::string> UnsupervisedMethodNames();

// The rows of Table IV: No Pre-Train, AttrMasking, ContextPred, GraphCL,
// JOAOv2, AD-GCL, RGCL, AutoGCL, SGCL.
std::vector<std::string> TransferMethodNames();

// Builds a pretrainer by method name (any name from the two lists above).
std::unique_ptr<Pretrainer> MakeMethod(const std::string& name,
                                       int64_t feat_dim,
                                       const BenchScale& scale,
                                       uint64_t seed);

}  // namespace sgcl::bench

#endif  // SGCL_BENCH_BENCH_UTIL_H_
