// Train/test splitting utilities: stratified k-fold CV, holdout,
// scaffold splits, and label-rate subsetting for semi-supervised runs.
#ifndef SGCL_GRAPH_SPLITS_H_
#define SGCL_GRAPH_SPLITS_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "graph/dataset.h"

namespace sgcl {

// k folds with per-class proportional allocation. labels[i] >= 0, and
// 2 <= k <= labels.size() so that no fold is empty.
std::vector<std::vector<int64_t>> StratifiedKFoldIndices(
    const std::vector<int>& labels, int k, Rng* rng);

struct HoldoutSplit {
  std::vector<int64_t> train;
  std::vector<int64_t> test;
};

// Random (1 - test_fraction)/test_fraction holdout.
HoldoutSplit TrainTestSplit(int64_t n, double test_fraction, Rng* rng);

struct ThreeWaySplit {
  std::vector<int64_t> train;
  std::vector<int64_t> valid;
  std::vector<int64_t> test;
};

// Scaffold split: graphs are grouped by scaffold_id; groups (largest first,
// as in the MoleculeNet protocol) fill train until `train_fraction`, then
// valid until `train_fraction + valid_fraction`, then test. Deterministic.
// Graphs without a scaffold id (-1) each form their own group.
ThreeWaySplit ScaffoldSplit(const GraphDataset& dataset,
                            double train_fraction, double valid_fraction);

// A stratified subset of the indices containing ~rate of each class;
// at least one example per class present in `labels`. Used for
// 1% / 10% label-rate semi-supervised experiments (Table VI).
std::vector<int64_t> LabelRateSubset(const std::vector<int>& labels,
                                     double rate, Rng* rng);

}  // namespace sgcl

#endif  // SGCL_GRAPH_SPLITS_H_
