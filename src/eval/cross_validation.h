// SVM cross-validation over fixed embeddings or precomputed kernels —
// the paper's unsupervised evaluation protocol (§VI-B).
#ifndef SGCL_EVAL_CROSS_VALIDATION_H_
#define SGCL_EVAL_CROSS_VALIDATION_H_

#include <vector>

#include "baselines/svm.h"
#include "common/rng.h"
#include "eval/metrics.h"

namespace sgcl {

// 10-fold (configurable) stratified CV of an RBF-SVM on dense embeddings
// [n, dim]; returns mean/std of fold accuracies.
MeanStd SvmCrossValidate(const std::vector<float>& embeddings, int64_t n,
                         int64_t dim, const std::vector<int>& labels,
                         int num_classes, int folds, Rng* rng);

// Same protocol over a precomputed n x n Gram matrix (graph kernels).
MeanStd KernelSvmCrossValidate(const std::vector<double>& gram, int64_t n,
                               const std::vector<int>& labels,
                               int num_classes, int folds, Rng* rng);

}  // namespace sgcl

#endif  // SGCL_EVAL_CROSS_VALIDATION_H_
