#include "eval/cross_validation.h"

#include "graph/splits.h"

namespace sgcl {

MeanStd SvmCrossValidate(const std::vector<float>& embeddings, int64_t n,
                         int64_t dim, const std::vector<int>& labels,
                         int num_classes, int folds, Rng* rng) {
  SGCL_CHECK_EQ(static_cast<int64_t>(embeddings.size()), n * dim);
  SGCL_CHECK_EQ(static_cast<int64_t>(labels.size()), n);
  auto fold_indices = StratifiedKFoldIndices(labels, folds, rng);
  std::vector<double> fold_accuracies;
  fold_accuracies.reserve(folds);
  for (int f = 0; f < folds; ++f) {
    std::vector<float> train_x, test_x;
    std::vector<int> train_y, test_y;
    std::vector<uint8_t> is_test(static_cast<size_t>(n), 0);
    for (int64_t i : fold_indices[f]) is_test[i] = 1;
    for (int64_t i = 0; i < n; ++i) {
      auto begin = embeddings.begin() + i * dim;
      if (is_test[i]) {
        test_x.insert(test_x.end(), begin, begin + dim);
        test_y.push_back(labels[i]);
      } else {
        train_x.insert(train_x.end(), begin, begin + dim);
        train_y.push_back(labels[i]);
      }
    }
    SvmClassifier svm;
    svm.Train(train_x, static_cast<int64_t>(train_y.size()), dim, train_y,
              num_classes);
    fold_accuracies.push_back(
        svm.Evaluate(test_x, static_cast<int64_t>(test_y.size()), test_y));
  }
  return ComputeMeanStd(fold_accuracies);
}

MeanStd KernelSvmCrossValidate(const std::vector<double>& gram, int64_t n,
                               const std::vector<int>& labels,
                               int num_classes, int folds, Rng* rng) {
  SGCL_CHECK_EQ(static_cast<int64_t>(gram.size()), n * n);
  auto fold_indices = StratifiedKFoldIndices(labels, folds, rng);
  std::vector<double> fold_accuracies;
  for (int f = 0; f < folds; ++f) {
    std::vector<uint8_t> is_test(static_cast<size_t>(n), 0);
    for (int64_t i : fold_indices[f]) is_test[i] = 1;
    std::vector<int64_t> train_idx, test_idx;
    for (int64_t i = 0; i < n; ++i) {
      (is_test[i] ? test_idx : train_idx).push_back(i);
    }
    const int64_t tn = static_cast<int64_t>(train_idx.size());
    const int64_t mn = static_cast<int64_t>(test_idx.size());
    std::vector<double> train_gram(static_cast<size_t>(tn * tn));
    std::vector<int> train_y(static_cast<size_t>(tn));
    for (int64_t a = 0; a < tn; ++a) {
      train_y[a] = labels[train_idx[a]];
      for (int64_t b = 0; b < tn; ++b) {
        train_gram[a * tn + b] = gram[train_idx[a] * n + train_idx[b]];
      }
    }
    std::vector<double> test_rows(static_cast<size_t>(mn * tn));
    std::vector<int> test_y(static_cast<size_t>(mn));
    for (int64_t a = 0; a < mn; ++a) {
      test_y[a] = labels[test_idx[a]];
      for (int64_t b = 0; b < tn; ++b) {
        test_rows[a * tn + b] = gram[test_idx[a] * n + train_idx[b]];
      }
    }
    SvmClassifier svm;
    svm.TrainOnKernel(train_gram, tn, train_y, num_classes);
    std::vector<int> preds = svm.PredictFromKernelRows(test_rows, mn);
    fold_accuracies.push_back(Accuracy(preds, test_y));
  }
  return ComputeMeanStd(fold_accuracies);
}

}  // namespace sgcl
