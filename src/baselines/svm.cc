#include "baselines/svm.h"

#include <algorithm>
#include <cmath>

namespace sgcl {
namespace {

constexpr double kBoxC = 1.0;           // box constraint
constexpr double kTolerance = 1e-3;
constexpr int kMaxPasses = 5;           // SMO passes without alpha changes
constexpr int kMaxIterations = 2000;

}  // namespace

void BinarySvm::TrainOnKernel(const std::vector<double>& kernel, int64_t n,
                              const std::vector<int>& labels) {
  SGCL_CHECK_EQ(static_cast<int64_t>(labels.size()), n);
  SGCL_CHECK_EQ(static_cast<int64_t>(kernel.size()), n * n);
  labels_ = labels;
  alpha_.assign(static_cast<size_t>(n), 0.0);
  bias_ = 0.0;
  Rng rng(seed_ + 0x5f3759dfULL);

  auto decide = [&](int64_t i) {
    double f = bias_;
    for (int64_t j = 0; j < n; ++j) {
      if (alpha_[j] != 0.0) f += alpha_[j] * labels_[j] * kernel[i * n + j];
    }
    return f;
  };

  const double c = kBoxC;
  const double tol = kTolerance;
  int passes = 0;
  int iterations = 0;
  while (passes < kMaxPasses && iterations < kMaxIterations) {
    int changed = 0;
    for (int64_t i = 0; i < n; ++i) {
      const double ei = decide(i) - labels_[i];
      const bool violates = (labels_[i] * ei < -tol && alpha_[i] < c) ||
                            (labels_[i] * ei > tol && alpha_[i] > 0.0);
      if (!violates) continue;
      int64_t j = rng.UniformInt(n - 1);
      if (j >= i) ++j;
      const double ej = decide(j) - labels_[j];
      const double ai_old = alpha_[i], aj_old = alpha_[j];
      double lo, hi;
      if (labels_[i] != labels_[j]) {
        lo = std::max(0.0, aj_old - ai_old);
        hi = std::min(c, c + aj_old - ai_old);
      } else {
        lo = std::max(0.0, ai_old + aj_old - c);
        hi = std::min(c, ai_old + aj_old);
      }
      if (lo >= hi) continue;
      const double eta =
          2.0 * kernel[i * n + j] - kernel[i * n + i] - kernel[j * n + j];
      if (eta >= 0.0) continue;
      double aj = aj_old - labels_[j] * (ei - ej) / eta;
      aj = std::clamp(aj, lo, hi);
      if (std::fabs(aj - aj_old) < 1e-5) continue;
      const double ai =
          ai_old + labels_[i] * labels_[j] * (aj_old - aj);
      alpha_[i] = ai;
      alpha_[j] = aj;
      const double b1 = bias_ - ei -
                        labels_[i] * (ai - ai_old) * kernel[i * n + i] -
                        labels_[j] * (aj - aj_old) * kernel[i * n + j];
      const double b2 = bias_ - ej -
                        labels_[i] * (ai - ai_old) * kernel[i * n + j] -
                        labels_[j] * (aj - aj_old) * kernel[j * n + j];
      if (ai > 0.0 && ai < c) {
        bias_ = b1;
      } else if (aj > 0.0 && aj < c) {
        bias_ = b2;
      } else {
        bias_ = (b1 + b2) / 2.0;
      }
      ++changed;
    }
    passes = (changed == 0) ? passes + 1 : 0;
    ++iterations;
  }
}

double BinarySvm::Decide(const std::vector<double>& kernel_row) const {
  SGCL_CHECK_EQ(kernel_row.size(), alpha_.size());
  double f = bias_;
  for (size_t j = 0; j < alpha_.size(); ++j) {
    if (alpha_[j] != 0.0) f += alpha_[j] * labels_[j] * kernel_row[j];
  }
  return f;
}

double SvmClassifier::KernelValue(const float* a, const float* b,
                                  int64_t dim) const {
  double sq = 0.0;
  for (int64_t j = 0; j < dim; ++j) {
    const double d = static_cast<double>(a[j]) - b[j];
    sq += d * d;
  }
  return std::exp(-gamma_ * sq);
}

void SvmClassifier::Train(const std::vector<float>& features, int64_t n,
                          int64_t dim, const std::vector<int>& labels,
                          int num_classes) {
  SGCL_CHECK_GT(n, 0);
  SGCL_CHECK_GT(dim, 0);
  SGCL_CHECK_GE(num_classes, 2);
  SGCL_CHECK_EQ(static_cast<int64_t>(features.size()), n * dim);
  SGCL_CHECK_EQ(static_cast<int64_t>(labels.size()), n);
  num_classes_ = num_classes;
  train_n_ = n;
  dim_ = dim;
  train_features_ = features;
  // gamma = 1 / (dim * var(features)) — the scikit-learn 'scale'
  // heuristic.
  double mean = 0.0, sq = 0.0;
  for (float v : features) {
    mean += v;
    sq += static_cast<double>(v) * v;
  }
  mean /= static_cast<double>(features.size());
  const double var =
      std::max(sq / static_cast<double>(features.size()) - mean * mean, 1e-8);
  gamma_ = 1.0 / (static_cast<double>(dim) * var);
  std::vector<double> kernel(static_cast<size_t>(n * n));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i; j < n; ++j) {
      const double k = KernelValue(features.data() + i * dim,
                                   features.data() + j * dim, dim);
      kernel[i * n + j] = k;
      kernel[j * n + i] = k;
    }
  }
  TrainOnKernel(kernel, n, labels, num_classes);
}

void SvmClassifier::TrainOnKernel(const std::vector<double>& train_kernel,
                                  int64_t n, const std::vector<int>& labels,
                                  int num_classes) {
  num_classes_ = num_classes;
  train_n_ = n;
  per_class_.clear();
  per_class_.reserve(num_classes);
  for (int c = 0; c < num_classes; ++c) {
    std::vector<int> binary(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) binary[i] = labels[i] == c ? 1 : -1;
    per_class_.emplace_back(static_cast<uint64_t>(c) * 101);
    per_class_.back().TrainOnKernel(train_kernel, n, binary);
  }
}

int SvmClassifier::Predict(const float* x) const {
  SGCL_CHECK(!per_class_.empty());
  SGCL_CHECK(!train_features_.empty());
  std::vector<double> row(static_cast<size_t>(train_n_));
  for (int64_t i = 0; i < train_n_; ++i) {
    row[i] = KernelValue(x, train_features_.data() + i * dim_, dim_);
  }
  int best = 0;
  double best_score = -1e300;
  for (int c = 0; c < num_classes_; ++c) {
    const double score = per_class_[c].Decide(row);
    if (score > best_score) {
      best_score = score;
      best = c;
    }
  }
  return best;
}

double SvmClassifier::Evaluate(const std::vector<float>& features, int64_t n,
                               const std::vector<int>& labels) const {
  SGCL_CHECK_EQ(static_cast<int64_t>(labels.size()), n);
  int64_t correct = 0;
  for (int64_t i = 0; i < n; ++i) {
    correct += (Predict(features.data() + i * dim_) == labels[i]);
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

std::vector<int> SvmClassifier::PredictFromKernelRows(
    const std::vector<double>& test_rows, int64_t m) const {
  SGCL_CHECK_EQ(static_cast<int64_t>(test_rows.size()), m * train_n_);
  std::vector<int> out(static_cast<size_t>(m));
  for (int64_t i = 0; i < m; ++i) {
    std::vector<double> row(test_rows.begin() + i * train_n_,
                            test_rows.begin() + (i + 1) * train_n_);
    int best = 0;
    double best_score = -1e300;
    for (int c = 0; c < num_classes_; ++c) {
      const double score = per_class_[c].Decide(row);
      if (score > best_score) {
        best_score = score;
        best = c;
      }
    }
    out[i] = best;
  }
  return out;
}

}  // namespace sgcl
