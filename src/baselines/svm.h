// C-SVM trained with SMO (Platt's simplified variant), over an RBF or a
// user-precomputed kernel, with one-vs-rest multiclass.
//
// This is the "non-linear SVM classifier" of the paper's unsupervised
// evaluation protocol (embeddings -> SVM -> 10-fold CV accuracy) and the
// kernel classifier for the GL/WL/DGK graph-kernel baselines.
#ifndef SGCL_BASELINES_SVM_H_
#define SGCL_BASELINES_SVM_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace sgcl {

// Binary soft-margin SVM over a precomputed kernel matrix. `seed` picks
// SMO's second working-set index.
class BinarySvm {
 public:
  explicit BinarySvm(uint64_t seed) : seed_(seed) {}

  // kernel: n x n Gram matrix (row-major); labels: +1 / -1.
  void TrainOnKernel(const std::vector<double>& kernel, int64_t n,
                     const std::vector<int>& labels);

  // Decision value for a test point given its kernel row against the
  // training points, k(x, x_i) for i in [0, n).
  double Decide(const std::vector<double>& kernel_row) const;

 private:
  uint64_t seed_;
  std::vector<double> alpha_;
  std::vector<int> labels_;
  double bias_ = 0.0;
};

// Multiclass (one-vs-rest) SVM over dense feature vectors (RBF kernel,
// gamma = 1 / (dim * feature variance)) or a precomputed kernel.
class SvmClassifier {
 public:
  // features: n x dim row-major; labels in [0, num_classes).
  void Train(const std::vector<float>& features, int64_t n, int64_t dim,
             const std::vector<int>& labels, int num_classes);

  // Predicts the class of one dense feature vector (size dim).
  int Predict(const float* x) const;

  // Accuracy over a test set.
  double Evaluate(const std::vector<float>& features, int64_t n,
                  const std::vector<int>& labels) const;

  // --- Precomputed-kernel variant (graph kernels). ---
  // train_kernel: n x n Gram over training graphs.
  void TrainOnKernel(const std::vector<double>& train_kernel, int64_t n,
                     const std::vector<int>& labels, int num_classes);
  // test_rows: m x n kernel values k(test_j, train_i).
  std::vector<int> PredictFromKernelRows(const std::vector<double>& test_rows,
                                         int64_t m) const;

 private:
  double KernelValue(const float* a, const float* b, int64_t dim) const;

  int num_classes_ = 0;
  int64_t train_n_ = 0;
  int64_t dim_ = 0;
  double gamma_ = 1.0;
  std::vector<float> train_features_;     // kept for kernel evaluation
  std::vector<BinarySvm> per_class_;
};

}  // namespace sgcl

#endif  // SGCL_BASELINES_SVM_H_
