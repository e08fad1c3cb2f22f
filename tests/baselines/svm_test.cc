#include "baselines/svm.h"

#include <cmath>

#include "gtest/gtest.h"

namespace sgcl {
namespace {

// Two well-separated Gaussian blobs.
void MakeBlobs(int per_class, std::vector<float>* x, std::vector<int>* y,
               uint64_t seed, double separation = 4.0) {
  Rng rng(seed);
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < per_class; ++i) {
      x->push_back(static_cast<float>(rng.Normal(c * separation, 1.0)));
      x->push_back(static_cast<float>(rng.Normal(c * separation, 1.0)));
      y->push_back(c);
    }
  }
}

TEST(SvmTest, SeparatesLinearBlobs) {
  std::vector<float> x;
  std::vector<int> y;
  MakeBlobs(30, &x, &y, 1);
  SvmClassifier svm;
  svm.Train(x, 60, 2, y, 2);
  EXPECT_GT(svm.Evaluate(x, 60, y), 0.95);
}

TEST(SvmTest, RbfSolvesXorWhereLinearFails) {
  // XOR pattern: non-linearly separable.
  std::vector<float> x;
  std::vector<int> y;
  Rng rng(3);
  for (int i = 0; i < 120; ++i) {
    const float a = rng.Bernoulli(0.5) ? 1.0f : -1.0f;
    const float b = rng.Bernoulli(0.5) ? 1.0f : -1.0f;
    x.push_back(a + static_cast<float>(rng.Normal(0, 0.15)));
    x.push_back(b + static_cast<float>(rng.Normal(0, 0.15)));
    y.push_back(a * b > 0 ? 1 : 0);
  }
  SvmClassifier svm;
  svm.Train(x, 120, 2, y, 2);
  EXPECT_GT(svm.Evaluate(x, 120, y), 0.9);
}

TEST(SvmTest, MulticlassOneVsRest) {
  Rng rng(4);
  std::vector<float> x;
  std::vector<int> y;
  const double centers[3][2] = {{0, 0}, {6, 0}, {0, 6}};
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 25; ++i) {
      x.push_back(static_cast<float>(rng.Normal(centers[c][0], 0.8)));
      x.push_back(static_cast<float>(rng.Normal(centers[c][1], 0.8)));
      y.push_back(c);
    }
  }
  SvmClassifier svm;
  svm.Train(x, 75, 2, y, 3);
  EXPECT_GT(svm.Evaluate(x, 75, y), 0.93);
}

TEST(SvmTest, PrecomputedKernelPath) {
  // A linear Gram matrix passed as a precomputed kernel separates the
  // blobs.
  std::vector<float> x;
  std::vector<int> y;
  MakeBlobs(20, &x, &y, 5);
  const int64_t n = 40;
  std::vector<double> gram(n * n);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      gram[i * n + j] = static_cast<double>(x[i * 2]) * x[j * 2] +
                        static_cast<double>(x[i * 2 + 1]) * x[j * 2 + 1];
    }
  }
  SvmClassifier svm;
  svm.TrainOnKernel(gram, n, y, 2);
  // Predict the training points through kernel rows.
  std::vector<int> preds = svm.PredictFromKernelRows(gram, n);
  int correct = 0;
  for (int64_t i = 0; i < n; ++i) correct += (preds[i] == y[i]);
  EXPECT_GT(correct, 36);
}

TEST(SvmTest, GeneralizationOnHeldOut) {
  std::vector<float> train_x, test_x;
  std::vector<int> train_y, test_y;
  MakeBlobs(40, &train_x, &train_y, 6);
  MakeBlobs(15, &test_x, &test_y, 7);
  SvmClassifier svm;
  svm.Train(train_x, 80, 2, train_y, 2);
  EXPECT_GT(svm.Evaluate(test_x, 30, test_y), 0.9);
}

}  // namespace
}  // namespace sgcl
