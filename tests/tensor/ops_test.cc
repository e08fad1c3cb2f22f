#include "tensor/ops.h"

#include <cmath>

#include "gtest/gtest.h"

namespace sgcl {
namespace {

TEST(TensorTest, FactoriesShapeAndFill) {
  Tensor z = Tensor::Zeros({2, 3});
  EXPECT_EQ(z.rows(), 2);
  EXPECT_EQ(z.cols(), 3);
  EXPECT_EQ(z.numel(), 6);
  for (float v : z.values()) EXPECT_EQ(v, 0.0f);

  Tensor o = Tensor::Ones({1, 4});
  for (float v : o.values()) EXPECT_EQ(v, 1.0f);

  Tensor f = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(f.At(1, 0), 3.0f);
  EXPECT_EQ(Tensor::Scalar(7.0f).item(), 7.0f);
}

TEST(MatMulTest, Forward) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.rows(), 2);
  EXPECT_EQ(c.cols(), 2);
  EXPECT_FLOAT_EQ(c.At(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.At(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.At(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.At(1, 1), 154.0f);
}

TEST(MatMulTransBTest, MatchesExplicitTranspose) {
  Tensor a = Tensor::FromVector({2, 3}, {1, -2, 3, 0.5f, 5, -6});
  Tensor b = Tensor::FromVector({4, 3},
                                {1, 0, 2, -1, 3, 1, 0.5f, 0.5f, 0.5f, 2, 2, 2});
  Tensor direct = MatMulTransB(a, b);
  Tensor viaT = MatMul(a, Transpose(b));
  ASSERT_EQ(direct.shape(), viaT.shape());
  for (int64_t i = 0; i < direct.numel(); ++i) {
    EXPECT_NEAR(direct.data()[i], viaT.data()[i], 1e-5f);
  }
}

TEST(AddTest, RowBroadcast) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({1, 2}, {10, 20});
  Tensor c = Add(a, b);
  EXPECT_FLOAT_EQ(c.At(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(c.At(1, 1), 24.0f);
}

TEST(ElementwiseTest, SubMulScalarOps) {
  Tensor a = Tensor::FromVector({1, 3}, {1, 2, 3});
  Tensor b = Tensor::FromVector({1, 3}, {3, 2, 1});
  Tensor d = Sub(a, b);
  EXPECT_FLOAT_EQ(d.data()[0], -2.0f);
  Tensor m = Mul(a, b);
  EXPECT_FLOAT_EQ(m.data()[0], 3.0f);
  EXPECT_FLOAT_EQ(m.data()[2], 3.0f);
  EXPECT_FLOAT_EQ(AddScalar(a, 1.0f).data()[2], 4.0f);
  EXPECT_FLOAT_EQ(MulScalar(a, -2.0f).data()[1], -4.0f);
  EXPECT_FLOAT_EQ(Neg(a).data()[0], -1.0f);
}

TEST(MulBroadcastColTest, ScalesRows) {
  Tensor x = Tensor::FromVector({2, 3}, {1, 1, 1, 2, 2, 2});
  Tensor c = Tensor::FromVector({2, 1}, {3, 0.5f});
  Tensor y = MulBroadcastCol(x, c);
  EXPECT_FLOAT_EQ(y.At(0, 2), 3.0f);
  EXPECT_FLOAT_EQ(y.At(1, 0), 1.0f);
}

TEST(ActivationTest, ForwardValues) {
  Tensor x = Tensor::FromVector({1, 4}, {-2, -0.5f, 0.5f, 2});
  Tensor r = Relu(x);
  EXPECT_FLOAT_EQ(r.data()[0], 0.0f);
  EXPECT_FLOAT_EQ(r.data()[3], 2.0f);
  Tensor lr = LeakyRelu(x, 0.1f);
  EXPECT_FLOAT_EQ(lr.data()[0], -0.2f);
  EXPECT_FLOAT_EQ(lr.data()[3], 2.0f);
  Tensor s = Sigmoid(Tensor::Scalar(0.0f));
  EXPECT_FLOAT_EQ(s.item(), 0.5f);
  EXPECT_NEAR(Exp(Tensor::Scalar(1.0f)).item(), std::exp(1.0f), 1e-5f);
  EXPECT_NEAR(Log(Tensor::Scalar(std::exp(2.0f))).item(), 2.0f, 1e-5f);
}

TEST(LogTest, GuardsAgainstNonPositive) {
  Tensor x = Tensor::FromVector({1, 2}, {0.0f, -1.0f});
  Tensor y = Log(x, 1e-12f);
  EXPECT_TRUE(std::isfinite(y.data()[0]));
  EXPECT_TRUE(std::isfinite(y.data()[1]));
}

TEST(ReductionTest, SumMeanSumSquares) {
  Tensor x = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(Sum(x).item(), 10.0f);
  EXPECT_FLOAT_EQ(Mean(x).item(), 2.5f);
  EXPECT_FLOAT_EQ(SumSquares(x).item(), 30.0f);
  EXPECT_NEAR(FrobeniusNorm(x).item(), std::sqrt(30.0f), 1e-4f);
}

TEST(RowSumTest, SumsEachRow) {
  Tensor x = Tensor::FromVector({2, 3}, {1, 2, 3, -1, -2, -3});
  Tensor s = RowSum(x);
  EXPECT_EQ(s.rows(), 2);
  EXPECT_EQ(s.cols(), 1);
  EXPECT_FLOAT_EQ(s.data()[0], 6.0f);
  EXPECT_FLOAT_EQ(s.data()[1], -6.0f);
}

TEST(RowL2NormalizeTest, RowsHaveUnitNorm) {
  Tensor x = Tensor::FromVector({2, 2}, {3, 4, 0.1f, 0});
  Tensor y = RowL2Normalize(x);
  EXPECT_NEAR(y.At(0, 0), 0.6f, 1e-5f);
  EXPECT_NEAR(y.At(0, 1), 0.8f, 1e-5f);
  EXPECT_NEAR(y.At(1, 0), 1.0f, 1e-5f);
}

TEST(ConcatColsTest, StacksColumns) {
  Tensor a = Tensor::FromVector({2, 1}, {1, 2});
  Tensor b = Tensor::FromVector({2, 2}, {3, 4, 5, 6});
  Tensor c = ConcatCols(a, b);
  EXPECT_EQ(c.cols(), 3);
  EXPECT_FLOAT_EQ(c.At(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(c.At(0, 2), 4.0f);
  EXPECT_FLOAT_EQ(c.At(1, 1), 5.0f);
}

TEST(CrossEntropyTest, PerfectPredictionHasLowLoss) {
  Tensor logits = Tensor::FromVector({2, 2}, {10, -10, -10, 10});
  const float loss = CrossEntropyWithLogits(logits, {0, 1}).item();
  EXPECT_LT(loss, 1e-3f);
  Tensor bad = Tensor::FromVector({2, 2}, {-10, 10, 10, -10});
  EXPECT_GT(CrossEntropyWithLogits(bad, {0, 1}).item(), 5.0f);
}

TEST(CrossEntropyTest, UniformLogitsGiveLogC) {
  Tensor logits = Tensor::Zeros({3, 4});
  EXPECT_NEAR(CrossEntropyWithLogits(logits, {0, 1, 2}).item(),
              std::log(4.0f), 1e-5f);
}

TEST(BceWithLogitsTest, MaskSkipsMissingLabels) {
  Tensor logits = Tensor::FromVector({1, 3}, {100.0f, -100.0f, 0.0f});
  Tensor targets = Tensor::FromVector({1, 3}, {1.0f, 0.0f, 1.0f});
  Tensor mask = Tensor::FromVector({1, 3}, {1.0f, 1.0f, 0.0f});
  // Both unmasked entries are perfectly predicted -> ~0 loss.
  EXPECT_NEAR(BceWithLogits(logits, targets, mask).item(), 0.0f, 1e-4f);
  Tensor full_mask = Tensor::Ones({1, 3});
  // Adding the uncertain entry (z=0, t=1) contributes log(2)/3.
  EXPECT_NEAR(BceWithLogits(logits, targets, full_mask).item(),
              std::log(2.0f) / 3.0f, 1e-4f);
}

TEST(DetachTest, BreaksAutogradHistory) {
  Tensor x = Tensor::FromVector({1, 2}, {1, 2}, /*requires_grad=*/true);
  Tensor y = MulScalar(x, 2.0f);
  Tensor d = y.Detach();
  EXPECT_FALSE(d.requires_grad());
  Tensor loss = Sum(d);
  EXPECT_FALSE(loss.requires_grad());
}

}  // namespace
}  // namespace sgcl
