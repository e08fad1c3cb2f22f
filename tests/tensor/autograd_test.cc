// Finite-difference gradient checks over the op library, plus tape
// mechanics (accumulation, reuse, deep chains).
#include <cmath>

#include "gtest/gtest.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "test_util.h"

namespace sgcl {
namespace {

using testing::GradCheck;

Tensor SmallInput() {
  // Values away from relu/max kinks.
  return Tensor::FromVector({2, 3}, {0.7f, -1.3f, 2.1f, -0.4f, 1.6f, -2.2f});
}

TEST(GradCheckTest, MatMul) {
  Tensor b = Tensor::FromVector({3, 2}, {0.5f, -1, 2, 0.3f, -0.7f, 1.1f});
  GradCheck(SmallInput(),
            [&](const Tensor& x) { return Sum(MatMul(x, b)); });
}

TEST(GradCheckTest, MatMulSecondArg) {
  Tensor a = Tensor::FromVector({2, 2}, {1, -0.5f, 0.25f, 2});
  GradCheck(Tensor::FromVector({2, 3}, {1, 2, -1, 0.5f, -2, 0.1f}),
            [&](const Tensor& x) { return SumSquares(MatMul(a, x)); });
}

TEST(GradCheckTest, MatMulTransB) {
  Tensor b = Tensor::FromVector({4, 3},
                                {0.5f, -1, 2, 0.3f, -0.7f, 1.1f, 1, 0, -1, 2,
                                 0.2f, -0.4f});
  GradCheck(SmallInput(),
            [&](const Tensor& x) { return SumSquares(MatMulTransB(x, b)); });
  GradCheck(b, [&](const Tensor& x) {
    return SumSquares(MatMulTransB(SmallInput(), x));
  });
}

TEST(GradCheckTest, Transpose) {
  GradCheck(SmallInput(),
            [](const Tensor& x) { return SumSquares(Transpose(x)); });
}

TEST(GradCheckTest, AddBothArgsAndBroadcast) {
  Tensor other = Tensor::FromVector({2, 3}, {1, 1, -1, 2, 0.5f, 0});
  GradCheck(SmallInput(),
            [&](const Tensor& x) { return SumSquares(Add(x, other)); });
  Tensor row = Tensor::FromVector({1, 3}, {0.3f, -0.6f, 0.9f});
  GradCheck(SmallInput(),
            [&](const Tensor& x) { return SumSquares(Add(x, row)); });
  // Gradient through the broadcast side.
  GradCheck(row, [&](const Tensor& r) {
    return SumSquares(Add(SmallInput(), r));
  });
}

TEST(GradCheckTest, SubMul) {
  Tensor other = Tensor::FromVector({2, 3}, {2, -1, 0.5f, 1, 1, -2});
  GradCheck(SmallInput(),
            [&](const Tensor& x) { return SumSquares(Sub(x, other)); });
  GradCheck(SmallInput(),
            [&](const Tensor& x) { return Sum(Mul(x, other)); });
  GradCheck(SmallInput(),
            [&](const Tensor& x) { return SumSquares(Mul(x, x)); });
}

TEST(GradCheckTest, MulBroadcastCol) {
  Tensor c = Tensor::FromVector({2, 1}, {1.5f, -0.5f});
  GradCheck(SmallInput(), [&](const Tensor& x) {
    return SumSquares(MulBroadcastCol(x, c));
  });
  GradCheck(c, [&](const Tensor& cc) {
    return SumSquares(MulBroadcastCol(SmallInput(), cc));
  });
}

TEST(GradCheckTest, Activations) {
  GradCheck(SmallInput(), [](const Tensor& x) { return Sum(Relu(x)); });
  GradCheck(SmallInput(),
            [](const Tensor& x) { return Sum(LeakyRelu(x, 0.2f)); });
  GradCheck(SmallInput(), [](const Tensor& x) { return Sum(Sigmoid(x)); });
  GradCheck(SmallInput(), [](const Tensor& x) { return Sum(Exp(x)); });
}

TEST(GradCheckTest, LogOnPositiveInput) {
  Tensor pos = Tensor::FromVector({1, 4}, {0.5f, 1.2f, 3.3f, 0.9f});
  GradCheck(pos, [](const Tensor& x) { return Sum(Log(x)); });
}

TEST(GradCheckTest, Reductions) {
  GradCheck(SmallInput(), [](const Tensor& x) { return Mean(x); });
  GradCheck(SmallInput(), [](const Tensor& x) { return SumSquares(x); });
  GradCheck(SmallInput(), [](const Tensor& x) { return FrobeniusNorm(x); });
  GradCheck(SmallInput(), [](const Tensor& x) { return SumSquares(RowSum(x)); });
}

TEST(GradCheckTest, RowL2Normalize) {
  Tensor w = Tensor::FromVector({3, 2}, {0.3f, -0.8f, 1.0f, 0.5f, -0.5f, 0.5f});
  GradCheck(SmallInput(), [&](const Tensor& x) {
    return Sum(Mul(RowL2Normalize(x), RowL2Normalize(x)));
  });
  GradCheck(SmallInput(), [&](const Tensor& x) {
    // Asymmetric downstream use to exercise the full Jacobian.
    Tensor y = RowL2Normalize(x);
    return Sum(MatMul(y, Tensor::FromVector({3, 1}, {1.0f, -2.0f, 0.5f})));
  });
  (void)w;
}

TEST(GradCheckTest, ConcatCols) {
  Tensor b = Tensor::FromVector({2, 2}, {0.1f, 0.2f, 0.3f, 0.4f});
  GradCheck(SmallInput(), [&](const Tensor& x) {
    return SumSquares(ConcatCols(x, b));
  });
  GradCheck(b, [&](const Tensor& x) {
    return SumSquares(ConcatCols(SmallInput(), x));
  });
}

TEST(GradCheckTest, CrossEntropy) {
  GradCheck(SmallInput(), [](const Tensor& x) {
    return CrossEntropyWithLogits(x, {2, 0});
  });
}

TEST(GradCheckTest, BceWithLogits) {
  Tensor targets = Tensor::FromVector({2, 3}, {1, 0, 1, 0, 1, 0});
  Tensor mask = Tensor::FromVector({2, 3}, {1, 1, 0, 1, 1, 1});
  GradCheck(SmallInput(), [&](const Tensor& x) {
    return BceWithLogits(x, targets, mask);
  });
}

TEST(AutogradTest, GradAccumulatesWhenTensorReused) {
  Tensor x = Tensor::FromVector({1, 1}, {3.0f}, /*requires_grad=*/true);
  // y = x*x via Mul(x, x): dy/dx = 2x = 6.
  Tensor y = Mul(x, x);
  Sum(y).Backward();
  EXPECT_NEAR(x.grad()[0], 6.0f, 1e-5f);
}

TEST(AutogradTest, DiamondGraphAccumulatesBothPaths) {
  Tensor x = Tensor::FromVector({1, 1}, {2.0f}, /*requires_grad=*/true);
  Tensor a = MulScalar(x, 3.0f);
  Tensor b = MulScalar(x, 5.0f);
  Tensor out = Add(a, b);  // d/dx = 8
  Sum(out).Backward();
  EXPECT_NEAR(x.grad()[0], 8.0f, 1e-5f);
}

TEST(AutogradTest, BackwardTwiceAccumulates) {
  Tensor x = Tensor::FromVector({1, 1}, {1.0f}, /*requires_grad=*/true);
  Tensor loss = MulScalar(x, 4.0f);
  loss.Backward();
  EXPECT_NEAR(x.grad()[0], 4.0f, 1e-5f);
  Tensor loss2 = MulScalar(x, 4.0f);
  loss2.Backward();
  EXPECT_NEAR(x.grad()[0], 8.0f, 1e-5f);
  x.ZeroGrad();
  EXPECT_EQ(x.grad()[0], 0.0f);
}

TEST(AutogradTest, DeepChainDoesNotOverflowStack) {
  Tensor x = Tensor::FromVector({1, 1}, {1.0f}, /*requires_grad=*/true);
  Tensor y = x;
  for (int i = 0; i < 20000; ++i) y = AddScalar(y, 0.0f);
  Sum(y).Backward();
  EXPECT_NEAR(x.grad()[0], 1.0f, 1e-5f);
}

TEST(AutogradTest, NoGradInputsProduceNoTape) {
  Tensor x = Tensor::FromVector({1, 2}, {1, 2});
  Tensor y = Relu(MatMulTransB(x, Tensor::FromVector({3, 2}, {1, 0, 0, 1, 1, 1})));
  EXPECT_FALSE(y.requires_grad());
  EXPECT_TRUE(y.impl()->parents.empty());
}

}  // namespace
}  // namespace sgcl
