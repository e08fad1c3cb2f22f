#include "tensor/optimizer.h"

#include <cmath>

#include "gtest/gtest.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace sgcl {
namespace {

// Minimizes f(w) = ||w - target||^2 and expects convergence.
template <typename MakeOpt>
void ExpectConvergence(MakeOpt make_opt, int steps, float tol) {
  Tensor w = Tensor::FromVector({1, 3}, {5.0f, -3.0f, 1.0f},
                                /*requires_grad=*/true);
  Tensor target = Tensor::FromVector({1, 3}, {1.0f, 2.0f, -1.0f});
  auto opt = make_opt(std::vector<Tensor>{w});
  for (int i = 0; i < steps; ++i) {
    opt->ZeroGrad();
    Tensor loss = SumSquares(Sub(w, target));
    loss.Backward();
    opt->Step();
  }
  for (int j = 0; j < 3; ++j) {
    EXPECT_NEAR(w.data()[j], target.data()[j], tol) << "coord " << j;
  }
}

TEST(AdamTest, ConvergesOnQuadratic) {
  ExpectConvergence(
      [](std::vector<Tensor> p) {
        return std::make_unique<Adam>(std::move(p), /*lr=*/0.1f);
      },
      500, 1e-2f);
}

TEST(OptimizerTest, ZeroGradClears) {
  Tensor w = Tensor::FromVector({1, 2}, {1.0f, 2.0f}, /*requires_grad=*/true);
  Adam opt({w}, 0.1f);
  SumSquares(w).Backward();
  EXPECT_NE(w.grad()[0], 0.0f);
  opt.ZeroGrad();
  EXPECT_EQ(w.grad()[0], 0.0f);
  EXPECT_EQ(w.grad()[1], 0.0f);
}

TEST(OptimizerTest, ClipGradNormRescales) {
  Tensor w = Tensor::FromVector({1, 2}, {0.0f, 0.0f}, /*requires_grad=*/true);
  Adam opt({w}, 0.1f);
  w.impl()->grad = {3.0f, 4.0f};  // norm 5
  const float pre = opt.ClipGradNorm(1.0f);
  EXPECT_NEAR(pre, 5.0f, 1e-4f);
  const float post = std::hypot(w.grad()[0], w.grad()[1]);
  EXPECT_NEAR(post, 1.0f, 1e-3f);
}

TEST(OptimizerTest, ClipGradNormNoOpBelowThreshold) {
  Tensor w = Tensor::FromVector({1, 2}, {0.0f, 0.0f}, /*requires_grad=*/true);
  Adam opt({w}, 0.1f);
  w.impl()->grad = {0.3f, 0.4f};  // norm 0.5
  opt.ClipGradNorm(1.0f);
  EXPECT_FLOAT_EQ(w.grad()[0], 0.3f);
  EXPECT_FLOAT_EQ(w.grad()[1], 0.4f);
}

TEST(InitTest, XavierBounds) {
  Rng rng(1);
  Tensor w = XavierUniform(50, 50, &rng);
  EXPECT_TRUE(w.requires_grad());
  const double bound = std::sqrt(6.0 / 100.0);
  for (float v : w.values()) {
    EXPECT_GE(v, -bound);
    EXPECT_LE(v, bound);
  }
}

TEST(InitTest, ZerosParamTrainable) {
  Tensor b = ZerosParam(1, 8);
  EXPECT_TRUE(b.requires_grad());
  for (float v : b.values()) EXPECT_EQ(v, 0.0f);
}

}  // namespace
}  // namespace sgcl
