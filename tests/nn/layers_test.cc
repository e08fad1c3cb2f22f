// Unit tests for Linear/MLP and the four graph convolution layers,
// including gradient flow through message passing.
#include <cmath>
#include <vector>

#include "gtest/gtest.h"
#include "nn/gat_conv.h"
#include "nn/gcn_conv.h"
#include "nn/gin_conv.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "nn/sage_conv.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "test_util.h"

namespace sgcl {
namespace {

GraphBatch TestBatch() {
  static Graph a = testing::PathGraph3(3);
  static Graph b = testing::HouseGraph(3);
  return GraphBatch::FromGraphPtrs({&a, &b});
}

TEST(LinearTest, ShapesAndBias) {
  Rng rng(1);
  Linear layer(4, 2, &rng);
  Tensor x = Tensor::Ones({3, 4});
  Tensor y = layer.Forward(x);
  EXPECT_EQ(y.rows(), 3);
  EXPECT_EQ(y.cols(), 2);
  EXPECT_EQ(layer.Parameters().size(), 2u);
  Linear no_bias(4, 2, &rng, /*use_bias=*/false);
  EXPECT_EQ(no_bias.Parameters().size(), 1u);
}

TEST(LinearTest, ZeroInputGivesBias) {
  Rng rng(2);
  Linear layer(3, 2, &rng);
  Tensor y = layer.Forward(Tensor::Zeros({1, 3}));
  // Bias initialized to zero.
  EXPECT_FLOAT_EQ(y.At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y.At(0, 1), 0.0f);
}

TEST(MlpTest, DepthAndParams) {
  Rng rng(3);
  Mlp mlp({4, 8, 8, 2}, &rng);
  EXPECT_EQ(mlp.Parameters().size(), 6u);  // 3 layers x (W, b)
  EXPECT_EQ(mlp.in_dim(), 4);
  EXPECT_EQ(mlp.out_dim(), 2);
  Tensor y = mlp.Forward(Tensor::Ones({5, 4}));
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 2);
}

TEST(MlpTest, FinalActivationIsNonNegative) {
  Rng rng(4);
  Mlp mlp({3, 4}, &rng, /*final_activation=*/true);
  Tensor y = mlp.Forward(Tensor::FromVector({2, 3}, {1, -2, 3, -1, 2, -3}));
  for (float v : y.values()) EXPECT_GE(v, 0.0f);
}

TEST(MlpTest, TrainsToFitXor) {
  Rng rng(5);
  Mlp mlp({2, 8, 1}, &rng);
  Adam opt(mlp.Parameters(), 0.05f);
  Tensor x = Tensor::FromVector({4, 2}, {0, 0, 0, 1, 1, 0, 1, 1});
  Tensor t = Tensor::FromVector({4, 1}, {0, 1, 1, 0});
  Tensor mask = Tensor::Ones({4, 1});
  float last = 0.0f;
  for (int i = 0; i < 500; ++i) {
    opt.ZeroGrad();
    Tensor loss = BceWithLogits(mlp.Forward(x), t, mask);
    loss.Backward();
    opt.Step();
    last = loss.item();
  }
  EXPECT_LT(last, 0.1f);
}

template <typename Conv>
void CheckConvBasics(int expected_param_count) {
  Rng rng(7);
  Conv conv(3, 4, &rng);
  GraphBatch batch = TestBatch();
  Tensor y = conv.Forward(batch.features, batch);
  EXPECT_EQ(y.rows(), batch.num_nodes);
  EXPECT_EQ(y.cols(), 4);
  EXPECT_EQ(static_cast<int>(conv.Parameters().size()),
            expected_param_count);
  for (float v : y.values()) EXPECT_TRUE(std::isfinite(v));
}

TEST(GinConvTest, ShapeAndParams) { CheckConvBasics<GinConv>(4); }
TEST(GcnConvTest, ShapeAndParams) { CheckConvBasics<GcnConv>(2); }
TEST(SageConvTest, ShapeAndParams) { CheckConvBasics<SageConv>(3); }

TEST(GatConvTest, MultiHeadAveragesToSameShape) {
  Rng rng(9);
  GatConv conv(3, 4, &rng);
  GraphBatch batch = TestBatch();
  Tensor y = conv.Forward(batch.features, batch);
  EXPECT_EQ(y.rows(), batch.num_nodes);
  EXPECT_EQ(y.cols(), 4);
  EXPECT_EQ(conv.Parameters().size(), 7u);  // 2x(W,a_src,a_dst) + bias
}

TEST(GinConvTest, AggregatesNeighborSum) {
  // With identity MLP weights and zero biases, non-negative features pass
  // both ReLUs unchanged, so the layer's output is its GIN-0 aggregate
  // x_v + sum of neighbors: isolated nodes keep their own features, and
  // connected nodes add each other's.
  Rng rng(10);
  GinConv conv(2, 2, &rng);
  const std::vector<Tensor> params = conv.Parameters();  // W1 b1 W2 b2
  params[0].impl()->data = {1.0f, 0.0f, 0.0f, 1.0f};
  params[1].impl()->data = {0.0f, 0.0f};
  params[2].impl()->data = {1.0f, 0.0f, 0.0f, 1.0f};
  params[3].impl()->data = {0.0f, 0.0f};
  Graph isolated(2, 2);
  isolated.set_feature(0, 0, 1.0f);
  isolated.set_feature(1, 0, 2.0f);
  Graph connected = isolated;
  connected.AddUndirectedEdge(0, 1);
  GraphBatch bi = GraphBatch::FromGraphPtrs({&isolated});
  GraphBatch bc = GraphBatch::FromGraphPtrs({&connected});
  EXPECT_EQ(conv.Forward(bi.features, bi).values(),
            (std::vector<float>{1.0f, 0.0f, 2.0f, 0.0f}));
  EXPECT_EQ(conv.Forward(bc.features, bc).values(),
            (std::vector<float>{3.0f, 0.0f, 3.0f, 0.0f}));
}

TEST(GcnConvTest, PermutationEquivariant) {
  Rng rng(11);
  GcnConv conv(3, 4, &rng);
  Graph g = testing::HouseGraph(3);
  // Permute node order: relabel v -> (v+2) % 5.
  Graph perm(5, 3);
  auto p = [](int64_t v) { return (v + 2) % 5; };
  for (int64_t v = 0; v < 5; ++v) {
    for (int64_t j = 0; j < 3; ++j) perm.set_feature(p(v), j, g.feature(v, j));
  }
  for (size_t r = 0; r < g.edge_src().size(); ++r) {
    if (g.edge_src()[r] < g.edge_dst()[r]) {
      perm.AddUndirectedEdge(p(g.edge_src()[r]), p(g.edge_dst()[r]));
    }
  }
  GraphBatch b1 = GraphBatch::FromGraphPtrs({&g});
  GraphBatch b2 = GraphBatch::FromGraphPtrs({&perm});
  Tensor y1 = conv.Forward(b1.features, b1);
  Tensor y2 = conv.Forward(b2.features, b2);
  for (int64_t v = 0; v < 5; ++v) {
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(y1.At(v, j), y2.At(p(v), j), 1e-4f);
    }
  }
}

TEST(SageConvTest, IsolatedNodeUsesOnlySelfTerm) {
  Rng rng(12);
  SageConv conv(2, 3, &rng);
  Graph g(3, 2);
  g.AddUndirectedEdge(0, 1);  // node 2 isolated
  g.set_feature(2, 0, 1.5f);
  GraphBatch batch = GraphBatch::FromGraphPtrs({&g});
  Tensor y = conv.Forward(batch.features, batch);
  // Isolated single-node graph with the same feature must match row 2.
  Graph solo(1, 2);
  solo.set_feature(0, 0, 1.5f);
  GraphBatch sb = GraphBatch::FromGraphPtrs({&solo});
  Tensor ys = conv.Forward(sb.features, sb);
  for (int64_t j = 0; j < 3; ++j) EXPECT_NEAR(y.At(2, j), ys.At(0, j), 1e-5f);
}

template <typename Conv>
void CheckGradFlow() {
  Rng rng(13);
  Conv conv(3, 4, &rng);
  GraphBatch batch = TestBatch();
  Adam opt(conv.Parameters(), 0.01f);
  opt.ZeroGrad();
  Tensor loss = SumSquares(conv.Forward(batch.features, batch));
  loss.Backward();
  // Every parameter must receive some gradient signal.
  double total = 0.0;
  for (const Tensor& p : conv.Parameters()) {
    for (float gv : p.impl()->grad) total += std::fabs(gv);
  }
  EXPECT_GT(total, 1e-6);
}

TEST(GradFlowTest, Gin) { CheckGradFlow<GinConv>(); }
TEST(GradFlowTest, Gcn) { CheckGradFlow<GcnConv>(); }
TEST(GradFlowTest, Sage) { CheckGradFlow<SageConv>(); }

TEST(GradFlowTest, Gat) {
  Rng rng(14);
  GatConv conv(3, 4, &rng);
  GraphBatch batch = TestBatch();
  Tensor loss = SumSquares(conv.Forward(batch.features, batch));
  loss.Backward();
  double total = 0.0;
  for (const Tensor& p : conv.Parameters()) {
    for (float gv : p.impl()->grad) total += std::fabs(gv);
  }
  EXPECT_GT(total, 1e-6);
}

}  // namespace
}  // namespace sgcl
