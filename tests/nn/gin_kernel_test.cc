// Golden tests for the shared GIN row kernel (nn/gin_kernel.h) through
// both of its users:
//  - GinConv's autograd node must reproduce, bit for bit, the output and
//    every gradient of the per-op tape composition it replaced (the
//    encoder's ReLU included), on multi-graph batches with self-loops,
//    isolated nodes, no edges and no nodes, with and without edge
//    weights, at every thread count, for widths and node counts that
//    fill the kernel's 4 x 32 register tiles and that leave each tail.
//  - GinInferencePlan must reproduce GnnEncoder::EncodeNodes bit for bit,
//    which holds only while the library builds without floating-point
//    contraction.
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/parallel.h"
#include "gtest/gtest.h"
#include "nn/gin_conv.h"
#include "nn/gin_inference.h"
#include "tensor/graph_ops.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace sgcl {
namespace {

// The GIN layer and the ReLU after it as the per-op composition
// GinConv::Forward and GnnEncoder::EncodeNodes used to build.
Tensor PerOpGinLayer(const GinConv& conv, const Tensor& x,
                     const GraphBatch& batch) {
  Tensor messages = GatherRows(x, batch.edge_src);
  if (batch.edge_weights.numel() > 0) {
    messages = MulBroadcastCol(messages, batch.edge_weights);
  }
  Tensor neighbor_sum =
      ScatterAddRows(messages, batch.edge_dst, batch.num_nodes);
  Tensor agg = Add(MulScalar(x, 1.0f), neighbor_sum);
  Tensor h = Relu(conv.mlp().layer(0).Forward(agg));
  return Relu(conv.mlp().layer(1).Forward(h));
}

void ExpectBitEqual(const std::vector<float>& got,
                    const std::vector<float>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  size_t mismatches = 0, first = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<uint32_t>(got[i]) != std::bit_cast<uint32_t>(want[i])) {
      if (mismatches++ == 0) first = i;
    }
  }
  EXPECT_EQ(mismatches, 0u) << what << ": first mismatch at " << first
                            << " (" << got[first] << " vs " << want[first]
                            << ")";
}

// Edgeless graph with features uniform in [-1, 1).
Graph RandomNodes(int64_t n, int64_t feat_dim, Rng* rng) {
  Graph g(n, feat_dim);
  for (int64_t v = 0; v < n; ++v) {
    for (int64_t j = 0; j < feat_dim; ++j) {
      g.set_feature(v, j, 2.0f * static_cast<float>(rng->Uniform()) - 1.0f);
    }
  }
  return g;
}

// Random graph whose last node is isolated (when n >= 3), optionally
// with self-loops.
Graph RandomGraph(int64_t n, int64_t feat_dim, bool self_loops, Rng* rng) {
  Graph g = RandomNodes(n, feat_dim, rng);
  const int64_t wired = n >= 3 ? n - 1 : n;
  for (int64_t v = 1; v < wired; ++v) {
    g.AddUndirectedEdge(v, rng->UniformInt(v));
  }
  for (int64_t e = 0; e < wired; ++e) {
    const int64_t a = rng->UniformInt(wired), b = rng->UniformInt(wired);
    if (a != b) g.AddUndirectedEdge(a, b);
  }
  if (self_loops && wired > 0) {
    g.AddUndirectedEdge(0, 0);
    if (wired > 2) g.AddUndirectedEdge(2, 2);
  }
  return g;
}

GraphBatch RandomBatch(const std::vector<int64_t>& sizes, int64_t feat_dim,
                       Rng* rng) {
  std::vector<Graph> graphs;
  for (size_t i = 0; i < sizes.size(); ++i) {
    graphs.push_back(RandomGraph(sizes[i], feat_dim, i % 2 == 0, rng));
  }
  return GraphBatch::FromGraphs(graphs);
}

Tensor RandomTensor(int64_t rows, int64_t cols, float lo, float hi, Rng* rng,
                    bool requires_grad = false) {
  std::vector<float> v(static_cast<size_t>(rows * cols));
  for (float& f : v) {
    f = lo + (hi - lo) * static_cast<float>(rng->Uniform());
  }
  return Tensor::FromVector({rows, cols}, std::move(v), requires_grad);
}

// Every gradient buffer starts from the same non-zero values, so the
// test also pins that gradients accumulate onto what is already there.
void PrefillGrad(Tensor t) {
  t.impl()->EnsureGradAllocated();
  for (size_t i = 0; i < t.impl()->grad.size(); ++i) {
    t.impl()->grad[i] = 0.01f * static_cast<float>(i % 7) - 0.02f;
  }
}

struct TwoLayerRun {
  std::vector<float> out;
  std::vector<std::vector<float>> grads;  // x, edge weights, then params
};

// Two stacked layers, loss = sum(y2 * r): the first layer's input is a
// leaf and the second's an interior tape node, and the edge weights
// (when present) feed both layers.
TwoLayerRun RunTwoLayers(bool per_op, const GinConv& l1, const GinConv& l2,
                         const GraphBatch& batch, const Tensor& x,
                         const Tensor& r) {
  std::vector<Tensor> leaves = {x};
  if (batch.edge_weights.numel() > 0) leaves.push_back(batch.edge_weights);
  for (const GinConv* conv : {&l1, &l2}) {
    for (const Tensor& p : conv->Parameters()) leaves.push_back(p);
  }
  for (const Tensor& t : leaves) {
    if (t.requires_grad()) PrefillGrad(t);
  }
  auto layer = [&](const GinConv& conv, const Tensor& in) {
    return per_op ? PerOpGinLayer(conv, in, batch) : conv.Forward(in, batch);
  };
  Tensor y = layer(l2, layer(l1, x));
  Sum(Mul(y, r)).Backward();
  TwoLayerRun run;
  run.out = y.values();
  for (const Tensor& t : leaves) run.grads.push_back(t.grad_values());
  return run;
}

void ExpectNodeMatchesPerOp(const GraphBatch& batch, int64_t in_dim,
                            int64_t out_dim, bool x_grad, uint64_t seed) {
  Rng rng(seed);
  GinConv l1(in_dim, out_dim, &rng);
  GinConv l2(out_dim, out_dim, &rng);
  Tensor x = batch.features.Detach();
  x.set_requires_grad(x_grad);
  const Tensor r = RandomTensor(batch.num_nodes, out_dim, -1.0f, 1.0f, &rng);
  const TwoLayerRun want = RunTwoLayers(/*per_op=*/true, l1, l2, batch, x, r);
  const TwoLayerRun got = RunTwoLayers(/*per_op=*/false, l1, l2, batch, x, r);
  ExpectBitEqual(got.out, want.out, "output");
  ASSERT_EQ(got.grads.size(), want.grads.size());
  for (size_t i = 0; i < got.grads.size(); ++i) {
    ExpectBitEqual(got.grads[i], want.grads[i],
                   "gradient of leaf " + std::to_string(i));
  }
}

class GinConvNodeTest : public ::testing::Test {
 protected:
  ~GinConvNodeTest() override { SetParallelThreads(0); }
};

TEST_F(GinConvNodeTest, MatchesPerOpOnRandomMultiGraphBatches) {
  Rng rng(101);
  // Node counts of 35, 5 and 841 (3, 1 and 1 mod 4), 1, 2, 3 and 10 leave
  // every tail of the 4-row tiles; the batches of 840 and 841 nodes are
  // large enough to split every ParallelFor.
  std::vector<int64_t> split_plus_one(40, 21);
  split_plus_one.push_back(1);
  const std::vector<std::vector<int64_t>> shapes = {
      {1, 6, 11, 17}, {2, 3}, std::vector<int64_t>(40, 21), {1}, {2}, {3},
      {4, 6}, split_plus_one};
  // Hidden widths: 7 is all column tail, 40 one 32-column register tile
  // plus a tail, and 32 and 64 fill whole tiles.
  const std::vector<std::pair<int64_t, uint64_t>> widths = {
      {7, 11}, {40, 12}, {32, 16}, {64, 17}};
  for (const std::vector<int64_t>& sizes : shapes) {
    GraphBatch batch = RandomBatch(sizes, 5, &rng);
    for (const bool x_grad : {true, false}) {
      for (const auto& [hidden, seed] : widths) {
        SCOPED_TRACE(::testing::Message() << batch.num_nodes << " nodes, x_grad "
                                        << x_grad << ", hidden " << hidden);
        ExpectNodeMatchesPerOp(batch, 5, hidden, x_grad, seed);
      }
    }
  }
}

TEST_F(GinConvNodeTest, MatchesPerOpWithEdgeWeights) {
  Rng rng(102);
  for (const std::vector<int64_t>& sizes :
       {std::vector<int64_t>{1, 6, 11, 17}, std::vector<int64_t>(30, 19)}) {
    GraphBatch batch = RandomBatch(sizes, 4, &rng);
    batch.edge_weights =
        RandomTensor(static_cast<int64_t>(batch.edge_src.size()), 1, 0.1f,
                     1.5f, &rng, /*requires_grad=*/true);
    for (const bool x_grad : {true, false}) {
      SCOPED_TRACE(::testing::Message() << batch.num_nodes << " nodes, x_grad "
                                      << x_grad);
      ExpectNodeMatchesPerOp(batch, 4, 9, x_grad, 13);
    }
  }
}

TEST_F(GinConvNodeTest, MatchesPerOpWithoutEdgesOrNodes) {
  Rng rng(103);
  const GraphBatch no_edges = GraphBatch::FromGraphs(
      {RandomNodes(1, 3, &rng), RandomNodes(4, 3, &rng),
       RandomNodes(3, 3, &rng)});
  ASSERT_TRUE(no_edges.edge_src.empty());
  ExpectNodeMatchesPerOp(no_edges, 3, 6, /*x_grad=*/true, 14);

  const GraphBatch no_nodes = GraphBatch::FromGraphs({Graph(0, 3)});
  ASSERT_EQ(no_nodes.num_nodes, 0);
  ExpectNodeMatchesPerOp(no_nodes, 3, 6, /*x_grad=*/true, 15);
}

TEST_F(GinConvNodeTest, GradientsBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(104);
  GraphBatch batch = RandomBatch(std::vector<int64_t>(48, 23), 16, &rng);
  batch.edge_weights =
      RandomTensor(static_cast<int64_t>(batch.edge_src.size()), 1, 0.1f, 1.5f,
                   &rng, /*requires_grad=*/true);
  GinConv l1(16, 32, &rng);
  GinConv l2(32, 32, &rng);
  Tensor x = batch.features.Detach();
  x.set_requires_grad(true);
  const Tensor r = RandomTensor(batch.num_nodes, 32, -1.0f, 1.0f, &rng);
  SetParallelThreads(1);
  const TwoLayerRun serial = RunTwoLayers(false, l1, l2, batch, x, r);
  for (const int threads : {2, 4, 8}) {
    SetParallelThreads(threads);
    const TwoLayerRun run = RunTwoLayers(false, l1, l2, batch, x, r);
    ExpectBitEqual(run.out, serial.out, std::to_string(threads) + " threads");
    for (size_t i = 0; i < run.grads.size(); ++i) {
      ExpectBitEqual(run.grads[i], serial.grads[i],
                     std::to_string(threads) + " threads, leaf " +
                         std::to_string(i));
    }
  }
}

// The node applies the encoder's ReLU itself: no output element is
// negative or -0.0f, and the random pre-activations are not all clamped.
TEST_F(GinConvNodeTest, ForwardOutputIsActivated) {
  Rng rng(108);
  const GraphBatch batch = RandomBatch({1, 6, 11, 17}, 5, &rng);
  GinConv conv(5, 40, &rng);
  const Tensor out = conv.Forward(batch.features, batch);
  size_t positive = 0;
  for (const float v : out.values()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_FALSE(std::signbit(v));
    if (v > 0.0f) ++positive;
  }
  EXPECT_GT(positive, 0u);
}

// The node counts its two dense layers in tensor/matmul_flops, as the
// two MatMul calls it replaced did.
TEST_F(GinConvNodeTest, TalliesDenseLayerFlops) {
  Rng rng(105);
  GraphBatch batch = RandomBatch({5, 9}, 3, &rng);
  GinConv conv(3, 8, &rng);
  Counter* flops = MetricsRegistry::Global().GetCounter("tensor/matmul_flops");
  const int64_t before = flops->value();
  (void)conv.Forward(batch.features, batch);
  EXPECT_EQ(flops->value() - before, 2 * batch.num_nodes * (3 * 8 + 8 * 8));
}

TEST(GinConvNodeDeathTest, OutOfRangeEdgeIndexAborts) {
  Rng rng(106);
  GinConv conv(2, 3, &rng);
  Graph g = testing::PathGraph3(2);
  GraphBatch bad_src = GraphBatch::FromGraphPtrs({&g});
  bad_src.edge_src[1] = 3;
  EXPECT_DEATH(conv.Forward(bad_src.features, bad_src), "SGCL_CHECK failed");
  GraphBatch bad_dst = GraphBatch::FromGraphPtrs({&g});
  bad_dst.edge_dst[0] = -1;
  EXPECT_DEATH(conv.Forward(bad_dst.features, bad_dst), "SGCL_CHECK failed");
  GraphBatch bad_weights = GraphBatch::FromGraphPtrs({&g});
  bad_weights.edge_weights = Tensor::Ones({3, 1});  // 4 edges
  EXPECT_DEATH(conv.Forward(bad_weights.features, bad_weights),
               "SGCL_CHECK failed");
}

TEST(GinInferencePlanTest, EncodeBatchMatchesEncoderBitwise) {
  Rng rng(107);
  const GraphBatch batch = RandomBatch({1, 6, 11, 17, 30, 2}, 7, &rng);
  for (const int64_t hidden : {16, 32, 40, 64}) {
    EncoderConfig cfg;
    cfg.arch = GnnArch::kGin;
    cfg.in_dim = 7;
    cfg.hidden_dim = hidden;
    cfg.num_layers = 3;
    GnnEncoder encoder(cfg, &rng);
    const GinInferencePlan plan = GinInferencePlan::Build(encoder);
    ASSERT_TRUE(plan.valid());
    std::vector<float> fused(static_cast<size_t>(batch.num_nodes * hidden));
    plan.EncodeBatch(batch, fused.data());
    ExpectBitEqual(fused, encoder.EncodeNodes(batch.features, batch).values(),
                   "hidden " + std::to_string(hidden));
  }
}

}  // namespace
}  // namespace sgcl
