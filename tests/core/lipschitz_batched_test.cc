// Golden tests for the parallel exact Lipschitz generator. GIN's fused
// masked-view kernel must reproduce the naive per-node re-encoding loop
// (ExactConstantsReference) on graphs with self-loops, isolated nodes,
// and degenerate sizes, for every partition of the views and every
// thread count. Other encoders run that loop itself on pool threads, one
// graph per task, and must match it called graph by graph.
#include <algorithm>
#include <cmath>
#include <vector>

#include "common/parallel.h"
#include "core/lipschitz_generator.h"
#include "graph/graph_batch.h"
#include "gtest/gtest.h"
#include "nn/gin_inference.h"
#include "test_util.h"

namespace sgcl {
namespace {

EncoderConfig SmallEncoderConfig(int64_t in_dim) {
  EncoderConfig cfg;
  cfg.arch = GnnArch::kGin;
  cfg.in_dim = in_dim;
  cfg.hidden_dim = 16;
  cfg.num_layers = 2;
  return cfg;
}

// Random graph with controllable self-loops and a guaranteed isolated
// node (the last one, when n >= 3).
Graph RandomGraph(int64_t n, int64_t feat_dim, bool self_loops, Rng* rng) {
  Graph g(n, feat_dim);
  for (int64_t v = 0; v < n; ++v) {
    for (int64_t j = 0; j < feat_dim; ++j) {
      g.set_feature(v, j, static_cast<float>(rng->Uniform()) - 0.5f);
    }
  }
  const int64_t wired = n >= 3 ? n - 1 : n;  // keep the last node isolated
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

// GIN encoders take the fused kernel, whose arithmetic matches the tape
// encoder of the naive reference exactly (the library builds without
// floating-point contraction), so their constants compare exactly.
void ExpectExact(const std::vector<float>& a, const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "node " << i;
  }
}

class LipschitzBatchedTest : public ::testing::Test {
 protected:
  ~LipschitzBatchedTest() override { SetParallelThreads(0); }
};

TEST_F(LipschitzBatchedTest, MatchesNaiveReferenceOnRandomGraphs) {
  Rng rng(7);
  GnnEncoder enc(SmallEncoderConfig(4), &rng);
  for (const bool self_loops : {false, true}) {
    for (const int64_t n : {2, 5, 9, 17}) {
      Graph g = RandomGraph(n, 4, self_loops, &rng);
      LipschitzGenerator gen(&enc, LipschitzMode::kExact);
      ExpectExact(gen.ComputeConstants(g), gen.ExactConstantsReference(g));
    }
  }
}

// Non-GIN encoders run the per-node reference on pool threads, one graph
// per task; the batch must equal the graph-by-graph calls at every
// thread count.
TEST_F(LipschitzBatchedTest, MatchesNaiveReferenceOnOtherArchitectures) {
  Rng rng(20);
  for (const GnnArch arch : {GnnArch::kGcn, GnnArch::kGat, GnnArch::kSage}) {
    EncoderConfig cfg = SmallEncoderConfig(3);
    cfg.arch = arch;
    GnnEncoder enc(cfg, &rng);
    LipschitzGenerator gen(&enc, LipschitzMode::kExact);
    Graph a = RandomGraph(9, 3, /*self_loops=*/true, &rng);
    Graph b = RandomGraph(6, 3, /*self_loops=*/false, &rng);
    Graph c = testing::HouseGraph(3);
    std::vector<float> want;
    for (const Graph* g : {&a, &b, &c}) {
      std::vector<float> k = gen.ExactConstantsReference(*g);
      want.insert(want.end(), k.begin(), k.end());
    }
    for (const int threads : {1, 4}) {
      SetParallelThreads(threads);
      ExpectExact(gen.ComputeConstants(std::vector<const Graph*>{&a, &b, &c}),
                  want);
    }
  }
}

// The fused kernel's results must not depend on how [0, n) is split
// across ViewDisplacementsSq calls (the generator's parallel grain).
TEST_F(LipschitzBatchedTest, MatchesReferenceForEveryChunking) {
  Rng rng(8);
  GnnEncoder enc(SmallEncoderConfig(3), &rng);
  Graph g = RandomGraph(11, 3, /*self_loops=*/true, &rng);
  LipschitzGenerator oracle(&enc, LipschitzMode::kExact);
  const std::vector<float> want = oracle.ExactConstantsReference(g);
  const int64_t n = g.num_nodes();
  const GinInferencePlan plan = GinInferencePlan::Build(enc);
  ASSERT_TRUE(plan.valid());
  const GraphBatch base = GraphBatch::FromGraphPtrs({&g});
  const GinMaskedViewKernel kernel(
      plan, base.features.data(), n, base.edge_src.data(),
      base.edge_dst.data(), static_cast<int64_t>(base.edge_src.size()));
  const std::vector<int64_t> deg = g.Degrees();
  for (const int64_t step : {int64_t{1}, int64_t{2}, int64_t{3}, int64_t{5},
                             n}) {
    std::vector<double> disp(static_cast<size_t>(n));
    for (int64_t lo = 0; lo < n; lo += step) {
      kernel.ViewDisplacementsSq(lo, std::min(n, lo + step), disp.data() + lo);
    }
    std::vector<float> got(static_cast<size_t>(n));
    for (int64_t r = 0; r < n; ++r) {
      got[r] = static_cast<float>(std::sqrt(disp[r])) /
               NodeDropTopologyDistance(deg[r], g.HasEdge(r, r));
    }
    SCOPED_TRACE(step);
    ExpectExact(got, want);
  }
}

TEST_F(LipschitzBatchedTest, DegenerateGraphSizes) {
  Rng rng(9);
  GnnEncoder enc(SmallEncoderConfig(2), &rng);
  LipschitzGenerator gen(&enc, LipschitzMode::kExact);
  Graph empty(0, 2);
  EXPECT_TRUE(gen.ComputeConstants(empty).empty());
  Graph single(1, 2);
  single.set_feature(0, 0, 1.0f);
  ExpectExact(gen.ComputeConstants(single),
              gen.ExactConstantsReference(single));
  Graph self_loop_only(1, 2);
  self_loop_only.set_feature(0, 1, -0.5f);
  self_loop_only.AddUndirectedEdge(0, 0);
  ExpectExact(gen.ComputeConstants(self_loop_only),
              gen.ExactConstantsReference(self_loop_only));
}

TEST_F(LipschitzBatchedTest, MultiGraphBatchMatchesPerGraphConcatenation) {
  Rng rng(10);
  GnnEncoder enc(SmallEncoderConfig(3), &rng);
  LipschitzGenerator gen(&enc, LipschitzMode::kExact);
  Graph a = testing::PathGraph3(3);
  Graph b = testing::HouseGraph(3);
  Graph c = RandomGraph(7, 3, /*self_loops=*/true, &rng);
  std::vector<float> batched =
      gen.ComputeConstants(std::vector<const Graph*>{&a, &b, &c});
  std::vector<float> want;
  for (const Graph* g : {&a, &b, &c}) {
    std::vector<float> k = gen.ExactConstantsReference(*g);
    want.insert(want.end(), k.begin(), k.end());
  }
  ExpectExact(batched, want);
}

TEST_F(LipschitzBatchedTest, BitwiseIdenticalAcrossThreadCounts) {
  Rng rng(11);
  GnnEncoder enc(SmallEncoderConfig(4), &rng);
  Graph a = RandomGraph(13, 4, /*self_loops=*/true, &rng);
  Graph b = RandomGraph(6, 4, /*self_loops=*/false, &rng);
  const std::vector<const Graph*> graphs = {&a, &b};
  LipschitzGenerator gen(&enc, LipschitzMode::kExact);
  SetParallelThreads(1);
  const std::vector<float> serial = gen.ComputeConstants(graphs);
  for (const int threads : {2, 4, 8}) {
    SetParallelThreads(threads);
    EXPECT_EQ(serial, gen.ComputeConstants(graphs)) << threads << " threads";
  }
}

// Regression for the ApproxConstants D_T bug: it hard-coded
// has_self_loop=false, disagreeing with ExactConstants on self-loop
// graphs. A single node with only a self-loop pins the expected value:
// D_R^2 = ||h||^2 + (alpha * ||h||)^2 with alpha = 1 (softmax over one
// edge), and D_T = NodeDropTopologyDistance(1, true) = 1.
TEST_F(LipschitzBatchedTest, ApproxUsesActualSelfLoopInTopologyDistance) {
  Rng rng(12);
  GnnEncoder enc(SmallEncoderConfig(2), &rng);
  Graph g(1, 2);
  g.set_feature(0, 0, 0.7f);
  g.set_feature(0, 1, -0.3f);
  g.AddUndirectedEdge(0, 0);
  GraphBatch batch = GraphBatch::FromGraphPtrs({&g});
  Tensor h = enc.EncodeNodes(batch.features, batch).Detach();
  double norm_sq = 0.0;
  for (int64_t j = 0; j < h.cols(); ++j) {
    norm_sq += static_cast<double>(h.At(0, j)) * h.At(0, j);
  }
  const float want = static_cast<float>(std::sqrt(2.0 * norm_sq)) /
                     NodeDropTopologyDistance(1, /*has_self_loop=*/true);
  LipschitzGenerator approx(&enc, LipschitzMode::kAttentionApprox);
  const std::vector<float> got = approx.ComputeConstants(g);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_NEAR(got[0], want, 1e-4f);
}

}  // namespace
}  // namespace sgcl
