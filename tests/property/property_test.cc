// Parameterized property-style sweeps over the library's invariants:
// encoder behavior across every (architecture x pooling) combination,
// augmentation invariants across the rho grid, generator invariants
// across all TU datasets, and metric identities over random inputs.
#include <cmath>
#include <numeric>
#include <tuple>

#include "core/augmentation.h"
#include "core/lipschitz_generator.h"
#include "data/synthetic_tu.h"
#include "eval/metrics.h"
#include "gtest/gtest.h"
#include "tensor/ops.h"
#include "nn/encoder.h"
#include "test_util.h"

namespace sgcl {
namespace {

// ---------- Encoder sweep: every arch x pooling must be well-behaved ----

using ArchPooling = std::tuple<GnnArch, PoolingKind>;

class EncoderSweepTest : public ::testing::TestWithParam<ArchPooling> {};

TEST_P(EncoderSweepTest, FiniteOutputsAndGradients) {
  auto [arch, pooling] = GetParam();
  Rng rng(11);
  EncoderConfig cfg;
  cfg.arch = arch;
  cfg.in_dim = 3;
  cfg.hidden_dim = 8;
  cfg.num_layers = 2;
  cfg.pooling = pooling;
  GnnEncoder enc(cfg, &rng);
  Graph a = testing::PathGraph3(3);
  Graph b = testing::HouseGraph(3);
  GraphBatch batch = GraphBatch::FromGraphPtrs({&a, &b});
  Tensor graphs = enc.EncodeGraphs(batch);
  ASSERT_EQ(graphs.rows(), 2);
  for (float v : graphs.values()) ASSERT_TRUE(std::isfinite(v));
  // Gradients reach every parameter.
  Tensor loss = SumSquares(graphs);
  loss.Backward();
  for (const Tensor& p : enc.Parameters()) {
    double mass = 0.0;
    for (float g : p.impl()->grad) mass += std::fabs(g);
    EXPECT_TRUE(std::isfinite(mass));
  }
}

TEST_P(EncoderSweepTest, PermutationInvariantGraphEmbedding) {
  auto [arch, pooling] = GetParam();
  Rng rng(12);
  EncoderConfig cfg;
  cfg.arch = arch;
  cfg.in_dim = 3;
  cfg.hidden_dim = 8;
  cfg.num_layers = 2;
  cfg.pooling = pooling;
  GnnEncoder enc(cfg, &rng);
  Graph g = testing::HouseGraph(3);
  // Relabel nodes by a fixed permutation.
  auto perm = [](int64_t v) { return (v * 2 + 1) % 5; };
  Graph pg(5, 3);
  for (int64_t v = 0; v < 5; ++v) {
    for (int64_t j = 0; j < 3; ++j) pg.set_feature(perm(v), j, g.feature(v, j));
  }
  for (size_t e = 0; e < g.edge_src().size(); ++e) {
    if (g.edge_src()[e] < g.edge_dst()[e]) {
      pg.AddUndirectedEdge(perm(g.edge_src()[e]), perm(g.edge_dst()[e]));
    }
  }
  GraphBatch b1 = GraphBatch::FromGraphPtrs({&g});
  GraphBatch b2 = GraphBatch::FromGraphPtrs({&pg});
  Tensor y1 = enc.EncodeGraphs(b1);
  Tensor y2 = enc.EncodeGraphs(b2);
  for (int64_t j = 0; j < y1.numel(); ++j) {
    EXPECT_NEAR(y1.data()[j], y2.data()[j], 2e-3f)
        << GnnArchToString(arch) << "/" << PoolingKindToString(pooling);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllArchsAndPoolings, EncoderSweepTest,
    ::testing::Combine(::testing::Values(GnnArch::kGin, GnnArch::kGcn,
                                         GnnArch::kGat, GnnArch::kSage),
                       ::testing::Values(PoolingKind::kSum,
                                         PoolingKind::kMean,
                                         PoolingKind::kMax)),
    [](const ::testing::TestParamInfo<ArchPooling>& info) {
      return std::string(GnnArchToString(std::get<0>(info.param))) + "_" +
             PoolingKindToString(std::get<1>(info.param));
    });

// ---------- Augmentation sweep over the paper's rho grid ----------------

class RhoSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(RhoSweepTest, SemanticNodesSurviveAnyRho) {
  const double rho = GetParam();
  Rng rng(21);
  // 12 nodes: 5 clearly semantic.
  std::vector<float> k(12, 0.1f);
  for (int v = 0; v < 5; ++v) k[v] = 5.0f;
  std::vector<float> keep(12, 0.5f);
  for (int trial = 0; trial < 20; ++trial) {
    AugmentationPlan plan = BuildAugmentationPlan(
        k, keep, AugmentationMode::kLipschitz, rho, &rng);
    for (int v = 0; v < 5; ++v) {
      ASSERT_EQ(plan.keep_sample[v], 1) << "rho=" << rho;
    }
    // Sample view drops exactly min((1-rho)*n, #unrelated) nodes.
    int dropped = 0;
    for (uint8_t kept : plan.keep_sample) dropped += (kept == 0);
    const int expected = std::min<int>(
        7, static_cast<int>(std::lround((1.0 - rho) * 12)));
    ASSERT_EQ(dropped, expected);
  }
}

TEST_P(RhoSweepTest, ComplementDropsOnlySemanticNodes) {
  const double rho = GetParam();
  Rng rng(22);
  std::vector<float> k(12, 0.1f);
  for (int v = 0; v < 5; ++v) k[v] = 5.0f;
  std::vector<float> keep(12, 0.5f);
  AugmentationPlan plan = BuildAugmentationPlan(
      k, keep, AugmentationMode::kLipschitz, rho, &rng);
  for (int v = 5; v < 12; ++v) {
    EXPECT_EQ(plan.keep_complement[v], 1) << "rho=" << rho;
  }
}

INSTANTIATE_TEST_SUITE_P(PaperGrid, RhoSweepTest,
                         ::testing::Values(0.5, 0.6, 0.7, 0.8, 0.9));

// ---------- Dataset sweep over all eight TU stand-ins -------------------

class TuSweepTest : public ::testing::TestWithParam<TuDataset> {};

TEST_P(TuSweepTest, GeneratorInvariants) {
  SyntheticTuOptions opt;
  opt.graph_fraction = 0.03;
  opt.node_cap = 20;
  opt.seed = 31;
  GraphDataset ds = MakeTuDataset(GetParam(), opt);
  ASSERT_TRUE(ds.Validate().ok());
  const TuConfig cfg = GetTuConfig(GetParam());
  EXPECT_EQ(ds.num_classes(), cfg.num_classes);
  for (const Graph& g : ds.graphs()) {
    // Connectivity of message passing: no graph is edgeless.
    EXPECT_GT(g.num_undirected_edges(), 0);
    // Semantic ground truth exists and is a proper subset.
    int semantic = 0;
    for (uint8_t m : g.semantic_mask()) semantic += m;
    EXPECT_GT(semantic, 0);
    EXPECT_LT(semantic, g.num_nodes());
    // One-hot-ish features: every node has a nonzero feature row.
    for (int64_t v = 0; v < g.num_nodes(); ++v) {
      float total = 0.0f;
      for (int64_t j = 0; j < g.feat_dim(); ++j) {
        total += std::fabs(g.feature(v, j));
      }
      EXPECT_GT(total, 0.0f);
    }
  }
}

TEST_P(TuSweepTest, LipschitzConstantsFiniteOnRealisticGraphs) {
  SyntheticTuOptions opt;
  opt.graph_fraction = 0.03;
  opt.node_cap = 20;
  opt.seed = 32;
  GraphDataset ds = MakeTuDataset(GetParam(), opt);
  Rng rng(33);
  EncoderConfig cfg;
  cfg.arch = GnnArch::kGin;
  cfg.in_dim = ds.feat_dim();
  cfg.hidden_dim = 8;
  cfg.num_layers = 2;
  GnnEncoder enc(cfg, &rng);
  LipschitzGenerator gen(&enc, LipschitzMode::kAttentionApprox);
  for (int i = 0; i < std::min<int64_t>(5, ds.size()); ++i) {
    std::vector<float> k = gen.ComputeConstants(ds.graph(i));
    ASSERT_EQ(static_cast<int64_t>(k.size()), ds.graph(i).num_nodes());
    for (float v : k) {
      ASSERT_TRUE(std::isfinite(v));
      ASSERT_GE(v, 0.0f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTu, TuSweepTest, ::testing::ValuesIn(AllTuDatasets()),
    [](const ::testing::TestParamInfo<TuDataset>& info) {
      std::string name = GetTuConfig(info.param).name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------- Lipschitz generator invariants over random graphs -----------

// Random connected graph: spanning-tree backbone plus Bernoulli extra
// edges, Gaussian features.
Graph RandomConnectedGraph(Rng* rng, int64_t num_nodes, int64_t feat_dim) {
  Graph g(num_nodes, feat_dim);
  for (int64_t v = 0; v < num_nodes; ++v) {
    for (int64_t j = 0; j < feat_dim; ++j) {
      g.set_feature(v, j, static_cast<float>(rng->Normal(0.0, 0.6)));
    }
  }
  for (int64_t v = 1; v < num_nodes; ++v) {
    g.AddUndirectedEdge(rng->UniformInt(v), v);
  }
  for (int64_t a = 0; a < num_nodes; ++a) {
    for (int64_t b = a + 1; b < num_nodes; ++b) {
      if (rng->Bernoulli(0.15)) g.AddUndirectedEdge(a, b);
    }
  }
  return g;
}

GnnEncoder RandomEncoder(Rng* rng, int64_t feat_dim) {
  EncoderConfig cfg;
  cfg.arch = GnnArch::kGin;
  cfg.in_dim = feat_dim;
  cfg.hidden_dim = 8;
  cfg.num_layers = 2;
  return GnnEncoder(cfg, rng);
}

class LipschitzSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(LipschitzSweepTest, ConstantsNonNegativeAndFiniteInBothModes) {
  Rng rng(300 + GetParam());
  const int64_t n = rng.UniformInt(4, 14);
  Graph g = RandomConnectedGraph(&rng, n, 3);
  GnnEncoder enc = RandomEncoder(&rng, 3);
  for (LipschitzMode mode :
       {LipschitzMode::kExact, LipschitzMode::kAttentionApprox}) {
    LipschitzGenerator gen(&enc, mode);
    const std::vector<float> k = gen.ComputeConstants(g);
    ASSERT_EQ(static_cast<int64_t>(k.size()), n);
    for (float v : k) {
      ASSERT_TRUE(std::isfinite(v));
      ASSERT_GE(v, 0.0f);
    }
  }
}

TEST_P(LipschitzSweepTest, ConstantsAreNodePermutationEquivariant) {
  Rng rng(400 + GetParam());
  const int64_t n = rng.UniformInt(4, 12);
  Graph g = RandomConnectedGraph(&rng, n, 3);
  // Random relabeling pi; pg is g with node v renamed pi(v).
  std::vector<int64_t> pi(n);
  std::iota(pi.begin(), pi.end(), 0);
  rng.Shuffle(&pi);
  Graph pg(n, 3);
  for (int64_t v = 0; v < n; ++v) {
    for (int64_t j = 0; j < 3; ++j) pg.set_feature(pi[v], j, g.feature(v, j));
  }
  for (size_t e = 0; e < g.edge_src().size(); ++e) {
    if (g.edge_src()[e] < g.edge_dst()[e]) {
      pg.AddUndirectedEdge(pi[g.edge_src()[e]], pi[g.edge_dst()[e]]);
    }
  }
  GnnEncoder enc = RandomEncoder(&rng, 3);
  for (LipschitzMode mode :
       {LipschitzMode::kExact, LipschitzMode::kAttentionApprox}) {
    LipschitzGenerator gen(&enc, mode);
    const std::vector<float> k = gen.ComputeConstants(g);
    const std::vector<float> pk = gen.ComputeConstants(pg);
    ASSERT_EQ(k.size(), pk.size());
    for (int64_t v = 0; v < n; ++v) {
      EXPECT_NEAR(k[v], pk[pi[v]], 2e-3f)
          << "node " << v << " mode "
          << (mode == LipschitzMode::kExact ? "exact" : "approx");
    }
  }
}

TEST_P(LipschitzSweepTest, BatchedExactMatchesPerNodeReference) {
  Rng rng(500 + GetParam());
  const int64_t n = rng.UniformInt(4, 16);
  Graph g = RandomConnectedGraph(&rng, n, 3);
  GnnEncoder enc = RandomEncoder(&rng, 3);
  LipschitzGenerator batched(&enc, LipschitzMode::kExact);
  const std::vector<float> fast = batched.ComputeConstants(g);
  const std::vector<float> golden = batched.ExactConstantsReference(g);
  ASSERT_EQ(fast.size(), golden.size());
  for (size_t v = 0; v < golden.size(); ++v) {
    EXPECT_NEAR(fast[v], golden[v], 1e-3f) << "node " << v;
  }
}

TEST_P(LipschitzSweepTest, MultiGraphBatchMatchesPerGraphCalls) {
  Rng rng(600 + GetParam());
  Graph a = RandomConnectedGraph(&rng, rng.UniformInt(4, 10), 3);
  Graph b = RandomConnectedGraph(&rng, rng.UniformInt(4, 10), 3);
  GnnEncoder enc = RandomEncoder(&rng, 3);
  LipschitzGenerator gen(&enc, LipschitzMode::kExact);
  std::vector<float> joint = gen.ComputeConstants({&a, &b});
  std::vector<float> ka = gen.ComputeConstants(a);
  std::vector<float> kb = gen.ComputeConstants(b);
  ASSERT_EQ(joint.size(), ka.size() + kb.size());
  for (size_t v = 0; v < ka.size(); ++v) {
    EXPECT_NEAR(joint[v], ka[v], 1e-4f);
  }
  for (size_t v = 0; v < kb.size(); ++v) {
    EXPECT_NEAR(joint[ka.size() + v], kb[v], 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, LipschitzSweepTest,
                         ::testing::Range(0, 6));

// ---------- Metric identities over random inputs ------------------------

class AucPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AucPropertyTest, NegatedScoresMirrorAuc) {
  Rng rng(100 + GetParam());
  const int n = 40;
  std::vector<double> scores(n);
  std::vector<int> labels(n);
  for (int i = 0; i < n; ++i) {
    scores[i] = rng.Normal();
    labels[i] = rng.Bernoulli(0.4) ? 1 : 0;
  }
  if (std::accumulate(labels.begin(), labels.end(), 0) == 0) labels[0] = 1;
  if (std::accumulate(labels.begin(), labels.end(), 0) == n) labels[0] = 0;
  std::vector<double> negated(n);
  for (int i = 0; i < n; ++i) negated[i] = -scores[i];
  EXPECT_NEAR(RocAuc(scores, labels) + RocAuc(negated, labels), 1.0, 1e-9);
}

TEST_P(AucPropertyTest, MonotoneTransformInvariant) {
  Rng rng(200 + GetParam());
  const int n = 30;
  std::vector<double> scores(n);
  std::vector<int> labels(n);
  for (int i = 0; i < n; ++i) {
    scores[i] = rng.Uniform(-3, 3);
    labels[i] = rng.Bernoulli(0.5) ? 1 : 0;
  }
  if (std::accumulate(labels.begin(), labels.end(), 0) == 0) labels[0] = 1;
  if (std::accumulate(labels.begin(), labels.end(), 0) == n) labels[0] = 0;
  std::vector<double> transformed(n);
  for (int i = 0; i < n; ++i) transformed[i] = std::exp(scores[i]);
  EXPECT_NEAR(RocAuc(scores, labels), RocAuc(transformed, labels), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AucPropertyTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace sgcl
