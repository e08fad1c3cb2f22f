#include "core/augmentation.h"

#include <algorithm>
#include <cmath>

#include "common/metrics.h"

namespace sgcl {
namespace {

// Augmentation telemetry (always-on; see metrics.h). Drop counts are the
// quantity the GCL empirical literature keys on, so they are first-class
// metrics rather than log lines.
void CountPlan(const AugmentationPlan& plan) {
  static Counter* const plans =
      MetricsRegistry::Global().GetCounter("augmentation/plans");
  static Counter* const nodes =
      MetricsRegistry::Global().GetCounter("augmentation/nodes");
  static Counter* const dropped_sample = MetricsRegistry::Global().GetCounter(
      "augmentation/nodes_dropped_sample");
  static Counter* const dropped_complement =
      MetricsRegistry::Global().GetCounter(
          "augmentation/nodes_dropped_complement");
  static Counter* const semantic = MetricsRegistry::Global().GetCounter(
      "augmentation/semantic_related_nodes");
  int64_t drop_s = 0, drop_c = 0, related = 0;
  for (uint8_t keep : plan.keep_sample) drop_s += keep ? 0 : 1;
  for (uint8_t keep : plan.keep_complement) drop_c += keep ? 0 : 1;
  for (uint8_t c : plan.binary_semantic) related += c ? 1 : 0;
  plans->Increment();
  nodes->Increment(static_cast<int64_t>(plan.keep_sample.size()));
  dropped_sample->Increment(drop_s);
  dropped_complement->Increment(drop_c);
  semantic->Increment(related);
}

// Drops `num_drop` of the nodes with eligible[i] != 0, sampled without
// replacement proportionally to drop_weight[i]; returns the keep mask.
std::vector<uint8_t> SampleDrops(const std::vector<uint8_t>& eligible,
                                 const std::vector<double>& drop_weight,
                                 int64_t num_drop, Rng* rng) {
  const int64_t n = static_cast<int64_t>(eligible.size());
  std::vector<uint8_t> keep(static_cast<size_t>(n), 1);
  if (num_drop <= 0) return keep;
  std::vector<int64_t> pool;
  std::vector<double> weights;
  for (int64_t v = 0; v < n; ++v) {
    if (eligible[v]) {
      pool.push_back(v);
      weights.push_back(drop_weight[v]);
    }
  }
  num_drop = std::min<int64_t>(num_drop, static_cast<int64_t>(pool.size()));
  std::vector<int64_t> picked =
      rng->WeightedSampleWithoutReplacement(weights, num_drop);
  for (int64_t p : picked) keep[pool[p]] = 0;
  return keep;
}

}  // namespace

std::vector<uint8_t> BinarizeLipschitz(const std::vector<float>& lipschitz) {
  const size_t n = lipschitz.size();
  std::vector<uint8_t> binary(n, 1);
  if (n == 0) return binary;
  double mean = 0.0;
  for (float k : lipschitz) mean += k;
  mean /= static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    binary[i] = lipschitz[i] >= mean ? 1 : 0;
  }
  return binary;
}

AugmentationPlan BuildAugmentationPlan(const std::vector<float>& lipschitz,
                                       const std::vector<float>& learned_keep,
                                       AugmentationMode mode, double rho,
                                       Rng* rng) {
  SGCL_CHECK(rng != nullptr);
  SGCL_CHECK(rho >= 0.0 && rho <= 1.0);
  const int64_t n = static_cast<int64_t>(
      mode == AugmentationMode::kRandom ? std::max(lipschitz.size(),
                                                   learned_keep.size())
                                        : learned_keep.size());
  AugmentationPlan plan;
  plan.binary_semantic.assign(static_cast<size_t>(n), 1);
  plan.preserve_prob.assign(static_cast<size_t>(n), 1.0f);

  if (mode == AugmentationMode::kRandom) {
    // "w/o VG": uniform random node dropping; both views are independent
    // random drops of rho-adjusted size (matching GraphCL's ~10-20% drop
    // when rho = 0.9 under the eligible-set convention would drop almost
    // everything, so random mode drops (1 - rho) of all nodes).
    const int64_t num_drop = static_cast<int64_t>(
        std::lround((1.0 - rho) * static_cast<double>(n)));
    std::vector<uint8_t> all(static_cast<size_t>(n), 1);
    std::vector<double> uniform(static_cast<size_t>(n), 1.0);
    plan.keep_sample = SampleDrops(all, uniform, num_drop, rng);
    plan.keep_complement = SampleDrops(all, uniform, num_drop, rng);
    for (int64_t v = 0; v < n; ++v) plan.preserve_prob[v] = 0.5f;
    CountPlan(plan);
    return plan;
  }

  SGCL_CHECK_EQ(lipschitz.size(), learned_keep.size());
  if (mode == AugmentationMode::kLipschitz) {
    plan.binary_semantic = BinarizeLipschitz(lipschitz);
  } else {
    // kLearnableOnly ("w/o LGA"): no binarization; every node is eligible
    // and its preservation probability is purely the learned score.
    std::fill(plan.binary_semantic.begin(), plan.binary_semantic.end(), 0);
  }
  // Eq. 18: P = C + (1 - C) * sigma(h w^T).
  for (int64_t v = 0; v < n; ++v) {
    plan.preserve_prob[v] = plan.binary_semantic[v]
                                ? 1.0f
                                : std::clamp(learned_keep[v], 0.0f, 1.0f);
  }

  // Sample view Ĝ: drop (1 - rho)|V| nodes, all drawn from the
  // semantic-unrelated set, weighted by 1 - P.
  std::vector<uint8_t> eligible_sample(static_cast<size_t>(n));
  std::vector<double> drop_w_sample(static_cast<size_t>(n), 0.0);
  int64_t num_unrelated = 0;
  for (int64_t v = 0; v < n; ++v) {
    eligible_sample[v] = plan.binary_semantic[v] ? 0 : 1;
    num_unrelated += eligible_sample[v];
    drop_w_sample[v] = 1.0 - static_cast<double>(plan.preserve_prob[v]) + 1e-3;
  }
  const int64_t drop_sample = std::min(
      num_unrelated,
      static_cast<int64_t>(std::lround(
          (1.0 - rho) * static_cast<double>(n))));
  plan.keep_sample = SampleDrops(eligible_sample, drop_w_sample, drop_sample,
                                 rng);

  // Complement view Ĝ^c (Eq. 20): invert probabilities — related nodes
  // become eligible and are dropped preferentially.
  std::vector<uint8_t> eligible_comp(static_cast<size_t>(n));
  std::vector<double> drop_w_comp(static_cast<size_t>(n), 0.0);
  int64_t num_related = 0;
  for (int64_t v = 0; v < n; ++v) {
    eligible_comp[v] = plan.binary_semantic[v] ? 1 : 0;
    num_related += eligible_comp[v];
    drop_w_comp[v] = static_cast<double>(plan.preserve_prob[v]) + 1e-3;
  }
  // In "w/o LGA" mode nothing is marked related; fall back to dropping
  // high-probability nodes so the complement remains a negative view.
  if (num_related == 0) {
    for (int64_t v = 0; v < n; ++v) eligible_comp[v] = 1;
    num_related = n;
  }
  const int64_t drop_comp = static_cast<int64_t>(
      std::lround(rho * static_cast<double>(num_related)));
  plan.keep_complement =
      SampleDrops(eligible_comp, drop_w_comp, drop_comp, rng);
  CountPlan(plan);
  return plan;
}

GraphBatch MaskBatch(const GraphBatch& batch,
                     const std::vector<uint8_t>& keep) {
  SGCL_CHECK_EQ(static_cast<int64_t>(keep.size()), batch.num_nodes);
  GraphBatch masked = batch;
  std::vector<float> feats(batch.features.values());
  for (int64_t v = 0; v < batch.num_nodes; ++v) {
    if (keep[v]) continue;
    for (int64_t j = 0; j < batch.feat_dim; ++j) {
      feats[v * batch.feat_dim + j] = 0.0f;
    }
  }
  masked.features = Tensor::FromVector({batch.num_nodes, batch.feat_dim},
                                       std::move(feats));
  masked.edge_src.clear();
  masked.edge_dst.clear();
  for (size_t e = 0; e < batch.edge_src.size(); ++e) {
    if (keep[batch.edge_src[e]] && keep[batch.edge_dst[e]]) {
      masked.edge_src.push_back(batch.edge_src[e]);
      masked.edge_dst.push_back(batch.edge_dst[e]);
    }
  }
  return masked;
}

}  // namespace sgcl
