#include "core/sgcl_model.h"

#include <cmath>

#include "common/trace.h"
#include "nn/pooling.h"
#include "tensor/ops.h"

namespace sgcl {

SgclModel::SgclModel(const SgclConfig& config, Rng* rng) : config_(config) {
  SGCL_CHECK(rng != nullptr);
  f_q_ = std::make_unique<GnnEncoder>(config.encoder, rng);
  f_k_ = std::make_unique<GnnEncoder>(config.encoder, rng);
  projection_ = std::make_unique<Mlp>(
      std::vector<int64_t>{config.encoder.hidden_dim,
                           config.encoder.hidden_dim, config.proj_dim},
      rng);
  prob_head_ = std::make_unique<Linear>(config.encoder.hidden_dim, 1, rng,
                                        /*use_bias=*/false);
  generator_ = std::make_unique<LipschitzGenerator>(f_q_.get(),
                                                    config.lipschitz_mode);
}

std::optional<int64_t> SgclModel::NumParametersFor(const SgclConfig& config) {
  const int64_t h = config.encoder.hidden_dim;
  // The projection Mlp {h, h, proj_dim}: W1, b1, W2, b2.
  const std::optional<int64_t> projection =
      CheckedAdd(CheckedAdd(CheckedMul(h, h), h),
                 CheckedAdd(CheckedMul(h, config.proj_dim), config.proj_dim));
  // f_q, f_k, the projection head and the [h, 1] probability head.
  return CheckedAdd(
      CheckedAdd(CheckedMul(2, GnnEncoder::NumParametersFor(config.encoder)),
                 projection),
      h);
}

Tensor SgclModel::LearnedKeepScores(const GraphBatch& batch) const {
  Tensor h_q = f_q_->EncodeNodes(batch.features, batch);
  return Sigmoid(prob_head_->Forward(h_q));  // [N, 1]
}

Tensor SgclModel::ComputeLoss(const std::vector<const Graph*>& graphs,
                              Rng* rng, SgclLossStats* stats) {
  SGCL_CHECK_GE(graphs.size(), 2u);
  SGCL_CHECK(rng != nullptr);
  GraphBatch batch = GraphBatch::FromGraphPtrs(graphs);
  const int64_t n = batch.num_nodes;

  // --- Generator side: Lipschitz constants + learned keep scores. ---
  const bool needs_lipschitz =
      config_.augmentation == AugmentationMode::kLipschitz ||
      config_.semantic_pooling;
  std::vector<float> lipschitz(static_cast<size_t>(n), 1.0f);
  if (needs_lipschitz) {
    SGCL_TRACE_SPAN_TIMED("generator");
    lipschitz = generator_->ComputeConstants(graphs);
  }
  Tensor h_q_nodes = [&] {
    SGCL_TRACE_SPAN_TIMED("encode");
    return f_q_->EncodeNodes(batch.features, batch);  // on tape
  }();
  Tensor learned_keep = Sigmoid(prob_head_->Forward(h_q_nodes));  // [N,1]

  // --- Per-graph augmentation plans (detached sampling). ---
  std::vector<uint8_t> keep_sample(static_cast<size_t>(n));
  std::vector<uint8_t> keep_complement(static_cast<size_t>(n));
  std::vector<float> binary_c(static_cast<size_t>(n));
  {
    SGCL_TRACE_SPAN_TIMED("augmentation");
    for (int64_t g = 0; g < batch.num_graphs; ++g) {
      const int64_t lo = batch.node_offsets[g],
                    hi = batch.node_offsets[g + 1];
      std::vector<float> k_slice(lipschitz.begin() + lo,
                                 lipschitz.begin() + hi);
      std::vector<float> keep_slice(static_cast<size_t>(hi - lo));
      for (int64_t v = lo; v < hi; ++v) {
        keep_slice[v - lo] = learned_keep.At(v, 0);
      }
      AugmentationPlan plan = BuildAugmentationPlan(
          k_slice, keep_slice, config_.augmentation, config_.rho, rng);
      for (int64_t v = lo; v < hi; ++v) {
        keep_sample[v] = plan.keep_sample[v - lo];
        keep_complement[v] = plan.keep_complement[v - lo];
        binary_c[v] = static_cast<float>(plan.binary_semantic[v - lo]);
      }
    }
  }

  // Preservation probabilities on the tape (Eq. 18):
  //   p = C + (1 - C) * sigma(h w^T).
  Tensor c_col = Tensor::FromVector({n, 1}, binary_c);
  std::vector<float> one_minus_c(binary_c.size());
  for (size_t i = 0; i < binary_c.size(); ++i) {
    one_minus_c[i] = 1.0f - binary_c[i];
  }
  Tensor p = Add(c_col, Mul(Tensor::FromVector({n, 1}, std::move(one_minus_c)),
                            learned_keep));  // [N,1]

  auto mask_to_tensor = [n](const std::vector<uint8_t>& keep) {
    std::vector<float> vals(keep.size());
    for (size_t i = 0; i < keep.size(); ++i) {
      vals[i] = static_cast<float>(keep[i]);
    }
    return Tensor::FromVector({n, 1}, std::move(vals));
  };
  const bool learnable =
      config_.augmentation != AugmentationMode::kRandom;

  // --- Sample view Ĝ (Eq. 19 / 22): hard drop + soft keep weights. ---
  GraphBatch sample_batch = MaskBatch(batch, keep_sample);
  Tensor z_sample, z_anchor, w_sample;
  {
    SGCL_TRACE_SPAN_TIMED("encode");
    Tensor sample_nodes =
        f_k_->EncodeNodes(sample_batch.features, sample_batch);
    w_sample = mask_to_tensor(keep_sample);
    if (learnable) w_sample = Mul(w_sample, p);
    z_sample = projection_->Forward(
        Pool(MulBroadcastCol(sample_nodes, w_sample), batch,
             config_.encoder.pooling));

    // --- Anchor (Eq. 21): K_V-weighted pooling when semantic_pooling. ---
    Tensor anchor_nodes = f_k_->EncodeNodes(batch.features, batch);
    Tensor anchor_pooled;
    if (config_.semantic_pooling) {
      anchor_pooled =
          Pool(MulBroadcastCol(anchor_nodes,
                               Tensor::FromVector({n, 1}, lipschitz)),
               batch, config_.encoder.pooling);
    } else {
      anchor_pooled = Pool(anchor_nodes, batch, config_.encoder.pooling);
    }
    z_anchor = projection_->Forward(anchor_pooled);
  }

  // --- Losses (Eq. 24-27). ---
  SGCL_TRACE_SPAN_TIMED("loss");
  Tensor loss = SemanticInfoNceLoss(z_anchor, z_sample, config_.tau);
  // Generator-tower objective: the paper trains f_q jointly but leaves
  // its gradient path implicit; Lipschitz constants are only meaningful
  // under a *discriminative* f_q (Definition 5 presumes the encoder
  // separates graphs), so f_q receives the same InfoNCE applied to its
  // own pooled representations of anchor vs. sample view.
  if (config_.generator_loss_weight > 0.0f) {
    Tensor q_anchor = Pool(h_q_nodes, batch, config_.encoder.pooling);
    Tensor q_view_nodes = f_q_->EncodeNodes(sample_batch.features,
                                            sample_batch);
    Tensor q_view = Pool(MulBroadcastCol(q_view_nodes, w_sample), batch,
                         config_.encoder.pooling);
    loss = Add(loss,
               MulScalar(SemanticInfoNceLoss(q_anchor, q_view, config_.tau),
                         config_.generator_loss_weight));
  }
  SgclLossStats local;
  local.semantic = loss.item();
  if (config_.lambda_c > 0.0f) {
    // Complement view Ĝ^c (Eq. 20 / 23).
    GraphBatch comp_batch = MaskBatch(batch, keep_complement);
    Tensor comp_nodes = f_k_->EncodeNodes(comp_batch.features, comp_batch);
    Tensor w_comp = mask_to_tensor(keep_complement);
    if (learnable) w_comp = Mul(w_comp, AddScalar(Neg(p), 1.0f));
    Tensor z_comp = projection_->Forward(
        Pool(MulBroadcastCol(comp_nodes, w_comp), batch,
             config_.encoder.pooling));
    Tensor lc = ComplementLoss(z_anchor, z_sample, z_comp, config_.tau);
    local.complement = lc.item();
    loss = Add(loss, MulScalar(lc, config_.lambda_c));
  }
  if (config_.lambda_w > 0.0f) {
    // Θ_W over the generator tower (the W of Theorem 1): f_q weights and
    // the probability head.
    std::vector<Tensor> weights = f_q_->Parameters();
    weights.push_back(prob_head_->weight());
    Tensor reg = WeightNormRegularizer(weights);
    local.weight_norm = reg.item();
    loss = Add(loss, MulScalar(reg, config_.lambda_w));
  }
  local.total = loss.item();
  if (stats != nullptr) *stats = local;
  return loss;
}

Tensor SgclModel::EmbedGraphs(const std::vector<const Graph*>& graphs) const {
  GraphBatch batch = GraphBatch::FromGraphPtrs(graphs);
  return f_k_->EncodeGraphs(batch).Detach();
}

std::vector<float> SgclModel::NodeLipschitzConstants(
    const Graph& graph) const {
  return generator_->ComputeConstants(graph);
}

std::vector<float> SgclModel::NodePreservationProbs(
    const Graph& graph) const {
  GraphBatch batch = GraphBatch::FromGraphPtrs({&graph});
  Tensor learned = LearnedKeepScores(batch).Detach();
  std::vector<uint8_t> binary =
      BinarizeLipschitz(generator_->ComputeConstants(graph));
  std::vector<float> probs(static_cast<size_t>(graph.num_nodes()));
  for (int64_t v = 0; v < graph.num_nodes(); ++v) {
    probs[v] = binary[v] ? 1.0f : learned.At(v, 0);
  }
  return probs;
}

std::vector<Tensor> SgclModel::Parameters() const {
  return ConcatParameters(
      {f_q_.get(), f_k_.get(), projection_.get(), prob_head_.get()});
}

}  // namespace sgcl
