// The SGCL model (paper Fig. 2): generator tower f_q with the
// augmentation-probability head, representation tower f_k with the
// projection head, the Lipschitz constant generator, and the Eq. 27
// objective.
#ifndef SGCL_CORE_SGCL_MODEL_H_
#define SGCL_CORE_SGCL_MODEL_H_

#include <memory>
#include <optional>
#include <vector>

#include "core/contrastive_loss.h"
#include "core/lipschitz_generator.h"
#include "core/sgcl_config.h"
#include "nn/linear.h"
#include "nn/mlp.h"

namespace sgcl {

struct SgclLossStats {
  float total = 0.0f;
  float semantic = 0.0f;    // L_s (Eq. 24)
  float complement = 0.0f;  // L_c (Eq. 25)
  float weight_norm = 0.0f; // Θ_W (Eq. 26)
};

class SgclModel : public Module {
 public:
  SgclModel(const SgclConfig& config, Rng* rng);

  // NumParameters() of a model built from `config`, computed without
  // building it; nullopt when the count overflows int64_t.
  static std::optional<int64_t> NumParametersFor(const SgclConfig& config);

  // The full objective L = E[L_s + λ_c L_c] + λ_W Θ_W over a minibatch.
  // Needs at least 2 graphs (InfoNCE negatives). `rng` drives the
  // stochastic node dropping. Gradients flow into f_k, the projection
  // head, and — through the soft preservation probabilities multiplied
  // into view pooling (a concrete relaxation, as in learnable-view-
  // generator GCL) — into f_q and the probability head.
  Tensor ComputeLoss(const std::vector<const Graph*>& graphs, Rng* rng,
                     SgclLossStats* stats = nullptr);

  // Frozen graph embeddings for downstream evaluation: f_k node encodings
  // pooled, with the projection head thrown away (paper §VI-A).
  Tensor EmbedGraphs(const std::vector<const Graph*>& graphs) const;

  // Per-node Lipschitz constants of `graph` under the current f_q.
  std::vector<float> NodeLipschitzConstants(const Graph& graph) const;

  // Per-node preservation probabilities P(v_i) (Eq. 18) — the quantity
  // visualized in Fig. 7.
  std::vector<float> NodePreservationProbs(const Graph& graph) const;

  std::vector<Tensor> Parameters() const override;

  const SgclConfig& config() const { return config_; }
  const GnnEncoder& encoder_k() const { return *f_k_; }
  const GnnEncoder& encoder_q() const { return *f_q_; }
  // w in Eq. 18 (hidden -> 1, no bias); read by the serving layer's
  // fused keep-probability path (serve/inference_session.*).
  const Linear& prob_head() const { return *prob_head_; }
  GnnEncoder* mutable_encoder_k() { return f_k_.get(); }

 private:
  // Learned per-node keep scores sigma(h_i w^T) on the autograd tape.
  Tensor LearnedKeepScores(const GraphBatch& batch) const;

  SgclConfig config_;
  std::unique_ptr<GnnEncoder> f_q_;
  std::unique_ptr<GnnEncoder> f_k_;
  std::unique_ptr<Mlp> projection_;   // 2-layer head on pooled f_k output
  std::unique_ptr<Linear> prob_head_; // w in Eq. 18 (hidden -> 1, no bias)
  std::unique_ptr<LipschitzGenerator> generator_;
};

}  // namespace sgcl

#endif  // SGCL_CORE_SGCL_MODEL_H_
