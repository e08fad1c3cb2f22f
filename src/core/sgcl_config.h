// Configuration for the SGCL model and pretraining loop.
//
// Defaults follow the paper's §VI-A parameter settings: GIN 3x32, sum
// pooling, 2-layer projection head, tau = 0.2, lambda_c = lambda_W = 0.01,
// rho = 0.9, Adam lr = 1e-3, batch 128, 40 epochs. Flags cover every
// Table V ablation.
#ifndef SGCL_CORE_SGCL_CONFIG_H_
#define SGCL_CORE_SGCL_CONFIG_H_

#include "common/status.h"
#include "core/augmentation.h"
#include "core/lipschitz_generator.h"
#include "nn/encoder.h"

namespace sgcl {

struct SgclConfig {
  EncoderConfig encoder;  // shared architecture of f_q and f_k (Eq. 1);
                          // the two towers never share parameters.
  int64_t proj_dim = 32;  // projection head output width

  // Objective (Eq. 27).
  float tau = 0.2f;
  float lambda_c = 0.01f;   // complement loss weight; 0 = "w/o Lc"
  float lambda_w = 0.01f;   // weight-norm regularizer; 0 = "w/o LW"

  // Augmentation (Eq. 16-20).
  double rho = 0.9;  // fraction of eligible nodes dropped per view
  AugmentationMode augmentation = AugmentationMode::kLipschitz;
  LipschitzMode lipschitz_mode = LipschitzMode::kAttentionApprox;

  // Eq. 21 semantic-score-weighted anchor pooling; false = "w/o SRL".
  bool semantic_pooling = true;

  // Weight of the generator tower's own InfoNCE term. The paper trains
  // f_q jointly but leaves its gradient path implicit; the Lipschitz
  // constants are only informative under a discriminative f_q, so we add
  // the same contrastive objective on f_q's pooled representations
  // (0 disables it, leaving only the soft-mask gradient path).
  float generator_loss_weight = 0.5f;

  // Pretraining.
  float learning_rate = 1e-3f;
  int epochs = 40;
  int batch_size = 128;
  float grad_clip = 5.0f;

  // The single entry point for config sanity: every consumer of an
  // SgclConfig (SgclTrainer's constructor, the CLI, harnesses) funnels
  // through this instead of scattering implicit assumptions. Checks:
  // tau > 0, 0 <= rho <= 1, batch_size >= 2 (InfoNCE needs a negative),
  // positive dims / layers / epochs / learning rate,
  // non-negative loss weights. Returns InvalidArgument naming the first
  // offending field.
  Status Validate() const;
};

// The paper's unsupervised-learning configuration for a dataset with
// `feat_dim` input features (GIN 3x32).
SgclConfig MakeUnsupervisedConfig(int64_t feat_dim);

// The paper's transfer-learning configuration (GIN 5 layers; the paper
// uses width 300 — `hidden_dim` allows scaling that down for CPU runs).
SgclConfig MakeTransferConfig(int64_t feat_dim, int64_t hidden_dim = 64);

}  // namespace sgcl

#endif  // SGCL_CORE_SGCL_CONFIG_H_
