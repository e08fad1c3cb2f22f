// Common interface for self-supervised graph pretrainers (SGCL and every
// baseline), plus the base class that trains a baseline through the
// shared round loop (core/round_loop.h).
#ifndef SGCL_BASELINES_PRETRAINER_H_
#define SGCL_BASELINES_PRETRAINER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/round_loop.h"
#include "core/sgcl_trainer.h"
#include "graph/dataset.h"
#include "graph/graph_source.h"
#include "nn/encoder.h"
#include "tensor/optimizer.h"

namespace sgcl {

struct BaselineConfig {
  EncoderConfig encoder;
  float tau = 0.2f;
  float learning_rate = 1e-3f;
  int epochs = 40;
  int batch_size = 128;
  float grad_clip = 5.0f;
  // Generic augmentation strength (node-drop / edge-perturb / mask ratio).
  float aug_ratio = 0.2f;
  uint64_t seed = 0;
};

// Uniform handle over pretraining methods so evaluation harnesses and
// benches can iterate "methods" generically.
class Pretrainer {
 public:
  virtual ~Pretrainer() = default;

  // Self-supervised pretraining over source[indices] (all when empty).
  // The source may be in-memory or a sharded on-disk store; methods
  // fetch batches through GraphSource::Fetch and never assume resident
  // graphs.
  virtual PretrainStats Pretrain(const GraphSource& source,
                                 const std::vector<int64_t>& indices) = 0;

  // Convenience adapter: pretrains from an in-memory dataset by wrapping
  // it in a borrowing InMemorySource for the call. Non-virtual; derived
  // classes re-expose it with `using Pretrainer::Pretrain;`.
  PretrainStats Pretrain(const GraphDataset& dataset,
                         const std::vector<int64_t>& indices);

  // Frozen graph embeddings for downstream evaluation.
  virtual Tensor EmbedGraphs(
      const std::vector<const Graph*>& graphs) const = 0;

  // The representation encoder, exposed for fine-tuning protocols.
  virtual GnnEncoder* mutable_encoder() = 0;

  virtual std::string name() const = 0;
};

// Trains through RunRoundLoop at world 1, one batch per round:
// subclasses provide the per-batch loss, and the parameters returned by
// TrainableParameters() are optimized with Adam. Each batch draws from
// Rng(DeriveBatchSeed(config.seed, epoch, batch)), and the stats carry
// per-epoch wall times and the batch count. Baselines stay world-1-only:
// AD-GCL's inner augmenter step and JOAO's per-batch loss tallies are
// per-process state that a gradient all-reduce does not cover.
class GclPretrainerBase : public Pretrainer {
 public:
  GclPretrainerBase(const BaselineConfig& config, std::string name);

  using Pretrainer::Pretrain;
  PretrainStats Pretrain(const GraphSource& source,
                         const std::vector<int64_t>& indices) override;
  Tensor EmbedGraphs(const std::vector<const Graph*>& graphs) const override;
  GnnEncoder* mutable_encoder() override { return encoder_.get(); }
  std::string name() const override { return name_; }

 protected:
  // The minibatch objective; must be differentiable w.r.t. the tensors
  // returned by TrainableParameters().
  virtual Tensor BatchLoss(const std::vector<const Graph*>& graphs,
                           Rng* rng) = 0;
  virtual std::vector<Tensor> TrainableParameters() const;
  // Hook called once per epoch (e.g., JOAO's augmentation re-weighting).
  virtual void OnEpochEnd(int epoch) { (void)epoch; }

  BaselineConfig config_;
  Rng rng_;  // module initialization, then the epoch shuffle
  std::unique_ptr<GnnEncoder> encoder_;

 private:
  std::string name_;
};

// SGCL exposed through the same interface for side-by-side benches.
class SgclPretrainer : public Pretrainer {
 public:
  SgclPretrainer(const SgclConfig& config, uint64_t seed)
      : trainer_(config, seed) {}

  using Pretrainer::Pretrain;
  PretrainStats Pretrain(const GraphSource& source,
                         const std::vector<int64_t>& indices) override {
    // The baseline interface predates the Result-returning trainer API;
    // invalid inputs are programming errors in bench code, so crash loudly.
    return trainer_.Pretrain(source, indices).value();
  }
  Tensor EmbedGraphs(const std::vector<const Graph*>& graphs) const override {
    return trainer_.model().EmbedGraphs(graphs);
  }
  GnnEncoder* mutable_encoder() override {
    return trainer_.model().mutable_encoder_k();
  }
  std::string name() const override { return "SGCL"; }

  SgclTrainer& trainer() { return trainer_; }

 private:
  SgclTrainer trainer_;
};

// Control that performs no pretraining ("No Pre-Train" rows).
class NoPretrain : public Pretrainer {
 public:
  NoPretrain(const BaselineConfig& config, uint64_t seed);

  using Pretrainer::Pretrain;
  PretrainStats Pretrain(const GraphSource& source,
                         const std::vector<int64_t>& indices) override;
  Tensor EmbedGraphs(const std::vector<const Graph*>& graphs) const override;
  GnnEncoder* mutable_encoder() override { return encoder_.get(); }
  std::string name() const override { return "No Pre-Train"; }

 private:
  std::unique_ptr<GnnEncoder> encoder_;
};

}  // namespace sgcl

#endif  // SGCL_BASELINES_PRETRAINER_H_
