#include "baselines/pretrainer.h"

#include "common/logging.h"

namespace sgcl {

PretrainStats Pretrainer::Pretrain(const GraphDataset& dataset,
                                   const std::vector<int64_t>& indices) {
  const InMemorySource source(&dataset);
  return Pretrain(source, indices);
}

GclPretrainerBase::GclPretrainerBase(const BaselineConfig& config,
                                     std::string name)
    : config_(config), rng_(config.seed), name_(std::move(name)) {
  encoder_ = std::make_unique<GnnEncoder>(config_.encoder, &rng_);
}

std::vector<Tensor> GclPretrainerBase::TrainableParameters() const {
  return encoder_->Parameters();
}

PretrainStats GclPretrainerBase::Pretrain(
    const GraphSource& source, const std::vector<int64_t>& indices) {
  RoundLoopMethod method;
  method.params = TrainableParameters();
  Adam optimizer(method.params, config_.learning_rate);
  method.optimizer = &optimizer;
  method.shuffle_rng = &rng_;
  method.run_seed = config_.seed;
  method.epochs = config_.epochs;
  method.batch_size = config_.batch_size;
  method.grad_clip = config_.grad_clip;
  method.batch_loss = [this](const std::vector<const Graph*>& graphs,
                             Rng* rng) { return BatchLoss(graphs, rng); };
  PretrainOptions options;
  options.on_epoch_end = [this](const EpochReport& report) {
    SGCL_LOG(DEBUG) << name() << " epoch " << report.epoch << " loss "
                    << report.mean_loss;
    OnEpochEnd(report.epoch);
  };
  Result<PretrainStats> stats =
      RunRoundLoop(method, source, indices, options);
  // The Pretrainer interface predates Result-returning training; bad
  // indices or a failed fetch are programming errors in bench code, so
  // crash loudly with the reason.
  if (!stats.ok()) {
    SGCL_LOG(ERROR) << name() << " pretraining failed: "
                    << stats.status().ToString();
  }
  return std::move(stats).value();
}

Tensor GclPretrainerBase::EmbedGraphs(
    const std::vector<const Graph*>& graphs) const {
  GraphBatch batch = GraphBatch::FromGraphPtrs(graphs);
  return encoder_->EncodeGraphs(batch).Detach();
}

NoPretrain::NoPretrain(const BaselineConfig& config, uint64_t seed) {
  Rng rng(seed);
  encoder_ = std::make_unique<GnnEncoder>(config.encoder, &rng);
}

PretrainStats NoPretrain::Pretrain(const GraphSource& source,
                                   const std::vector<int64_t>& indices) {
  (void)source;
  (void)indices;
  return PretrainStats{};
}

Tensor NoPretrain::EmbedGraphs(const std::vector<const Graph*>& graphs) const {
  GraphBatch batch = GraphBatch::FromGraphPtrs(graphs);
  return encoder_->EncodeGraphs(batch).Detach();
}

}  // namespace sgcl
