// Training-step replay for the traced runs (and stream-dp2's step
// latency): the same public calls SgclTrainer::Pretrain makes per batch,
// timed one by one from outside the library.
#ifndef PERFBENCH_SRC_TRAIN_STEP_H_
#define PERFBENCH_SRC_TRAIN_STEP_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"
#include "core/sgcl_config.h"
#include "graph/graph_source.h"

namespace perfbench {

// Forwards to another GraphSource and records the wall time of every
// Fetch call (plus a "data/fetch" span when tracing).
class TimedSource : public sgcl::GraphSource {
 public:
  explicit TimedSource(const sgcl::GraphSource* inner) : inner_(inner) {}

  const std::string& name() const override { return inner_->name(); }
  int num_classes() const override { return inner_->num_classes(); }
  int num_tasks() const override { return inner_->num_tasks(); }
  int64_t size() const override { return inner_->size(); }
  sgcl::Result<int64_t> FeatDim() const override { return inner_->FeatDim(); }
  sgcl::Status Fetch(std::span<const int64_t> indices,
                     sgcl::FetchedGraphs* out) const override;
  uint64_t ContentFingerprint() const override {
    return inner_->ContentFingerprint();
  }
  std::vector<sgcl::IndexRange> FetchBlocks() const override {
    return inner_->FetchBlocks();
  }

  std::vector<double> fetch_seconds() const;

 private:
  const sgcl::GraphSource* inner_;
  mutable std::mutex mu_;
  mutable std::vector<double> fetch_seconds_;
};

struct StepReplay {
  // Per-step wall seconds of the whole step and of each public call.
  std::vector<double> step_s, next_s, loss_s, backward_s, optimizer_s;
  // time/generator_us advanced during each ComputeLoss, in seconds.
  std::vector<double> generator_s;
  int64_t graphs = 0;
  int64_t nodes = 0;
  // Op counts summed over the replayed steps, from shapes.
  double forward_macs = 0.0;
  double forward_bytes = 0.0;
  double backward_macs = 0.0;
  // tensor/matmul_flops advanced during the ComputeLoss calls, over 2.
  double tallied_forward_macs = 0.0;
  bool losses_finite = true;
};

// Replays training steps with a fresh model and Adam optimizer seeded by
// `seed`: per step BatchPrefetcher::Next -> SgclModel::ComputeLoss ->
// Tensor::Backward -> Adam::ClipGradNorm + Step, over batches of
// config.batch_size graphs of `source` in a seeded block-aware shuffle
// (blocks shuffled, then graphs within each block), prefetch depth 2.
// Runs at least `min_steps` steps and stops once `budget_s` has passed.
sgcl::Status ReplaySteps(const sgcl::SgclConfig& config,
                         const sgcl::GraphSource& source, uint64_t seed,
                         double budget_s, int min_steps, StepReplay* out);

// Reports the step replay's per-layer metrics (core.step_*, nn.forward_*,
// tensor.*, core.generator_share_pct, data.fetch_*, data.prefetch_stall_ms)
// and checks the shape-derived forward MACs against tensor/matmul_flops.
void ReportStepReplay(const StepReplay& replay,
                      const std::vector<double>& fetch_seconds, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRAIN_STEP_H_
