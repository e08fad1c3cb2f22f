// Self-supervised pretraining for SGCL, plain or data-parallel, through
// the shared round loop (core/round_loop.h) with its observer-based
// progress/observability API.
#ifndef SGCL_CORE_SGCL_TRAINER_H_
#define SGCL_CORE_SGCL_TRAINER_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "core/round_loop.h"
#include "core/sgcl_model.h"
#include "graph/dataset.h"
#include "graph/graph_source.h"
#include "tensor/optimizer.h"

namespace sgcl {

// Data-parallel settings for PretrainDistributed. The schedule is
// defined by (grad_accum, the global batch schedule); world_size only
// says how many processes execute it, which is why losses are bitwise
// worker-count-independent.
struct DistributedPretrainOptions {
  int rank = 0;
  int world_size = 1;
  // W: global batches reduced into one optimizer step (a "round").
  // Must be >= world_size so every worker owns work in full rounds.
  int grad_accum = 8;
  // The all-reduce coordinator's port (comms/allreduce.h), already
  // started by rank 0's process.
  int coordinator_port = 0;
  // Per-operation comms deadline. GetRound blocks this long for
  // stragglers, so it must cover a killed worker's restart-and-rejoin
  // time, not just network latency.
  int allreduce_timeout_ms = 60000;
};

class SgclTrainer {
 public:
  // `config` must pass SgclConfig::Validate(); a failed validation is a
  // programming error here (fatal). Callers holding untrusted configs
  // (e.g. the CLI) validate first and surface the Status themselves.
  SgclTrainer(const SgclConfig& config, uint64_t seed);

  // Runs config.epochs of Adam over shuffled minibatches of `source`
  // (indices into it; empty = all graphs): RunRoundLoop at world 1, one
  // batch per round, so every batch draws its stochastic augmentation
  // from Rng(DeriveBatchSeed(seed, epoch, batch)) and losses equal a
  // world-1, grad_accum-1 PretrainDistributed run bit for bit. Returns
  // InvalidArgument when fewer than 2 graphs are selected, OutOfRange
  // when an index is outside the source (see RunRoundLoop).
  Result<PretrainStats> Pretrain(const GraphSource& source,
                                 const std::vector<int64_t>& indices = {},
                                 const PretrainOptions& options = {});

  // Convenience adapter: trains from an in-memory dataset through the
  // same streaming path (InMemorySource borrows `dataset` for the call).
  Result<PretrainStats> Pretrain(const GraphDataset& dataset,
                                 const std::vector<int64_t>& indices = {},
                                 const PretrainOptions& options = {});

  // Data-parallel pretraining: this trainer acts as worker `dist.rank`
  // of `dist.world_size`, computing the micro-batches it owns
  // (data/rank_assign.h) and exchanging gradients with the coordinator
  // at `dist.coordinator_port` each round. Per-epoch losses are
  // bitwise-identical for every world_size (including 1) given the same
  // config, seed, data, and grad_accum — see comms/allreduce.h for the
  // argument — and at grad_accum 1 they equal plain Pretrain's.
  // Checkpoints (same PretrainOptions knobs) are written at round
  // boundaries; resume_from rejoins a live cluster elastically,
  // replaying missed rounds from the coordinator's cache. Returns
  // InvalidArgument, before connecting, for a world_size below 1, a
  // rank outside [0, world_size), a grad_accum below 1 or below
  // world_size, or an unset coordinator_port.
  // PretrainOptions::should_cancel is ignored — one worker cancelling
  // unilaterally would stall the cluster; stop distributed runs by
  // stopping the job.
  Result<PretrainStats> PretrainDistributed(
      const GraphSource& source, const std::vector<int64_t>& indices,
      const PretrainOptions& options,
      const DistributedPretrainOptions& dist);

  SgclModel& model() { return *model_; }
  const SgclModel& model() const { return *model_; }

 private:
  // What the round loop needs from this trainer.
  RoundLoopMethod LoopMethod();

  SgclConfig config_;
  uint64_t seed_;
  Rng rng_;  // model initialization, then the epoch shuffle
  std::unique_ptr<SgclModel> model_;
  std::unique_ptr<Adam> optimizer_;
};

}  // namespace sgcl

#endif  // SGCL_CORE_SGCL_TRAINER_H_
