#include "core/sgcl_trainer.h"

#include "comms/allreduce.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/train_state.h"

namespace sgcl {

// How long Join retries while the coordinator may still be binding.
constexpr int kConnectDeadlineMs = 15000;

SgclTrainer::SgclTrainer(const SgclConfig& config, uint64_t seed)
    : config_(config), seed_(seed), rng_(seed) {
  const Status valid = config.Validate();
  if (!valid.ok()) {
    SGCL_LOG(ERROR) << "invalid SgclConfig: " << valid.ToString();
  }
  SGCL_CHECK(valid.ok());
  model_ = std::make_unique<SgclModel>(config_, &rng_);
  optimizer_ = std::make_unique<Adam>(model_->Parameters(),
                                      config_.learning_rate);
}

RoundLoopMethod SgclTrainer::LoopMethod() {
  RoundLoopMethod method;
  method.params = model_->Parameters();
  method.optimizer = optimizer_.get();
  method.shuffle_rng = &rng_;
  method.run_seed = seed_;
  method.config_bytes = SerializeConfig(config_);
  method.epochs = config_.epochs;
  method.batch_size = config_.batch_size;
  method.grad_clip = config_.grad_clip;
  method.batch_loss = [this](const std::vector<const Graph*>& graphs,
                             Rng* rng) {
    return model_->ComputeLoss(graphs, rng);
  };
  return method;
}

Result<PretrainStats> SgclTrainer::Pretrain(const GraphDataset& dataset,
                                            const std::vector<int64_t>& indices,
                                            const PretrainOptions& options) {
  const InMemorySource source(&dataset);
  return Pretrain(source, indices, options);
}

Result<PretrainStats> SgclTrainer::Pretrain(const GraphSource& source,
                                            const std::vector<int64_t>& indices,
                                            const PretrainOptions& options) {
  return RunRoundLoop(LoopMethod(), source, indices, options);
}

Result<PretrainStats> SgclTrainer::PretrainDistributed(
    const GraphSource& source, const std::vector<int64_t>& indices,
    const PretrainOptions& options, const DistributedPretrainOptions& dist) {
  if (dist.world_size < 1) {
    return Status::InvalidArgument(
        "DistributedPretrainOptions::world_size must be >= 1");
  }
  if (dist.rank < 0 || dist.rank >= dist.world_size) {
    return Status::InvalidArgument(StrFormat(
        "DistributedPretrainOptions::rank %d outside [0, %d)", dist.rank,
        dist.world_size));
  }
  if (dist.grad_accum < 1) {
    return Status::InvalidArgument(
        "DistributedPretrainOptions::grad_accum must be >= 1");
  }
  if (dist.world_size > dist.grad_accum) {
    // A full round has grad_accum leaf slots; more workers than slots
    // would leave some ranks with no work and an undefined schedule.
    return Status::InvalidArgument(StrFormat(
        "world_size %d exceeds grad_accum %d: every worker must own at "
        "least one leaf slot per full round",
        dist.world_size, dist.grad_accum));
  }
  if (dist.coordinator_port <= 0) {
    return Status::InvalidArgument(
        "DistributedPretrainOptions::coordinator_port must be set");
  }

  AllReduceClient client;
  RoundLoopCluster cluster;
  cluster.rank = dist.rank;
  cluster.world_size = dist.world_size;
  cluster.grad_accum = dist.grad_accum;
  cluster.reducer = &client;
  cluster.join = [&](uint64_t next_round,
                     uint64_t run_seed) -> Result<uint64_t> {
    const int64_t selected =
        indices.empty() ? source.size() : static_cast<int64_t>(indices.size());
    WorkerHello hello;
    hello.rank = static_cast<uint32_t>(dist.rank);
    hello.schedule = MakePretrainSchedule(config_, source, selected,
                                          dist.world_size, dist.grad_accum,
                                          run_seed);
    hello.next_round = next_round;
    SGCL_ASSIGN_OR_RETURN(
        const JoinReply reply,
        client.Join(dist.coordinator_port, hello, kConnectDeadlineMs,
                    dist.allreduce_timeout_ms));
    if (reply.completed_rounds > next_round) {
      SGCL_LOG(INFO) << "rank " << dist.rank << " catching up: rounds ["
                     << next_round << ", " << reply.completed_rounds
                     << ") replay from the coordinator cache";
    }
    return reply.completed_rounds;
  };
  PretrainOptions worker_options = options;
  worker_options.should_cancel = nullptr;
  SGCL_ASSIGN_OR_RETURN(
      PretrainStats stats,
      RunRoundLoop(LoopMethod(), source, indices, worker_options, cluster));
  SGCL_RETURN_NOT_OK(client.Goodbye(static_cast<uint32_t>(dist.rank)));
  client.Disconnect();
  return stats;
}

}  // namespace sgcl
