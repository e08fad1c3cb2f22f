// The one pretraining loop, shared by SGCL (plain and distributed) and
// every baseline, plus the options, progress records and schedule
// helpers around it.
//
// Training is a fixed global schedule: each epoch's shuffled minibatches
// are grouped into rounds of `grad_accum` consecutive batches, and every
// round ends in one optimizer step on the mean of its batch gradients.
// Plain pretraining is the schedule's world-1, grad_accum-1 case, reduced
// in process; a cluster runs the same loop with its gradients summed by
// the all-reduce coordinator (comms/allreduce.h).
#ifndef SGCL_CORE_ROUND_LOOP_H_
#define SGCL_CORE_ROUND_LOOP_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "comms/allreduce.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/sgcl_config.h"
#include "graph/graph_source.h"
#include "tensor/optimizer.h"

namespace sgcl {

// Per-epoch progress record handed to PretrainOptions::on_epoch_end.
struct EpochReport {
  int epoch = 0;        // 0-based
  int total_epochs = 0;
  float mean_loss = 0.0f;  // mean minibatch loss of this epoch
  int64_t batches = 0;
  double seconds = 0.0;  // wall time of this epoch
  // Wall seconds spent per instrumented stage during this epoch, keyed by
  // stage name ("generator", "augmentation", "encode", "loss",
  // "backward", "optimizer", ...). Derived from the global metrics
  // registry's "time/<stage>_us" counters, so stages nested in parallel
  // workers aggregate across threads and a stage's total can exceed the
  // epoch's wall time.
  std::map<std::string, double> stage_seconds;
};

struct PretrainStats {
  std::vector<float> epoch_losses;   // mean minibatch loss per epoch
  std::vector<double> epoch_seconds; // wall time per epoch
  double total_seconds = 0.0;
  int64_t total_batches = 0;
  // Sum of per-epoch stage_seconds over the whole run.
  std::map<std::string, double> stage_seconds;
  // True when PretrainOptions::should_cancel stopped the run early;
  // epoch_losses then holds only the completed epochs.
  bool cancelled = false;
};

// Record of one checkpoint save handed to PretrainOptions::on_checkpoint.
struct CheckpointReport {
  std::string path;
  int epoch = 0;         // 0-based epoch the checkpoint was taken after
  double seconds = 0.0;  // serialize + atomic-publish wall time
};

// Observability and control hooks for pretraining. Default-constructed
// options reproduce the plain training loop exactly: the observer only
// reads timings, so attaching one never changes epoch_losses (the loop's
// RNG streams and arithmetic are untouched). Checkpointing is likewise
// off the training tape — it snapshots state between rounds, so enabling
// it never perturbs losses either.
struct PretrainOptions {
  // Called after each completed epoch.
  std::function<void(const EpochReport&)> on_epoch_end;
  // Polled before every round (every batch of a plain run); returning
  // true stops training before that round (the partial epoch is
  // discarded from epoch_losses and stats.cancelled is set).
  std::function<bool()> should_cancel;

  // Crash-safe checkpointing (core/train_state.h). When checkpoint_dir
  // is non-empty, a checkpoint is written atomically after every
  // checkpoint_every-th completed epoch and after the final epoch,
  // retaining the checkpoint_keep_last newest files.
  std::string checkpoint_dir;
  int checkpoint_every = 1;
  int checkpoint_keep_last = 3;
  // Path of a checkpoint to resume from (typically
  // FindLatestCheckpoint(checkpoint_dir)). The trainer must have been
  // constructed with the checkpoint's config, run at the checkpoint's
  // grad_accum, and the call's `indices` must select the same graph set
  // the checkpointed run used. The resumed run replays the exact
  // remaining epochs: its PretrainStats (including the restored-epoch
  // prefix) is bitwise identical to an uninterrupted run's.
  std::string resume_from;
  // Called after each successful checkpoint save.
  std::function<void(const CheckpointReport&)> on_checkpoint;

  // Streaming pipeline (data/prefetcher.h): batches kept in flight ahead
  // of the training step, at least 1. Prefetching only moves *when*
  // decode happens, never what is computed, so changing the depth cannot
  // change losses.
  int prefetch_depth = 2;
  // When > 0 (and checkpoint_dir is set), additionally checkpoint inside
  // each epoch at the first round boundary after every N completed
  // batches. These mid-epoch checkpoints carry a batch-level cursor, so a
  // kill at any shard boundary resumes bitwise-exactly (see
  // core/train_state.h).
  int64_t checkpoint_every_batches = 0;
};

// The seed of the derived RNG stream that batch `global_batch` of epoch
// `epoch` consumes (splitmix64-style finalizer chain). Keyed on the run's
// ORIGINAL trainer seed (TrainState::train_seed), not the current
// process's, so a restarted process — even one handed a fresh ctor seed —
// replays bit-identical stochastic draws for every batch it recomputes,
// and every worker of a cluster draws the same stream for a batch.
uint64_t DeriveBatchSeed(uint64_t run_seed, int epoch, int64_t global_batch);

// Batches one epoch runs over `selected` graphs at `batch_size`
// (trailing batches with fewer than 2 graphs are dropped — InfoNCE needs
// a negative). The distributed schedule quantity K: every worker and the
// coordinator must compute the same value.
int64_t PretrainBatchesPerEpoch(int64_t selected, int batch_size);

// The all-reduce schedule of SGCL pretraining under `config` on
// `selected` graphs of `source` (source.size() when training on all of
// it), run by `world_size` workers in rounds of `grad_accum` batches
// with per-batch streams keyed on `run_seed`. The coordinator and every
// worker build it here, so their HELLO fields agree by construction.
AllReduceSchedule MakePretrainSchedule(const SgclConfig& config,
                                       const GraphSource& source,
                                       int64_t selected, int world_size,
                                       int grad_accum, uint64_t run_seed);

// Publishes one epoch's loss to the global metrics registry: sets gauge
// "train/last_epoch_loss" and increments counter "train/nonfinite_loss"
// when the loss is NaN/Inf — divergence must show up in exports (where
// JSON serializes the loss itself as null), not be masked. Called by the
// loop after every epoch; exposed for direct unit testing.
void RecordEpochLossMetrics(float mean_loss);

// What a pretraining method hands the loop. SGCL and the baselines differ
// only in these fields.
struct RoundLoopMethod {
  // Every trainable tensor, in the one order the optimizer, the
  // flattened gradient the reducer sums, and the checkpoint's kModel
  // payload share.
  std::vector<Tensor> params;
  Adam* optimizer = nullptr;   // built over `params`
  Rng* shuffle_rng = nullptr;  // drives the epoch shuffle and nothing else
  // Keys every batch's stream (DeriveBatchSeed); a resumed run keeps its
  // checkpoint's run seed instead.
  uint64_t run_seed = 0;
  // SerializeConfig bytes: written into checkpoints and compared with a
  // resumed checkpoint's; methods that never checkpoint leave it empty.
  std::string config_bytes;
  int epochs = 0;
  int batch_size = 0;
  float grad_clip = 0.0f;
  // The minibatch objective, differentiable w.r.t. `params`. `rng` is the
  // batch's own position-keyed stream.
  std::function<Tensor(const std::vector<const Graph*>& graphs, Rng* rng)>
      batch_loss;
};

// Who executes the schedule. The default is plain pretraining: world 1,
// one batch per round, reduced in process by a LocalRoundReducer.
struct RoundLoopCluster {
  int rank = 0;
  int world_size = 1;
  int grad_accum = 1;
  // For a multi-process run, both set: `join` is called once the run's
  // first round and run seed are known (after any resume), joins the
  // cluster, and returns how many rounds it has already reduced; the
  // loop fetches those from `reducer` instead of recomputing them.
  RoundReducer* reducer = nullptr;
  std::function<Result<uint64_t>(uint64_t next_round, uint64_t run_seed)>
      join;
};

// Runs method.epochs epochs over shuffled minibatches of source[indices]
// (all graphs when empty). Each round this rank computes the batches it
// owns (data/rank_assign.h) with Rng(DeriveBatchSeed(run seed, epoch,
// batch)), submits their flattened gradients to the reducer, then takes
// one clipped Adam step on the reduced mean. Returns InvalidArgument when
// fewer than 2 graphs are selected, an option is invalid, or
// the resumed checkpoint belongs to another run; OutOfRange when an index
// is outside the source. Batches stream through the prefetch pipeline;
// for multi-block sources (sharded stores) the per-epoch shuffle is
// block-aware — shard order and within-shard order are both shuffled,
// bounding the decoded-shard working set — while single-block sources
// (in-memory) shuffle globally. Losses depend on the schedule
// (grad_accum), never on world_size.
Result<PretrainStats> RunRoundLoop(const RoundLoopMethod& method,
                                   const GraphSource& source,
                                   const std::vector<int64_t>& indices,
                                   const PretrainOptions& options,
                                   const RoundLoopCluster& cluster = {});

}  // namespace sgcl

#endif  // SGCL_CORE_ROUND_LOOP_H_
