// Crash-safe training checkpoints: the complete resumable state of a
// pretraining run of the shared round loop (core/round_loop.h),
// serialized into the v2 section container (nn/checkpoint.h) and
// published atomically (common/io.h).
//
// The resume contract is *bitwise determinism*: a run checkpointed at
// epoch k and resumed in a fresh process produces exactly the per-epoch
// losses the uninterrupted run would have. That requires capturing every
// input to the remaining epochs:
//   - both towers' parameters and heads (kModel section),
//   - Adam's step counter and first/second moments (kOptimizer),
//   - the epoch-shuffle RNG stream, including the Box-Muller spare
//     (kRng); per-batch draws need no state, since each batch's stream is
//     derived from its position (DeriveBatchSeed) and the run seed,
//   - the epoch cursor plus the *current* order permutation — the loop
//     shuffles `order` in place, so epoch k+1's shuffle depends on the
//     post-epoch-k vector, not on the original indices (kCursor),
//   - a fingerprint of the SgclConfig, checked on resume so state is
//     never applied to a differently-configured trainer (kConfig).
// Completed-epoch losses/timings ride along in the cursor section so a
// resumed PretrainStats reports the whole run, not just its tail.
#ifndef SGCL_CORE_TRAIN_STATE_H_
#define SGCL_CORE_TRAIN_STATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/sgcl_config.h"
#include "tensor/optimizer.h"

namespace sgcl {

// In-memory image of one training checkpoint.
struct TrainState {
  uint64_t config_fingerprint = 0;
  std::string model_params;  // SerializeModuleParams blob (both towers
                             // plus projection and probability heads, in
                             // SgclModel::Parameters() order)
  AdamState optimizer;
  RngState rng;              // the epoch-shuffle RNG stream
  int next_epoch = 0;        // first epoch the resumed run executes
  int total_epochs = 0;      // config.epochs at save time
  int64_t total_batches = 0;
  std::vector<int64_t> order;  // epoch order permutation, post-shuffle
  std::vector<float> epoch_losses;    // completed epochs so far
  std::vector<double> epoch_seconds;  // wall time of those epochs

  // Mid-epoch (shard-level) cursor for streaming pretraining. When
  // batch_cursor > 0 the checkpoint was taken inside epoch `next_epoch`
  // after that many completed batches: resume skips the epoch shuffle
  // (the stored `order` is already post-shuffle), fast-forwards to the
  // batch at batch_cursor, and seeds the epoch's running loss from
  // partial_loss_sum, so losses stay bitwise-identical across a kill at
  // any shard/batch boundary. Absent in old checkpoints (defaults 0).
  int64_t batch_cursor = 0;
  double partial_loss_sum = 0.0;
  // GraphSource::ContentFingerprint of the training data; checked on
  // resume when nonzero so a checkpoint never silently resumes against
  // different data (0 = unknown/legacy).
  uint64_t source_fingerprint = 0;
  // The seed the run's trainer was originally constructed with. Every
  // batch's RNG derives from this (core DeriveBatchSeed), so a process
  // restarted with a *different* ctor seed still replays bit-identical
  // batches; the distributed handshake requires all workers to agree on
  // it (0 = pre-extension checkpoint).
  uint64_t train_seed = 0;
  // Batches per optimizer step (the round size, grad_accum) the run was
  // written under: 1 for plain pretraining. Resume refuses any other
  // round size, since it would continue a different schedule (0 =
  // written before the field existed; only the cursor is checked).
  uint32_t grad_accum = 0;
};

// FNV-1a over a canonical serialization of every SgclConfig field that
// influences training dynamics (architecture, objective weights,
// augmentation, optimizer hyperparameters, epoch/batch schedule). Two
// configs with equal fingerprints drive bit-identical training given
// equal state; resume refuses mismatched fingerprints.
uint64_t ConfigFingerprint(const SgclConfig& config);

// TrainState <-> v2 container bytes. Parsing validates per-section CRCs,
// requires all five sections, and never partially succeeds.
std::string SerializeTrainState(const TrainState& state);
Result<TrainState> ParseTrainState(const std::string& bytes,
                                   const std::string& what);

// Atomic save (temp file + fsync + rename) / load of one checkpoint.
Status SaveTrainCheckpoint(const TrainState& state, const std::string& path);
Result<TrainState> LoadTrainCheckpoint(const std::string& path);

// "<dir>/ckpt-000007.sgcl" for the checkpoint taken after epoch 7 (i.e.
// next_epoch == 7). Zero-padded so lexicographic order is epoch order.
std::string CheckpointFileName(const std::string& dir, int next_epoch);

// "<dir>/ckpt-000007-b00000042.sgcl" for a mid-epoch checkpoint taken
// inside epoch 7 after 42 batches. Orders after ckpt-000007.sgcl's
// predecessor (next_epoch 7 = epoch 6 complete) and before
// ckpt-000008.sgcl, matching resume order (epoch, then batch cursor).
std::string MidEpochCheckpointFileName(const std::string& dir, int epoch,
                                       int64_t batch_cursor);

// The highest-epoch "ckpt-*.sgcl" file in `dir`, or NotFound when the
// directory is missing or holds none. Ignores temp files and foreign
// names, so a crash-orphaned ".tmp" never shadows a complete checkpoint.
Result<std::string> FindLatestCheckpoint(const std::string& dir);

// Deletes all but the `keep_last` highest-epoch checkpoints in `dir`.
// keep_last <= 0 keeps everything.
Status PruneCheckpoints(const std::string& dir, int keep_last);

}  // namespace sgcl

#endif  // SGCL_CORE_TRAIN_STATE_H_
