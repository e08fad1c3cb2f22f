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
//   - the SgclConfig's canonical bytes (kConfig), compared on resume so
//     state is never applied to a differently-configured trainer, and
//     read back by LoadModel to build the model the file describes.
// Completed-epoch losses/timings ride along in the cursor section so a
// resumed PretrainStats reports the whole run, not just its tail.
#ifndef SGCL_CORE_TRAIN_STATE_H_
#define SGCL_CORE_TRAIN_STATE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/sgcl_config.h"
#include "core/sgcl_model.h"
#include "tensor/optimizer.h"

namespace sgcl {

// In-memory image of one training checkpoint.
struct TrainState {
  std::string config_bytes;  // SerializeConfig of the run's config
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
  // any shard/batch boundary.
  int64_t batch_cursor = 0;
  double partial_loss_sum = 0.0;
  // GraphSource::ContentFingerprint of the training data; checked on
  // resume so a checkpoint never silently resumes against different
  // data.
  uint64_t source_fingerprint = 0;
  // The seed the run's trainer was originally constructed with. Every
  // batch's RNG derives from this (core DeriveBatchSeed), so a process
  // restarted with a *different* ctor seed still replays bit-identical
  // batches; the distributed handshake requires all workers to agree on
  // it.
  uint64_t train_seed = 0;
  // Batches per optimizer step (the round size, grad_accum) the run was
  // written under: 1 for plain pretraining. Resume refuses any other
  // round size, since it would continue a different schedule.
  uint32_t grad_accum = 1;
};

// The kConfig payload: a canonical little-endian dump of every SgclConfig
// field (architecture, objective, augmentation, optimizer, schedule).
// ParseConfig inverts it and treats the bytes as outside input: a
// malformed or invalid dump is InvalidArgument naming the config section.
std::string SerializeConfig(const SgclConfig& config);
Result<SgclConfig> ParseConfig(const std::string& bytes,
                               const std::string& what);

// FNV-1a of SerializeConfig, compared by the all-reduce handshake.
uint64_t ConfigFingerprint(const SgclConfig& config);

// A model file holds kConfig and kModel, written atomically. LoadModel
// builds the model any checkpoint's kConfig describes (fixed init seed)
// and applies its kModel; a kConfig whose parameters cannot fit the
// kModel payload is InvalidArgument before anything is allocated.
Status SaveModel(const SgclModel& model, const std::string& path);
Result<std::unique_ptr<SgclModel>> LoadModel(const std::string& path);

// TrainState <-> v2 container bytes. Parsing validates per-section CRCs
// and the config bytes, requires all five sections, and never partially
// succeeds.
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
