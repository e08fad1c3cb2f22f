#include "core/round_loop.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>

#include "common/crc32.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "core/sgcl_model.h"
#include "core/train_state.h"
#include "data/prefetcher.h"
#include "data/rank_assign.h"
#include "nn/checkpoint.h"

namespace sgcl {
namespace {

// Stage-duration counters follow the "time/<stage>_us" convention
// (see metrics.h); this extracts them from the global registry as
// {stage: seconds}.
std::map<std::string, double> StageSecondsNow() {
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  std::map<std::string, double> stages;
  const std::string prefix = "time/";
  const std::string suffix = "_us";
  for (const auto& [name, us] : snap.counters) {
    if (name.rfind(prefix, 0) != 0) continue;
    if (name.size() < prefix.size() + suffix.size()) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
        0) {
      continue;
    }
    const std::string stage = name.substr(
        prefix.size(), name.size() - prefix.size() - suffix.size());
    stages[stage] = static_cast<double>(us) * 1e-6;
  }
  return stages;
}

std::map<std::string, double> StageDelta(
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after) {
  std::map<std::string, double> delta;
  for (const auto& [stage, seconds] : after) {
    const auto it = before.find(stage);
    const double prev = it == before.end() ? 0.0 : it->second;
    if (seconds > prev) delta[stage] = seconds - prev;
  }
  return delta;
}

// Per-epoch permutation update. Single-block sources (in-memory) shuffle
// globally. For multi-block sources (shards) it shuffles which blocks
// come in what order, and independently the indices inside each block.
// Batches then touch shards in runs instead of uniformly at random, so
// the reader's decoded-shard cache keeps its bounded size effective. The
// trade (standard for out-of-core loaders) is that two graphs from
// different shards can never share a batch unless adjacent in the shard
// sequence.
void ShuffleOrder(const std::vector<IndexRange>& blocks, Rng* rng,
                  std::vector<int64_t>* order) {
  if (blocks.size() <= 1) {
    rng->Shuffle(order);
    return;
  }
  std::vector<std::vector<int64_t>> groups(blocks.size());
  for (int64_t idx : *order) {
    // Blocks are sorted, disjoint, and cover the source: find the one
    // holding idx.
    size_t lo = 0, hi = blocks.size() - 1;
    while (lo < hi) {
      const size_t mid = (lo + hi + 1) / 2;
      if (blocks[mid].begin <= idx) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    groups[lo].push_back(idx);
  }
  std::vector<size_t> sequence;
  sequence.reserve(groups.size());
  for (size_t b = 0; b < groups.size(); ++b) {
    if (!groups[b].empty()) sequence.push_back(b);
  }
  rng->Shuffle(&sequence);
  order->clear();
  for (size_t b : sequence) {
    rng->Shuffle(&groups[b]);
    order->insert(order->end(), groups[b].begin(), groups[b].end());
  }
}

// splitmix64 finalizer (same constants as common/rng's seeding).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Concatenates every parameter's gradient in `params` order — the leaf
// layout the reducer sums and ApplyMeanGradients unpacks.
void FlattenGradients(const std::vector<Tensor>& params,
                      std::vector<float>* out) {
  out->clear();
  for (const Tensor& param : params) {
    const std::vector<float>& grad = param.grad_values();
    out->insert(out->end(), grad.begin(), grad.end());
  }
}

// Writes grad_sum / leaf_count into every parameter's gradient buffer.
// Every rank divides the same sums by the same count, so the update
// tape stays bitwise-identical across the cluster.
void ApplyMeanGradients(const std::vector<Tensor>& params,
                        const std::vector<float>& grad_sum,
                        uint32_t leaf_count) {
  const float count = static_cast<float>(leaf_count);
  size_t offset = 0;
  for (const Tensor& param : params) {
    std::vector<float>& grad = param.impl()->grad;
    for (size_t i = 0; i < grad.size(); ++i) {
      grad[i] = grad_sum[offset + i] / count;
    }
    offset += grad.size();
  }
}

}  // namespace

uint64_t DeriveBatchSeed(uint64_t run_seed, int epoch, int64_t global_batch) {
  uint64_t x = Mix64(run_seed);
  x = Mix64(x ^ static_cast<uint64_t>(epoch));
  x = Mix64(x ^ static_cast<uint64_t>(global_batch));
  return x;
}

int64_t PretrainBatchesPerEpoch(int64_t selected, int batch_size) {
  int64_t count = 0;
  for (int64_t start = 0; start + 1 < selected; start += batch_size) {
    if (std::min(selected, start + batch_size) - start < 2) break;
    ++count;
  }
  return count;
}

AllReduceSchedule MakePretrainSchedule(const SgclConfig& config,
                                       const GraphSource& source,
                                       int64_t selected, int world_size,
                                       int grad_accum, uint64_t run_seed) {
  const std::optional<int64_t> num_params = SgclModel::NumParametersFor(config);
  SGCL_CHECK(num_params.has_value());
  AllReduceSchedule schedule;
  schedule.world_size = static_cast<uint32_t>(world_size);
  schedule.accum = static_cast<uint32_t>(grad_accum);
  schedule.epochs = static_cast<uint32_t>(config.epochs);
  schedule.grad_dim = static_cast<uint64_t>(*num_params);
  schedule.batches_per_epoch = static_cast<uint64_t>(
      PretrainBatchesPerEpoch(selected, config.batch_size));
  schedule.config_fingerprint = ConfigFingerprint(config);
  schedule.source_fingerprint = source.ContentFingerprint();
  schedule.run_seed = run_seed;
  return schedule;
}

void RecordEpochLossMetrics(float mean_loss) {
  static Gauge* const loss_gauge =
      MetricsRegistry::Global().GetGauge("train/last_epoch_loss");
  static Counter* const nonfinite_counter =
      MetricsRegistry::Global().GetCounter("train/nonfinite_loss");
  loss_gauge->Set(mean_loss);
  if (!std::isfinite(mean_loss)) nonfinite_counter->Increment();
}

Result<PretrainStats> RunRoundLoop(const RoundLoopMethod& method,
                                   const GraphSource& source,
                                   const std::vector<int64_t>& indices,
                                   const PretrainOptions& options,
                                   const RoundLoopCluster& cluster) {
  std::vector<int64_t> order = indices;
  if (order.empty()) {
    order.resize(source.size());
    for (int64_t i = 0; i < source.size(); ++i) order[i] = i;
  }
  if (order.size() < 2) {
    return Status::InvalidArgument(
        "Pretrain needs at least 2 graphs (InfoNCE requires a negative)");
  }
  for (int64_t index : order) {
    if (index < 0 || index >= source.size()) {
      return Status::OutOfRange("Pretrain index outside source");
    }
  }
  if (options.prefetch_depth < 1) {
    return Status::InvalidArgument(
        "PretrainOptions::prefetch_depth must be >= 1");
  }
  if (options.checkpoint_every_batches < 0) {
    return Status::InvalidArgument(
        "PretrainOptions::checkpoint_every_batches must be >= 0");
  }
  if (options.checkpoint_every_batches > 0 &&
      options.checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "checkpoint_every_batches requires checkpoint_dir");
  }
  if (!options.checkpoint_dir.empty()) {
    if (options.checkpoint_every <= 0) {
      return Status::InvalidArgument(
          "PretrainOptions::checkpoint_every must be >= 1");
    }
    std::error_code ec;
    std::filesystem::create_directories(options.checkpoint_dir, ec);
    if (ec) {
      return Status::Internal(
          StrFormat("cannot create checkpoint directory %s: %s",
                    options.checkpoint_dir.c_str(), ec.message().c_str()));
    }
  }

  PretrainStats stats;
  stats.epoch_losses.reserve(method.epochs);
  stats.epoch_seconds.reserve(method.epochs);
  const uint32_t accum = static_cast<uint32_t>(cluster.grad_accum);
  const uint64_t source_fingerprint = source.ContentFingerprint();
  // A resumed run keeps its checkpoint's run seed, so a process
  // constructed with a different seed still replays the same batches.
  uint64_t run_seed = method.run_seed;
  int start_epoch = 0;
  int64_t resume_cursor = 0;
  double resume_partial_loss = 0.0;
  double restored_seconds = 0.0;
  if (!options.resume_from.empty()) {
    const std::string& path = options.resume_from;
    Stopwatch load_watch;
    SGCL_ASSIGN_OR_RETURN(const TrainState state, LoadTrainCheckpoint(path));
    if (state.config_bytes != method.config_bytes) {
      return Status::InvalidArgument(StrFormat(
          "%s was written by a run with config fingerprint %016llx, this "
          "trainer has %016llx",
          path.c_str(),
          static_cast<unsigned long long>(Fnv1a64(state.config_bytes)),
          static_cast<unsigned long long>(Fnv1a64(method.config_bytes))));
    }
    // A checkpoint is bound to its training data: refuse resume against
    // a source with different content.
    if (state.source_fingerprint != source_fingerprint) {
      return Status::InvalidArgument(StrFormat(
          "%s was written against a source with fingerprint %016llx, this "
          "call trains on %016llx",
          path.c_str(),
          static_cast<unsigned long long>(state.source_fingerprint),
          static_cast<unsigned long long>(source_fingerprint)));
    }
    // The checkpointed permutation must cover exactly the graphs this
    // call selected; a different index set is a different run.
    std::vector<int64_t> want = order;
    std::vector<int64_t> got = state.order;
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    if (want != got) {
      return Status::InvalidArgument(StrFormat(
          "%s covers a different graph index set than this Pretrain call",
          path.c_str()));
    }
    // Another round size is another schedule, even at an epoch boundary.
    if (state.grad_accum != accum) {
      return Status::InvalidArgument(StrFormat(
          "%s was written at grad_accum %u, this run uses grad_accum %u",
          path.c_str(), state.grad_accum, accum));
    }
    SGCL_RETURN_NOT_OK(
        ApplyModuleParams(state.model_params, method.params, path));
    SGCL_RETURN_NOT_OK(method.optimizer->ImportState(state.optimizer));
    method.shuffle_rng->SetState(state.rng);
    run_seed = state.train_seed;
    order = state.order;
    start_epoch = state.next_epoch;
    resume_cursor = state.batch_cursor;
    resume_partial_loss = state.partial_loss_sum;
    stats.epoch_losses = state.epoch_losses;
    stats.epoch_seconds = state.epoch_seconds;
    stats.total_batches = state.total_batches;
    for (double s : state.epoch_seconds) restored_seconds += s;
    const double load_seconds = load_watch.ElapsedSeconds();
    MetricsRegistry::Global().GetCounter("checkpoint/loads")->Increment();
    MetricsRegistry::Global()
        .GetCounter("time/checkpoint_us")
        ->Increment(static_cast<int64_t>(load_seconds * 1e6));
    SGCL_LOG(INFO) << "rank " << cluster.rank << " resumed from " << path
                   << " at epoch " << start_epoch << " batch "
                   << resume_cursor << " (" << load_seconds << "s load)";
  }

  const int64_t batches_per_epoch = PretrainBatchesPerEpoch(
      static_cast<int64_t>(order.size()), method.batch_size);
  const uint64_t rounds_per_epoch =
      RoundsPerEpoch(static_cast<uint64_t>(batches_per_epoch), accum);
  LocalRoundReducer local_reducer(static_cast<uint64_t>(batches_per_epoch),
                                  accum);
  RoundReducer* reducer = &local_reducer;
  // Rounds below this are already reduced cluster-wide: they are fetched
  // from the reducer (no compute) to catch back up to lockstep.
  uint64_t cached_through = 0;
  if (cluster.join) {
    const uint64_t next_round =
        static_cast<uint64_t>(start_epoch) * rounds_per_epoch +
        static_cast<uint64_t>(resume_cursor) / accum;
    SGCL_ASSIGN_OR_RETURN(cached_through, cluster.join(next_round, run_seed));
    reducer = cluster.reducer;
  }
  if (order.size() % static_cast<size_t>(method.batch_size) == 1) {
    SGCL_LOG(DEBUG) << "Pretrain: the trailing batch of one graph is "
                       "skipped every epoch (InfoNCE needs a negative)";
  }

  // Serializes the complete resumable run state and publishes it
  // atomically to `path`.
  const auto save_checkpoint = [&](int next_epoch, int64_t batch_cursor,
                                   double partial_loss_sum,
                                   const std::string& path) -> Status {
    Stopwatch save_watch;
    TrainState state;
    state.config_bytes = method.config_bytes;
    state.model_params = SerializeModuleParams(method.params);
    state.optimizer = method.optimizer->ExportState();
    state.rng = method.shuffle_rng->GetState();
    state.next_epoch = next_epoch;
    state.total_epochs = method.epochs;
    state.total_batches = stats.total_batches;
    state.order = order;
    state.epoch_losses = stats.epoch_losses;
    state.epoch_seconds = stats.epoch_seconds;
    state.batch_cursor = batch_cursor;
    state.partial_loss_sum = partial_loss_sum;
    state.source_fingerprint = source_fingerprint;
    state.train_seed = run_seed;
    state.grad_accum = accum;
    SGCL_RETURN_NOT_OK(SaveTrainCheckpoint(state, path));
    SGCL_RETURN_NOT_OK(PruneCheckpoints(options.checkpoint_dir,
                                        options.checkpoint_keep_last));
    const double save_seconds = save_watch.ElapsedSeconds();
    MetricsRegistry::Global().GetCounter("checkpoint/saves")->Increment();
    MetricsRegistry::Global()
        .GetCounter("time/checkpoint_us")
        ->Increment(static_cast<int64_t>(save_seconds * 1e6));
    SGCL_LOG(DEBUG) << "checkpoint " << path << " saved in " << save_seconds
                    << "s";
    if (options.on_checkpoint) {
      CheckpointReport report;
      report.path = path;
      report.epoch = next_epoch - (batch_cursor > 0 ? 0 : 1);
      report.seconds = save_seconds;
      options.on_checkpoint(report);
    }
    return Status::OK();
  };

  Stopwatch run_watch;
  const std::map<std::string, double> run_stages_before = StageSecondsNow();
  std::map<std::string, double> stages_before = run_stages_before;
  const auto finish = [&]() -> PretrainStats {
    stats.total_seconds = restored_seconds + run_watch.ElapsedSeconds();
    stats.stage_seconds = StageDelta(run_stages_before, StageSecondsNow());
    return std::move(stats);
  };
  static Counter* const epochs_counter =
      MetricsRegistry::Global().GetCounter("train/epochs");
  static Counter* const batches_counter =
      MetricsRegistry::Global().GetCounter("train/batches");

  const std::vector<IndexRange> blocks = source.FetchBlocks();
  PrefetcherOptions prefetch_options;
  prefetch_options.depth = options.prefetch_depth;
  BatchPrefetcher prefetcher(&source, prefetch_options);
  const size_t batch_size = static_cast<size_t>(method.batch_size);
  std::vector<float> leaf_grad;
  for (int epoch = start_epoch; epoch < method.epochs; ++epoch) {
    Stopwatch epoch_watch;
    // A mid-epoch resume re-enters an epoch whose shuffle already
    // happened (the restored `order` is post-shuffle and the restored
    // RNG already consumed it), so only fresh epochs reshuffle. Every
    // rank shuffles identically — same seed or restored state, a stream
    // nothing else touches — and epochs replayed from the cluster's
    // cache still shuffle, keeping the stream in step.
    const bool mid_epoch_resume = epoch == start_epoch && resume_cursor > 0;
    if (!mid_epoch_resume) ShuffleOrder(blocks, method.shuffle_rng, &order);
    double epoch_loss = 0.0;
    int64_t batches = 0;
    if (mid_epoch_resume) {
      // The first batch_cursor batches already ran before the checkpoint.
      batches = std::min(resume_cursor, batches_per_epoch);
      epoch_loss = resume_partial_loss;
    }
    const uint64_t first_round = static_cast<uint64_t>(batches) / accum;
    const uint64_t epoch_round =
        static_cast<uint64_t>(epoch) * rounds_per_epoch;
    // Batch b is order[b * batch_size, ...), slot b % accum of round
    // b / accum. Feed the prefetcher exactly the batches this rank will
    // compute, in order, so the pipeline can run ahead of compute;
    // rounds fetched from the cluster never decode.
    std::vector<std::vector<int64_t>> my_batches;
    for (int64_t b = static_cast<int64_t>(first_round * accum);
         b < batches_per_epoch; ++b) {
      if (epoch_round + static_cast<uint64_t>(b) / accum < cached_through ||
          RankOwningSlot(static_cast<uint32_t>(b % accum),
                         cluster.world_size) != cluster.rank) {
        continue;
      }
      const size_t begin = static_cast<size_t>(b) * batch_size;
      const size_t end = std::min(order.size(), begin + batch_size);
      my_batches.emplace_back(order.begin() + begin, order.begin() + end);
    }
    prefetcher.BeginEpoch(std::move(my_batches));
    int64_t last_ckpt_marker =
        options.checkpoint_every_batches > 0
            ? batches / options.checkpoint_every_batches
            : 0;
    for (uint64_t r = first_round; r < rounds_per_epoch; ++r) {
      if (options.should_cancel && options.should_cancel()) {
        stats.cancelled = true;
        return finish();
      }
      const uint64_t round = epoch_round + r;
      // Maybe open a sampled trace rooted at this round (a plain run's
      // batch): the stage spans below, plus any prefetch/decode work it
      // schedules, nest under train/batch. Sampling never touches a
      // training RNG (deterministic atomic counter), so losses are
      // bitwise-independent of the rate.
      const TraceContext batch_trace = TraceRing::Global().MaybeStartTrace();
      ScopedTraceContext batch_trace_install(batch_trace);
      SGCL_TRACE_SPAN("train/batch");
      const uint32_t leaves =
          LeavesInRound(static_cast<uint64_t>(batches_per_epoch), accum, r);
      for (uint32_t slot = 0; round >= cached_through && slot < leaves;
           ++slot) {
        if (RankOwningSlot(slot, cluster.world_size) != cluster.rank) {
          continue;
        }
        SGCL_ASSIGN_OR_RETURN(const FetchedGraphs fetched, prefetcher.Next());
        method.optimizer->ZeroGrad();
        // Position-keyed stochastic draws: any process computing this
        // (epoch, batch) cell — the original owner, a resumed run or an
        // elastic rejoiner — draws the identical stream.
        const int64_t global_batch = static_cast<int64_t>(r * accum + slot);
        Rng batch_rng(DeriveBatchSeed(run_seed, epoch, global_batch));
        Tensor loss = method.batch_loss(fetched.graphs(), &batch_rng);
        {
          SGCL_TRACE_SPAN_TIMED("backward");
          loss.Backward();
        }
        FlattenGradients(method.params, &leaf_grad);
        SGCL_RETURN_NOT_OK(reducer->SubmitLeaf(
            round, slot, static_cast<double>(loss.item()), leaf_grad));
      }
      SGCL_ASSIGN_OR_RETURN(const ReducedRound reduced,
                            reducer->GetRound(round));
      {
        SGCL_TRACE_SPAN_TIMED("optimizer");
        ApplyMeanGradients(method.params, reduced.grad_sum,
                           reduced.leaf_count);
        method.optimizer->ClipGradNorm(method.grad_clip);
        method.optimizer->Step();
      }
      epoch_loss += reduced.loss_sum;
      batches += reduced.leaf_count;
      batches_counter->Increment(reduced.leaf_count);
      if (options.checkpoint_every_batches > 0 &&
          batches < batches_per_epoch) {
        // Round granularity: fire when the completed-batch count crossed
        // a cadence multiple since the previous round.
        const int64_t marker = batches / options.checkpoint_every_batches;
        if (marker > last_ckpt_marker) {
          last_ckpt_marker = marker;
          SGCL_RETURN_NOT_OK(save_checkpoint(
              epoch, batches, epoch_loss,
              MidEpochCheckpointFileName(options.checkpoint_dir, epoch,
                                         batches)));
        }
      }
    }
    const float mean_loss =
        batches > 0 ? static_cast<float>(epoch_loss / batches) : 0.0f;
    stats.epoch_losses.push_back(mean_loss);
    const double epoch_seconds = epoch_watch.ElapsedSeconds();
    stats.epoch_seconds.push_back(epoch_seconds);
    stats.total_batches += batches;
    epochs_counter->Increment();
    RecordEpochLossMetrics(mean_loss);
    SGCL_LOG(DEBUG) << "pretrain epoch " << epoch << " loss " << mean_loss
                    << " (rank " << cluster.rank << "/" << cluster.world_size
                    << ")";
    if (!options.checkpoint_dir.empty() &&
        ((epoch + 1) % options.checkpoint_every == 0 ||
         epoch + 1 == method.epochs)) {
      SGCL_RETURN_NOT_OK(save_checkpoint(
          epoch + 1, 0, 0.0,
          CheckpointFileName(options.checkpoint_dir, epoch + 1)));
    }
    if (options.on_epoch_end) {
      std::map<std::string, double> stages_after = StageSecondsNow();
      EpochReport report;
      report.epoch = epoch;
      report.total_epochs = method.epochs;
      report.mean_loss = mean_loss;
      report.batches = batches;
      report.seconds = epoch_seconds;
      report.stage_seconds = StageDelta(stages_before, stages_after);
      stages_before = std::move(stages_after);
      options.on_epoch_end(report);
    }
  }
  return finish();
}

}  // namespace sgcl
