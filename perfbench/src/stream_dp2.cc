// stream-dp2: ZINC-like streaming pretraining, data-parallel.
//
// Set-up writes a seeded corpus (the MoleculeSampler stream tools/
// shard_writer uses) into a ShardedGraphStore. The measured runs are
// SgclTrainer::PretrainDistributed at world 2, with a world-1 run on the
// same schedule every third iteration, in process: an AllReduceCoordinator
// plus one thread per rank, default attention-approx generator, prefetch
// depth 2, round-boundary checkpoints every epoch. World 2 must reproduce
// world 1's per-epoch losses bit for bit. The latency sample is world 2's mean round time in
// each epoch after the first. A traced run also replays single training
// steps over the store (prefetch Next -> ComputeLoss -> Backward -> clip +
// Adam step) for the per-layer breakdown.
#include <cmath>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.h"
#include "comms/allreduce.h"
#include "common/rng.h"
#include "core/sgcl_trainer.h"
#include "core/train_state.h"
#include "data/shard_store.h"
#include "data/synthetic_molecule.h"
#include "train_step.h"

namespace perfbench {
namespace {

struct WorldRun {
  double wall_s = 0.0;
  double steady_gps = 0.0;          // rank 0, epochs after the first
  // Mean wall time of one all-reduce round (an optimizer step over
  // `accum` batches) in each of those epochs, rank 0.
  std::vector<double> round_s;
  std::vector<float> losses;        // rank 0
  bool ranks_agree = true;
  std::vector<double> ckpt_s;       // every rank's checkpoint saves
  double rank0_ckpt_s = 0.0;
  double steal = 0.0;               // hypervisor steal share during the run
  int64_t allreduce_us = 0;
  int64_t bytes_sent = 0;
  int64_t rounds = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t shard_decodes = 0;
};

sgcl::Result<WorldRun> RunWorld(const sgcl::SgclConfig& cfg, uint64_t seed,
                                int world, int accum,
                                const sgcl::ShardedGraphStore& store,
                                const std::string& ckpt_dir) {
  sgcl::SgclTrainer probe(cfg, seed);
  sgcl::AllReduceCoordinatorOptions copt;
  copt.schedule.world_size = static_cast<uint32_t>(world);
  copt.schedule.accum = static_cast<uint32_t>(accum);
  copt.schedule.epochs = static_cast<uint32_t>(cfg.epochs);
  copt.schedule.grad_dim =
      static_cast<uint64_t>(probe.model().NumParameters());
  copt.schedule.batches_per_epoch = static_cast<uint64_t>(
      sgcl::PretrainBatchesPerEpoch(store.size(), cfg.batch_size));
  copt.schedule.config_fingerprint = sgcl::ConfigFingerprint(cfg);
  copt.schedule.source_fingerprint = store.ContentFingerprint();
  copt.schedule.run_seed = seed;
  copt.cache_rounds = static_cast<int>(copt.schedule.total_rounds()) + 1;
  sgcl::AllReduceCoordinator coordinator(copt);
  SGCL_RETURN_NOT_OK(coordinator.Start(0));

  const sgcl::MetricsSnapshot before = MetricsDelta::Now();
  const int64_t decodes_before = store.shard_decodes();
  std::vector<sgcl::Status> statuses(static_cast<size_t>(world),
                                     sgcl::Status::OK());
  std::vector<std::vector<float>> losses(static_cast<size_t>(world));
  std::vector<double> epoch_s;
  std::mutex ckpt_mu;
  WorldRun run;
  const CpuTicks ticks = ReadCpuTicks();
  const auto t0 = Clock::now();
  {
    std::vector<std::thread> ranks;
    for (int rank = 0; rank < world; ++rank) {
      ranks.emplace_back([&, rank] {
        Span span("core/pretrain_distributed");
        sgcl::SgclTrainer trainer(cfg, seed);
        sgcl::PretrainOptions opts;
        opts.prefetch_depth = 2;
        opts.checkpoint_dir = ckpt_dir + "/rank-" + std::to_string(rank);
        opts.checkpoint_every = 1;
        opts.checkpoint_keep_last = 1;
        opts.on_checkpoint = [&, rank](const sgcl::CheckpointReport& r) {
          std::lock_guard<std::mutex> lock(ckpt_mu);
          run.ckpt_s.push_back(r.seconds);
          if (rank == 0) run.rank0_ckpt_s += r.seconds;
        };
        if (rank == 0) {
          opts.on_epoch_end = [&](const sgcl::EpochReport& r) {
            epoch_s.push_back(r.seconds);
          };
        }
        sgcl::DistributedPretrainOptions dist;
        dist.rank = rank;
        dist.world_size = world;
        dist.grad_accum = accum;
        dist.coordinator_port = coordinator.port();
        auto stats = trainer.PretrainDistributed(store, {}, opts, dist);
        if (!stats.ok()) {
          statuses[static_cast<size_t>(rank)] = stats.status();
          return;
        }
        losses[static_cast<size_t>(rank)] = stats->epoch_losses;
      });
    }
    for (std::thread& t : ranks) t.join();
  }
  run.wall_s = SecondsSince(t0);
  run.steal = StealShare(ticks, ReadCpuTicks());
  const bool goodbyes = coordinator.WaitForGoodbyes(world, 10000);
  coordinator.Stop();
  for (const sgcl::Status& st : statuses) SGCL_RETURN_NOT_OK(st);
  if (!goodbyes) return sgcl::Status::Unavailable("workers never said goodbye");
  for (int rank = 1; rank < world; ++rank) {
    if (losses[static_cast<size_t>(rank)] != losses[0]) run.ranks_agree = false;
  }
  run.losses = losses[0];
  const int64_t batches =
      sgcl::PretrainBatchesPerEpoch(store.size(), cfg.batch_size);
  const double graphs_per_epoch =
      static_cast<double>(batches * cfg.batch_size);
  const double rounds_per_epoch =
      static_cast<double>((batches + accum - 1) / accum);
  double steady = 0.0;
  for (size_t e = 1; e < epoch_s.size(); ++e) {
    steady += epoch_s[e];
    run.round_s.push_back(epoch_s[e] / rounds_per_epoch);
  }
  if (steady > 0.0) {
    run.steady_gps = graphs_per_epoch *
                     static_cast<double>(epoch_s.size() - 1) / steady;
  }
  const MetricsDelta delta(before, MetricsDelta::Now());
  run.allreduce_us = delta.Counter("comms/allreduce_us");
  run.bytes_sent = delta.Counter("comms/bytes_sent");
  run.rounds = delta.Counter("comms/rounds");
  run.cache_hits = delta.Counter("stream/shard_cache_hits");
  run.cache_misses = delta.Counter("stream/shard_cache_misses");
  run.shard_decodes = store.shard_decodes() - decodes_before;
  std::error_code ec;
  std::filesystem::remove_all(ckpt_dir, ec);
  return run;
}

bool AllFinite(const std::vector<float>& v) {
  for (float x : v) {
    if (!std::isfinite(x)) return false;
  }
  return !v.empty();
}

}  // namespace

void RunStreamDp2(const RunOptions& o, Outcome* out) {
  const int num_graphs = o.tiny ? 128 : 1024;
  const int64_t graphs_per_shard = o.tiny ? 32 : 128;
  const int setups = o.tiny ? 2 : 11;
  const int accum = 8;

  // ---- Set-up: write and open the sharded corpus, several times.
  std::vector<double> setup_s;
  std::unique_ptr<sgcl::ShardedGraphStore> store;
  for (int i = 0; i < setups; ++i) {
    const std::string dir = o.scratch_dir + "/corpus-" + std::to_string(i);
    const auto t0 = Clock::now();
    sgcl::ShardWriterOptions wopt;
    wopt.graphs_per_shard = graphs_per_shard;
    wopt.name = "zinc-like";
    auto writer = sgcl::ShardedGraphStoreWriter::Create(dir, wopt);
    out->Op(writer.status(), "ShardedGraphStoreWriter::Create");
    if (!writer.ok()) return;
    // The same stream as MakeZincLikeDataset(num_graphs, seed).
    sgcl::Rng rng(o.seed ^ 0x5a5a5a5aULL);
    const sgcl::MoleculeSampler sampler;
    sgcl::Status st = sgcl::Status::OK();
    for (int g = 0; g < num_graphs && st.ok(); ++g) {
      st = (*writer)->Append(sampler.Sample(&rng).graph);
    }
    if (st.ok()) st = (*writer)->Finalize();
    out->Op(st, "write shard corpus");
    if (!st.ok()) return;
    auto opened = sgcl::ShardedGraphStore::Open(dir);
    out->Op(opened.status(), "ShardedGraphStore::Open");
    if (!opened.ok()) return;
    setup_s.push_back(SecondsSince(t0));
    if (store != nullptr) {
      std::error_code ec;
      std::filesystem::remove_all(o.scratch_dir + "/corpus-" +
                                      std::to_string(i - 1),
                                  ec);
    }
    store = std::move(*opened);
  }

  sgcl::SgclConfig cfg = sgcl::MakeUnsupervisedConfig(sgcl::kMoleculeFeatDim);
  cfg.batch_size = 32;
  cfg.epochs = 3;
  out->Op(cfg.Validate(), "config");

  // ---- Measured runs: world 2 every iteration; world 1, the parity
  // baseline and the speedup's denominator, every third. A traced run
  // alternates untraced and traced iterations; the first (warm-up) one
  // stays out of the tracing-overhead comparison.
  const double budget = Budget(o.seconds, o.trace ? 0.45 : 0.95, 0.5);
  std::vector<WorldRun> w1, w2;
  std::vector<double> untraced_w2_s, traced_w2_s;
  const sgcl::MetricsSnapshot before = MetricsDelta::Now();
  const auto start = Clock::now();
  const size_t min_runs = o.trace ? 3 : 1;
  for (size_t k = 0; k < min_runs || SecondsSince(start) < budget; ++k) {
    const bool traced = o.trace && k % 2 == 1;
    Tracer::Get().SetEnabled(traced);
    const std::string tag = std::to_string(k);
    if (k % 3 == 0) {
      auto one = RunWorld(cfg, o.seed, 1, accum, *store,
                          o.scratch_dir + "/ckpt-w1-" + tag);
      out->Op(one.status(), "PretrainDistributed world 1");
      if (!one.ok()) {
        Tracer::Get().SetEnabled(false);
        return;
      }
      out->Check(AllFinite(one->losses), "world-1 losses are finite");
      if (!w1.empty()) {
        out->Check(one->losses == w1.front().losses,
                   "world-1 run " + tag + " reproduces the first bitwise");
      }
      w1.push_back(std::move(*one));
    }
    auto two = RunWorld(cfg, o.seed, 2, accum, *store,
                        o.scratch_dir + "/ckpt-w2-" + tag);
    Tracer::Get().SetEnabled(false);
    out->Op(two.status(), "PretrainDistributed world 2");
    if (!two.ok()) return;
    out->Check(two->ranks_agree, "both ranks report the same losses");
    out->Check(two->losses == w1.front().losses,
               "world-2 losses equal world-1 losses bitwise");
    if (k > 0) (traced ? traced_w2_s : untraced_w2_s).push_back(two->wall_s);
    w2.push_back(std::move(*two));
  }
  // Throughput and round times come from the least-stolen runs only.
  auto least_stolen = [](const std::vector<WorldRun>& runs) {
    std::vector<double> steal;
    for (const WorldRun& run : runs) steal.push_back(run.steal);
    return LeastStolen(steal);
  };
  const std::vector<bool> keep1 = least_stolen(w1), keep2 = least_stolen(w2);
  std::vector<double> gps1, gps2, round_s, ckpt_s, stall_pct, wait_pct;
  double bytes = 0.0, rounds = 0.0, hits = 0.0, misses = 0.0, decodes = 0.0;
  for (size_t i = 0; i < w1.size(); ++i) {
    if (keep1[i]) gps1.push_back(w1[i].steady_gps);
  }
  for (size_t i = 0; i < w2.size(); ++i) {
    const WorldRun& run = w2[i];
    if (keep2[i]) {
      gps2.push_back(run.steady_gps);
      round_s.insert(round_s.end(), run.round_s.begin(), run.round_s.end());
    }
    ckpt_s.insert(ckpt_s.end(), run.ckpt_s.begin(), run.ckpt_s.end());
    stall_pct.push_back(100.0 * run.rank0_ckpt_s / run.wall_s);
    wait_pct.push_back(100.0 * static_cast<double>(run.allreduce_us) * 1e-6 /
                       (2.0 * run.wall_s));
    bytes += static_cast<double>(run.bytes_sent);
    rounds += static_cast<double>(run.rounds);
    hits += static_cast<double>(run.cache_hits);
    misses += static_cast<double>(run.cache_misses);
    decodes += static_cast<double>(run.shard_decodes);
  }
  const double runs = static_cast<double>(w2.size());
  const double speedup = Median(gps2) / Median(gps1);

  if (!o.trace) {
    out->Metric("setup_s", Median(setup_s), "s");
    out->Metric("peak_rss_mib", PeakRssMib(), "MiB");
    out->Metric("graphs_per_s", Median(gps2), "graphs/s");
    out->Metric("latency_p50_ms", 1e3 * Median(round_s), "ms");
    out->Metric("latency_p90_ms", 1e3 * Quantile(round_s, 0.90), "ms");
    out->Display("setup_s", Median(setup_s), "s",
                 "median of " + std::to_string(setups) + " shard writes");
    out->Display("peak_rss_mib", PeakRssMib(), "MiB");
    out->Display("error_pct", out->error_pct(), "%",
                 std::to_string(out->failed()) + " of " +
                     std::to_string(out->attempted()) + " operations");
    out->Display("train_graphs_per_s", Median(gps2), "graphs/s",
                 "world 2, median of " + std::to_string(gps2.size()) +
                     " of " + std::to_string(w2.size()) + " runs");
    out->Display("world-1 graphs/s", Median(gps1), "graphs/s",
                 "median of " + std::to_string(gps1.size()) + " of " +
                     std::to_string(w1.size()) + " runs");
    out->Display("dp_speedup_x", speedup, "x", "world 2 / world 1 medians");
    out->Display("round_ms p50 / p90", 1e3 * Median(round_s), "ms",
                 "p90 " + std::to_string(1e3 * Quantile(round_s, 0.90)) +
                     ", " + std::to_string(round_s.size()) + " epochs");
    return;
  }

  // ---- Traced run: replay single training steps over the store for the
  // per-layer step breakdown.
  Tracer::Get().SetEnabled(true);
  const TimedSource timed(store.get());
  StepReplay replay;
  out->Op(ReplaySteps(cfg, timed, o.seed, Budget(o.seconds, 0.45, 0.3),
                      /*min_steps=*/4, &replay),
          "step replay");
  Tracer::Get().SetEnabled(false);
  ReportStepReplay(replay, timed.fetch_seconds(), out);
  const double gen_s = Sum(replay.generator_s);
  if (gen_s > 0.0) {
    out->Metric("core.generator_ms_per_graph",
                1e3 * gen_s / static_cast<double>(replay.graphs), "ms");
    out->Metric("core.generator_views_per_s",
                static_cast<double>(replay.nodes) / gen_s, "1/s");
  }
  out->Metric("core.checkpoint_save_ms", 1e3 * Median(ckpt_s), "ms");
  out->Metric("core.checkpoint_stall_pct", Median(stall_pct), "%");
  out->Metric("comms.allreduce_wait_pct", Median(wait_pct), "%");
  out->Metric("comms.bytes_per_round", rounds > 0.0 ? bytes / rounds : 0.0,
              "bytes");
  out->Metric("comms.rounds", rounds / runs, "count");
  out->Metric("comms.dp_speedup_x", speedup, "x");
  out->Metric("data.shard_cache_hit_pct",
              hits + misses > 0.0 ? 100.0 * hits / (hits + misses) : 0.0, "%");
  out->Metric("data.shard_decodes", decodes / runs, "count");
  const MetricsDelta delta(before, MetricsDelta::Now());
  out->Metric("common.pool_queue_wait_us_p99",
              HistQuantile(delta.Histogram("parallel/queue_wait_us"), 0.99),
              "us");
  out->Metric("bench.trace_overhead_pct",
              100.0 * (Median(traced_w2_s) / Median(untraced_w2_s) - 1.0),
              "%");
}

}  // namespace perfbench
