// distributed_bench: data-parallel scaling benchmark over the loopback
// all-reduce: the speedup of N workers over 1 on the same host, reported
// only WITH bitwise-identical losses.
//
//   distributed_bench [--graphs=96] [--epochs=2] [--batch=4]
//                     [--hidden=16] [--accum=8] [--worlds=1,2]
//                     [--seed=0] [--out-json=distributed.json]
//
// For each worker count in --worlds the tool runs the full production
// stack in one process: an AllReduceCoordinator plus one thread per
// rank, each owning its own SgclTrainer and running PretrainDistributed
// against the coordinator's ephemeral port — the same wire protocol,
// framing, and fixed-order reduction as `sgcl_cli pretrain --workers=N`
// across processes, minus the fork/exec noise that would swamp a
// benchmark this size. Every world's per-epoch losses are checked
// bitwise against world=1 before any throughput number is reported:
// a speedup that breaks parity is a failure, not a result.
//
// --out-json writes a bench_diff-readable file: per-world wall seconds,
// graphs/sec, speedup vs world=1, and the comms counters (allreduce wait
// micros, bytes moved) that explain scaling gaps. tools/bench_record.py
// records the committed BENCH_distributed.json from it.
#include <charconv>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comms/allreduce.h"
#include "common/bench_compare.h"
#include "common/flags.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "core/sgcl_trainer.h"
#include "core/train_state.h"
#include "data/synthetic_molecule.h"
#include "graph/graph_source.h"

namespace sgcl {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int64_t CounterValue(const char* name) {
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

struct WorldResult {
  double wall_s = 0.0;
  std::vector<float> epoch_losses;
  int64_t allreduce_us = 0;
  int64_t bytes = 0;
};

// One full N-worker cluster run: coordinator + one trainer thread per
// rank, all ranks clients of the coordinator (star topology, exactly
// as in production rank 0).
Result<WorldResult> RunWorld(const SgclConfig& cfg, uint64_t seed,
                             int world, int accum,
                             const GraphSource& source) {
  AllReduceCoordinatorOptions copt;
  copt.schedule =
      MakePretrainSchedule(cfg, source, source.size(), world, accum, seed);
  copt.cache_rounds =
      static_cast<int>(copt.schedule.total_rounds()) + 1;

  AllReduceCoordinator coordinator(copt);
  SGCL_RETURN_NOT_OK(coordinator.Start(0));

  const int64_t allreduce_us_before = CounterValue("comms/allreduce_us");
  const int64_t bytes_before =
      CounterValue("comms/bytes_sent") + CounterValue("comms/bytes_recv");

  std::vector<Status> statuses(world, Status::OK());
  std::vector<std::vector<float>> losses(world);
  Stopwatch watch;
  {
    std::vector<std::thread> ranks;
    ranks.reserve(world);
    for (int rank = 0; rank < world; ++rank) {
      ranks.emplace_back([&, rank] {
        SgclTrainer trainer(cfg, seed);
        DistributedPretrainOptions dist;
        dist.rank = rank;
        dist.world_size = world;
        dist.grad_accum = accum;
        dist.coordinator_port = coordinator.port();
        auto stats =
            trainer.PretrainDistributed(source, {}, PretrainOptions(), dist);
        if (!stats.ok()) {
          statuses[rank] = stats.status();
          return;
        }
        losses[rank] = stats->epoch_losses;
      });
    }
    for (auto& t : ranks) t.join();
  }
  WorldResult result;
  result.wall_s = watch.ElapsedSeconds();
  if (!coordinator.WaitForGoodbyes(world, /*timeout_ms=*/10000)) {
    return Status::Unavailable("workers never said goodbye");
  }
  coordinator.Stop();

  for (int rank = 0; rank < world; ++rank) {
    SGCL_RETURN_NOT_OK(statuses[rank]);
    if (losses[rank] != losses[0]) {
      return Status::Internal(
          "rank " + std::to_string(rank) +
          " losses diverged from rank 0 within one cluster");
    }
  }
  result.epoch_losses = losses[0];
  result.allreduce_us =
      CounterValue("comms/allreduce_us") - allreduce_us_before;
  result.bytes = CounterValue("comms/bytes_sent") +
                 CounterValue("comms/bytes_recv") - bytes_before;
  return result;
}

int Run(int argc, char** argv) {
  int64_t graphs = 96;
  int epochs = 2;
  int64_t batch = 4;
  int64_t hidden = 16;
  int accum = 8;
  uint64_t seed = 0;
  std::string worlds_csv = "1,2";
  std::string out_json;
  FlagSet flags("distributed_bench");
  flags.Int64("graphs", &graphs, "molecules in the benchmark corpus");
  flags.Int("epochs", &epochs, "pretraining epochs per world");
  flags.Int64("batch", &batch, "minibatch size");
  flags.Int64("hidden", &hidden, "encoder hidden width");
  flags.Int("accum", &accum, "global batches per all-reduce round");
  flags.Uint64("seed", &seed, "corpus + trainer seed");
  flags.String("worlds", &worlds_csv,
               "comma-separated worker counts (first must be 1: the "
               "parity baseline)");
  flags.String("out-json", &out_json,
               "write results as a bench_diff-readable JSON file");
  const Status st = flags.Parse(argc, argv, 1);
  if (flags.help_requested()) {
    std::printf("%s", flags.Help().c_str());
    return 0;
  }
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n%s", st.ToString().c_str(),
                 flags.Help().c_str());
    return 2;
  }

  std::vector<int> worlds;
  {
    std::stringstream ss(worlds_csv);
    std::string token;
    while (std::getline(ss, token, ',')) {
      // The whole token must be the number: "2x" is an error, not 2.
      int world = 0;
      const char* const end = token.data() + token.size();
      const std::from_chars_result parsed =
          std::from_chars(token.data(), end, world);
      if (parsed.ec != std::errc() || parsed.ptr != end || world < 1 ||
          world > accum) {
        std::fprintf(stderr,
                     "error: --worlds entry '%s' must be in [1, accum=%d]\n",
                     token.c_str(), accum);
        return 2;
      }
      worlds.push_back(world);
    }
  }
  if (worlds.empty() || worlds[0] != 1) {
    std::fprintf(stderr,
                 "error: --worlds must start with 1 (the parity "
                 "baseline)\n");
    return 2;
  }
  if (graphs < 4 || epochs < 1 || batch < 2) {
    std::fprintf(stderr, "error: implausible bench configuration\n");
    return 2;
  }

  SgclConfig cfg = MakeUnsupervisedConfig(kMoleculeFeatDim);
  cfg.encoder.hidden_dim = static_cast<int>(hidden);
  cfg.encoder.num_layers = 2;
  cfg.proj_dim = static_cast<int>(hidden);
  cfg.batch_size = batch;
  cfg.epochs = epochs;
  if (const Status valid = cfg.Validate(); !valid.ok()) {
    std::fprintf(stderr, "error: %s\n", valid.ToString().c_str());
    return 2;
  }

  GraphDataset dataset =
      MakeZincLikeDataset(static_cast<int>(graphs), seed);
  const InMemorySource source(&dataset);

  std::vector<BenchEntry> entries;
  const auto add = [&entries](std::string name, double value,
                              std::string unit, BenchBetter better) {
    BenchEntry e;
    e.name = std::move(name);
    e.value = value;
    e.unit = std::move(unit);
    e.better = better;
    entries.push_back(std::move(e));
  };
  std::vector<float> baseline_losses;
  double baseline_gps = 0.0;
  std::printf("corpus: %lld graphs, batch %lld, accum %d, %d epochs\n",
              static_cast<long long>(graphs),
              static_cast<long long>(batch), accum, epochs);
  for (const int world : worlds) {
    auto result = RunWorld(cfg, seed, world, accum, source);
    if (!result.ok()) return Fail(result.status());
    if (world == 1) {
      baseline_losses = result->epoch_losses;
    } else if (result->epoch_losses != baseline_losses) {
      std::fprintf(stderr,
                   "error: %d-worker losses diverged from 1-worker "
                   "losses (bitwise parity broken)\n",
                   world);
      return 1;
    }
    const double gps =
        static_cast<double>(graphs) * epochs / result->wall_s;
    if (world == 1) baseline_gps = gps;
    const double speedup = gps / baseline_gps;
    std::printf("world=%d: %7.2fs (%.0f graphs/s, %.2fx vs world=1, "
                "losses bitwise-identical), allreduce wait %lld us, "
                "%lld comms bytes\n",
                world, result->wall_s, gps, speedup,
                static_cast<long long>(result->allreduce_us),
                static_cast<long long>(result->bytes));
    const std::string prefix =
        "distributed/world" + std::to_string(world);
    add(prefix + "/pretrain", result->wall_s, "s", BenchBetter::kLower);
    add(prefix + "/graphs_per_s", gps, "graphs/s", BenchBetter::kHigher);
    add(prefix + "/speedup_x100", 100.0 * speedup, "%",
        BenchBetter::kHigher);
    add(prefix + "/allreduce_wait_us",
        static_cast<double>(result->allreduce_us), "us", BenchBetter::kLower);
    add(prefix + "/comms_bytes", static_cast<double>(result->bytes), "bytes",
        BenchBetter::kLower);
  }

  if (!out_json.empty()) {
    const std::string context =
        "{\"library\":\"distributed_bench\",\"graphs\":" +
        std::to_string(graphs) + ",\"epochs\":" + std::to_string(epochs) +
        ",\"batch\":" + std::to_string(batch) +
        ",\"accum\":" + std::to_string(accum) + ",\"worlds\":\"" +
        worlds_csv + "\"}";
    const Status written = WriteBenchJson(out_json, context, entries);
    if (!written.ok()) return Fail(written);
    std::printf("wrote %s\n", out_json.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace sgcl

int main(int argc, char** argv) { return sgcl::Run(argc, argv); }
