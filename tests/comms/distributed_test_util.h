// In-process multi-worker harness for distributed pretraining tests.
//
// Each "worker process" is a thread with its own SgclTrainer and
// AllReduceClient; the coordinator runs alongside, exactly as it does
// inside rank 0's process in production. Elastic restarts are modeled
// by the harness thread catching a failed PretrainDistributed (a
// simulated crash, a torn connection, a coordinator-side fault), then
// constructing a FRESH trainer — with a deliberately different ctor
// seed when a checkpoint exists, to prove TrainState::train_seed replay
// — and rejoining from the latest checkpoint, just like a relaunched
// process would.
#ifndef SGCL_TESTS_COMMS_DISTRIBUTED_TEST_UTIL_H_
#define SGCL_TESTS_COMMS_DISTRIBUTED_TEST_UTIL_H_

#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "comms/allreduce.h"
#include "core/sgcl_trainer.h"
#include "core/train_state.h"
#include "graph/graph_source.h"
#include "gtest/gtest.h"

namespace sgcl::testing {

struct ClusterConfig {
  SgclConfig config;
  uint64_t seed = 17;
  int world = 2;
  int accum = 4;
  // Per-rank checkpoint subdirs are created under this root; empty
  // disables checkpointing (crashed workers then restart from scratch
  // and replay every round from the coordinator cache).
  std::string ckpt_root;
  int64_t ckpt_every_batches = 0;
  int cache_rounds = 1 << 16;  // tests never evict unless they say so
  int timeout_ms = 60000;
  int max_restarts = 25;
};

inline std::string RankCheckpointDir(const ClusterConfig& cc, int rank) {
  return cc.ckpt_root + "/rank-" + std::to_string(rank);
}

// One worker lifetime: fresh trainer, join, train (to completion or
// death).
inline Result<PretrainStats> RunWorkerOnce(const ClusterConfig& cc,
                                           const GraphSource& source,
                                           int rank, int port,
                                           uint64_t ctor_seed,
                                           const std::string& resume_from) {
  SgclTrainer trainer(cc.config, ctor_seed);
  PretrainOptions options;
  if (!cc.ckpt_root.empty()) {
    options.checkpoint_dir = RankCheckpointDir(cc, rank);
    options.checkpoint_every_batches = cc.ckpt_every_batches;
    options.checkpoint_keep_last = 0;  // keep all: eviction is a
                                       // separate, targeted test
  }
  options.resume_from = resume_from;
  DistributedPretrainOptions dist;
  dist.rank = rank;
  dist.world_size = cc.world;
  dist.grad_accum = cc.accum;
  dist.coordinator_port = port;
  dist.allreduce_timeout_ms = cc.timeout_ms;
  return trainer.PretrainDistributed(source, {}, options, dist);
}

// Worker with elastic restarts: any failure (simulated crash, torn
// frame, dead connection) kills this "process"; a new one rejoins from
// the rank's latest checkpoint. `restarts_out` reports how many deaths
// were survived.
inline Result<PretrainStats> RunWorkerElastic(const ClusterConfig& cc,
                                              const GraphSource& source,
                                              int rank, int port,
                                              int* restarts_out = nullptr) {
  int restarts = 0;
  while (true) {
    std::string resume;
    if (!cc.ckpt_root.empty()) {
      Result<std::string> latest =
          FindLatestCheckpoint(RankCheckpointDir(cc, rank));
      if (latest.ok()) resume = *latest;
    }
    // With a checkpoint in hand the relaunch uses a DIFFERENT ctor
    // seed: resume must replay bit-exactly off the checkpointed
    // train_seed, never off process-local state.
    const uint64_t ctor_seed =
        resume.empty() ? cc.seed
                       : cc.seed + 1000 + static_cast<uint64_t>(restarts);
    Result<PretrainStats> result =
        RunWorkerOnce(cc, source, rank, port, ctor_seed, resume);
    if (result.ok()) {
      if (restarts_out != nullptr) *restarts_out = restarts;
      return result;
    }
    if (++restarts > cc.max_restarts) return result;
  }
}

// Owns a started coordinator; Shutdown() drains goodbyes then stops.
class TestCoordinator {
 public:
  TestCoordinator(const ClusterConfig& cc, const GraphSource& source)
      : world_(cc.world), timeout_ms_(cc.timeout_ms) {
    AllReduceCoordinatorOptions options;
    options.schedule = MakePretrainSchedule(cc.config, source, source.size(),
                                            cc.world, cc.accum, cc.seed);
    options.cache_rounds = cc.cache_rounds;
    coordinator_ = std::make_unique<AllReduceCoordinator>(options);
    const Status st = coordinator_->Start(0);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  int port() const { return coordinator_->port(); }
  AllReduceCoordinator& get() { return *coordinator_; }

  void Shutdown() {
    EXPECT_TRUE(coordinator_->WaitForGoodbyes(world_, timeout_ms_));
    coordinator_->Stop();
  }

 private:
  std::unique_ptr<AllReduceCoordinator> coordinator_;
  int world_;
  int timeout_ms_;
};

// Runs a full cluster (coordinator + cc.world elastic workers) to
// completion and returns every worker's stats, indexed by rank.
inline std::vector<PretrainStats> RunCluster(const ClusterConfig& cc,
                                             const GraphSource& source,
                                             int* total_restarts = nullptr) {
  TestCoordinator coordinator(cc, source);
  std::vector<std::optional<Result<PretrainStats>>> results(cc.world);
  std::vector<int> restarts(cc.world, 0);
  std::vector<std::thread> threads;
  threads.reserve(cc.world);
  for (int rank = 0; rank < cc.world; ++rank) {
    threads.emplace_back([&, rank] {
      results[rank] = RunWorkerElastic(cc, source, rank,
                                       coordinator.port(), &restarts[rank]);
    });
  }
  for (std::thread& t : threads) t.join();
  coordinator.Shutdown();
  std::vector<PretrainStats> stats;
  for (int rank = 0; rank < cc.world; ++rank) {
    EXPECT_TRUE(results[rank].has_value());
    EXPECT_TRUE(results[rank]->ok())
        << "rank " << rank << ": " << results[rank]->status().ToString();
    if (results[rank]->ok()) stats.push_back(**results[rank]);
  }
  if (total_restarts != nullptr) {
    *total_restarts = 0;
    for (int r : restarts) *total_restarts += r;
  }
  return stats;
}

}  // namespace sgcl::testing

#endif  // SGCL_TESTS_COMMS_DISTRIBUTED_TEST_UTIL_H_
