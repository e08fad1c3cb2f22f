// AllReduceCoordinator / AllReduceClient protocol tests: fixed-order
// reduction invariance across worker counts and submission orders,
// handshake validation, rejoin catch-up from the round cache, cache
// eviction, and duplicate-leaf dedup.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "comms/allreduce.h"
#include "common/metrics.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "gtest/gtest.h"

namespace sgcl {
namespace {

constexpr uint64_t kGradDim = 4;

AllReduceSchedule TinySchedule(int world, uint32_t accum = 4,
                               uint64_t batches_per_epoch = 8,
                               uint32_t epochs = 1) {
  AllReduceSchedule schedule;
  schedule.world_size = static_cast<uint32_t>(world);
  schedule.accum = accum;
  schedule.epochs = epochs;
  schedule.grad_dim = kGradDim;
  schedule.batches_per_epoch = batches_per_epoch;
  schedule.config_fingerprint = 0xc0ffee;
  schedule.source_fingerprint = 0xdada;
  schedule.run_seed = 99;
  return schedule;
}

std::unique_ptr<AllReduceCoordinator> StartCoordinator(
    const AllReduceSchedule& schedule, int cache_rounds = 64) {
  AllReduceCoordinatorOptions options;
  options.schedule = schedule;
  options.cache_rounds = cache_rounds;
  auto coordinator = std::make_unique<AllReduceCoordinator>(options);
  EXPECT_TRUE(coordinator->Start(0).ok());
  EXPECT_GT(coordinator->port(), 0);
  return coordinator;
}

Result<JoinReply> Join(AllReduceClient* client, int port,
                       const AllReduceSchedule& schedule, uint32_t rank,
                       uint64_t next_round = 0) {
  WorkerHello hello;
  hello.rank = rank;
  hello.schedule = schedule;
  hello.next_round = next_round;
  return client->Join(port, hello, /*connect_deadline_ms=*/5000,
                      /*io_timeout_ms=*/10000);
}

// Leaf gradients whose float sum depends on addition order: summing
// slot-order (0,1,2,3) gives a different bit pattern than (3,2,1,0)
// for these magnitudes, so bitwise-equal results across submission
// orders prove the coordinator imposes its own order.
std::vector<float> LeafGrad(uint32_t slot) {
  const float magnitudes[] = {3e7f, 1.0f, -3e7f, 1e-3f};
  std::vector<float> grad(kGradDim);
  for (uint64_t i = 0; i < kGradDim; ++i) {
    grad[i] = magnitudes[(slot + i) % 4] + static_cast<float>(slot);
  }
  return grad;
}

double LeafLoss(uint32_t slot) { return 0.25 + 1e9 * (slot % 2); }

// Runs the full two-round schedule with `world` clients, each
// submitting its owned slots in the given per-client order, and
// returns the reduced rounds in order.
std::vector<ReducedRound> ReduceWithWorld(int world, bool reverse_slots) {
  const AllReduceSchedule schedule = TinySchedule(world);
  auto coordinator = StartCoordinator(schedule);
  std::vector<std::vector<ReducedRound>> per_rank(world);
  std::vector<std::thread> threads;
  for (int rank = 0; rank < world; ++rank) {
    threads.emplace_back([&, rank] {
      AllReduceClient client;
      auto reply = Join(&client, coordinator->port(), schedule,
                        static_cast<uint32_t>(rank));
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      for (uint64_t round = 0; round < schedule.total_rounds(); ++round) {
        const uint32_t leaves = schedule.leaves_in_round(round);
        std::vector<uint32_t> slots;
        for (uint32_t slot = 0; slot < leaves; ++slot) {
          if (RankOwningSlot(slot, world) == rank) slots.push_back(slot);
        }
        if (reverse_slots) std::reverse(slots.begin(), slots.end());
        for (uint32_t slot : slots) {
          ASSERT_TRUE(client
                          .SubmitLeaf(round, slot, LeafLoss(slot),
                                      LeafGrad(slot))
                          .ok());
        }
        auto reduced = client.GetRound(round);
        ASSERT_TRUE(reduced.ok()) << reduced.status().ToString();
        per_rank[rank].push_back(*reduced);
      }
      ASSERT_TRUE(client.Goodbye(static_cast<uint32_t>(rank)).ok());
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(coordinator->WaitForGoodbyes(world, 10000));
  EXPECT_EQ(coordinator->completed_rounds(), schedule.total_rounds());
  coordinator->Stop();
  // Every rank must have seen identical broadcasts.
  for (int rank = 1; rank < world; ++rank) {
    EXPECT_EQ(per_rank[rank].size(), per_rank[0].size());
    for (size_t r = 0; r < per_rank[0].size(); ++r) {
      EXPECT_EQ(per_rank[rank][r].grad_sum, per_rank[0][r].grad_sum);
      EXPECT_EQ(per_rank[rank][r].loss_sum, per_rank[0][r].loss_sum);
    }
  }
  return per_rank[0];
}

TEST(AllReduceTest, ReductionIsBitwiseInvariantAcrossWorldAndOrder) {
  const std::vector<ReducedRound> one = ReduceWithWorld(1, false);
  const std::vector<ReducedRound> one_rev = ReduceWithWorld(1, true);
  const std::vector<ReducedRound> two = ReduceWithWorld(2, false);
  const std::vector<ReducedRound> four = ReduceWithWorld(4, true);
  ASSERT_EQ(one.size(), 2u);
  for (size_t r = 0; r < one.size(); ++r) {
    EXPECT_EQ(one[r].leaf_count, 4u);
    // Bitwise: same vector<float> contents, not approximate equality.
    EXPECT_EQ(one[r].grad_sum, one_rev[r].grad_sum);
    EXPECT_EQ(one[r].grad_sum, two[r].grad_sum);
    EXPECT_EQ(one[r].grad_sum, four[r].grad_sum);
    EXPECT_EQ(one[r].loss_sum, two[r].loss_sum);
    EXPECT_EQ(one[r].loss_sum, four[r].loss_sum);
  }
  // The magnitudes were chosen so order matters in isolation — prove
  // the premise, or the invariance assertions above are vacuous.
  float forward = 0.0f, backward = 0.0f;
  for (uint32_t slot = 0; slot < 4; ++slot) forward += LeafGrad(slot)[0];
  for (int slot = 3; slot >= 0; --slot) {
    backward += LeafGrad(static_cast<uint32_t>(slot))[0];
  }
  EXPECT_NE(forward, backward)
      << "pick nastier magnitudes: float addition commuted here";
}

// The in-process world-1 reducer runs the coordinator's slot-order sum:
// the same leaves reduce to the coordinator's bits in any submission
// order, and the reducer opens no socket and counts no comms round.
TEST(AllReduceTest, LocalReducerMatchesTheCoordinatorBitwise) {
  const std::vector<ReducedRound> cluster =
      ReduceWithWorld(1, /*reverse_slots=*/false);
  const AllReduceSchedule schedule = TinySchedule(1);
  ASSERT_EQ(cluster.size(), schedule.total_rounds());
  Counter* rounds = MetricsRegistry::Global().GetCounter("comms/rounds");
  Counter* bytes = MetricsRegistry::Global().GetCounter("comms/bytes_sent");
  const int64_t rounds_before = rounds->value();
  const int64_t bytes_before = bytes->value();
  for (bool reverse : {false, true}) {
    LocalRoundReducer local(schedule.batches_per_epoch, schedule.accum);
    for (uint64_t round = 0; round < schedule.total_rounds(); ++round) {
      const uint32_t leaves = schedule.leaves_in_round(round);
      for (uint32_t i = 0; i < leaves; ++i) {
        const uint32_t slot = reverse ? leaves - 1 - i : i;
        ASSERT_TRUE(
            local.SubmitLeaf(round, slot, LeafLoss(slot), LeafGrad(slot)).ok());
      }
      auto reduced = local.GetRound(round);
      ASSERT_TRUE(reduced.ok()) << reduced.status().ToString();
      EXPECT_EQ(reduced->round, round);
      EXPECT_EQ(reduced->leaf_count, cluster[round].leaf_count);
      EXPECT_EQ(reduced->grad_sum, cluster[round].grad_sum);
      EXPECT_EQ(reduced->loss_sum, cluster[round].loss_sum);
    }
  }
  EXPECT_EQ(rounds->value(), rounds_before);
  EXPECT_EQ(bytes->value(), bytes_before);
}

TEST(AllReduceTest, LocalReducerRefusesIncompleteAndInterleavedRounds) {
  LocalRoundReducer local(/*batches_per_epoch=*/8, /*accum=*/4);
  ASSERT_TRUE(local.SubmitLeaf(0, 0, LeafLoss(0), LeafGrad(0)).ok());
  EXPECT_EQ(local.GetRound(0).status().code(),
            StatusCode::kFailedPrecondition);  // 1 of 4 leaves
  EXPECT_EQ(local.SubmitLeaf(1, 0, LeafLoss(0), LeafGrad(0)).code(),
            StatusCode::kFailedPrecondition);  // round 0 still open
  EXPECT_EQ(local.SubmitLeaf(0, 4, LeafLoss(4), LeafGrad(4)).code(),
            StatusCode::kFailedPrecondition);  // round 0 has slots 0..3
}

TEST(AllReduceTest, RejectsMismatchedSchedule) {
  const AllReduceSchedule schedule = TinySchedule(1);
  auto coordinator = StartCoordinator(schedule);
  AllReduceSchedule wrong = schedule;
  wrong.config_fingerprint ^= 1;
  AllReduceClient client;
  auto reply = Join(&client, coordinator->port(), wrong, 0);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kFailedPrecondition);
  coordinator->Stop();
}

TEST(AllReduceTest, RejectsOutOfRangeRank) {
  const AllReduceSchedule schedule = TinySchedule(2);
  auto coordinator = StartCoordinator(schedule);
  AllReduceClient client;
  auto reply = Join(&client, coordinator->port(), schedule, /*rank=*/7);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kFailedPrecondition);
  coordinator->Stop();
}

TEST(AllReduceTest, RejoinerFetchesCompletedRoundFromCache) {
  const AllReduceSchedule schedule = TinySchedule(1);
  auto coordinator = StartCoordinator(schedule);
  AllReduceClient first;
  ASSERT_TRUE(Join(&first, coordinator->port(), schedule, 0).ok());
  for (uint32_t slot = 0; slot < 4; ++slot) {
    ASSERT_TRUE(
        first.SubmitLeaf(0, slot, LeafLoss(slot), LeafGrad(slot)).ok());
  }
  auto live = first.GetRound(0);
  ASSERT_TRUE(live.ok());
  first.Disconnect();  // dies without goodbye

  AllReduceClient rejoiner;
  auto reply = Join(&rejoiner, coordinator->port(), schedule, 0,
                    /*next_round=*/0);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->completed_rounds, 1u);
  auto cached = rejoiner.GetRound(0);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  EXPECT_EQ(cached->grad_sum, live->grad_sum);
  EXPECT_EQ(cached->loss_sum, live->loss_sum);
  coordinator->Stop();
}

TEST(AllReduceTest, EvictedRoundFailsPrecondition) {
  const AllReduceSchedule schedule = TinySchedule(1, /*accum=*/2,
                                                  /*batches=*/6);
  auto coordinator = StartCoordinator(schedule, /*cache_rounds=*/1);
  AllReduceClient client;
  ASSERT_TRUE(Join(&client, coordinator->port(), schedule, 0).ok());
  for (uint64_t round = 0; round < 3; ++round) {
    for (uint32_t slot = 0; slot < schedule.leaves_in_round(round);
         ++slot) {
      ASSERT_TRUE(
          client.SubmitLeaf(round, slot, 1.0, LeafGrad(slot)).ok());
    }
    ASSERT_TRUE(client.GetRound(round).ok());
  }
  auto evicted = client.GetRound(0);
  ASSERT_FALSE(evicted.ok());
  EXPECT_EQ(evicted.status().code(), StatusCode::kFailedPrecondition);
  coordinator->Stop();
}

TEST(AllReduceTest, DuplicateLeafSubmissionsAreFirstWriteWins) {
  const AllReduceSchedule schedule = TinySchedule(1);
  auto coordinator = StartCoordinator(schedule);
  AllReduceClient client;
  ASSERT_TRUE(Join(&client, coordinator->port(), schedule, 0).ok());
  // Slot 0 twice: the second (different) payload must be dropped.
  ASSERT_TRUE(client.SubmitLeaf(0, 0, LeafLoss(0), LeafGrad(0)).ok());
  std::vector<float> imposter(kGradDim, 1e6f);
  ASSERT_TRUE(client.SubmitLeaf(0, 0, 777.0, imposter).ok());
  for (uint32_t slot = 1; slot < 4; ++slot) {
    ASSERT_TRUE(
        client.SubmitLeaf(0, slot, LeafLoss(slot), LeafGrad(slot)).ok());
  }
  auto reduced = client.GetRound(0);
  ASSERT_TRUE(reduced.ok()) << reduced.status().ToString();
  float want = 0.0f;
  for (uint32_t slot = 0; slot < 4; ++slot) want += LeafGrad(slot)[0];
  EXPECT_EQ(reduced->grad_sum[0], want);
  coordinator->Stop();
}

TEST(AllReduceTest, WrongGradDimensionIsRejected) {
  const AllReduceSchedule schedule = TinySchedule(1);
  auto coordinator = StartCoordinator(schedule);
  AllReduceClient client;
  ASSERT_TRUE(Join(&client, coordinator->port(), schedule, 0).ok());
  std::vector<float> wrong(kGradDim + 1, 0.0f);
  // The coordinator drops the bad leaf and keeps the connection's
  // error surfacing to the worker on its next exchange; SubmitLeaf
  // itself is fire-and-forget so the failure shows up in GetRound.
  (void)client.SubmitLeaf(0, 0, 1.0, wrong);
  auto reduced = client.GetRound(0);
  EXPECT_FALSE(reduced.ok());
  coordinator->Stop();
}

// Rank 0's /status lists every worker the coordinator has seen: its
// connection, the round of its last leaf and its leaf count.
TEST(AllReduceTest, StatusBoardShowsEachWorkersRow) {
  const AllReduceSchedule schedule = TinySchedule(1);
  RunStatusBoard board;
  board.BeginRun("pretrain", 1);
  AllReduceCoordinatorOptions options;
  options.schedule = schedule;
  options.status_board = &board;
  AllReduceCoordinator coordinator(options);
  ASSERT_TRUE(coordinator.Start(0).ok());
  AllReduceClient client;
  ASSERT_TRUE(Join(&client, coordinator.port(), schedule, 0).ok());
  for (uint32_t slot = 0; slot < 4; ++slot) {
    ASSERT_TRUE(
        client.SubmitLeaf(0, slot, LeafLoss(slot), LeafGrad(slot)).ok());
  }
  // The round is reduced only after all four leaves were counted.
  ASSERT_TRUE(client.GetRound(0).ok());
  EXPECT_NE(board.ToJson().find("\"workers\":[{\"rank\":0,\"connected\":"
                                "true,\"last_round\":0,\"leaves\":4}]"),
            std::string::npos)
      << board.ToJson();
  client.Disconnect();
  coordinator.Stop();  // joins the handler, which records the leave
  EXPECT_NE(board.ToJson().find("\"workers\":[{\"rank\":0,\"connected\":"
                                "false,\"last_round\":0,\"leaves\":4}]"),
            std::string::npos)
      << board.ToJson();
}

// A sampled round's trace shows how long the worker waited for the
// reduction, as a child of the round's root span.
TEST(AllReduceTest, GetRoundWaitIsAChildOfTheSampledRound) {
  const AllReduceSchedule schedule = TinySchedule(1);
  auto coordinator = StartCoordinator(schedule);
  AllReduceClient client;
  ASSERT_TRUE(Join(&client, coordinator->port(), schedule, 0).ok());
  for (uint32_t slot = 0; slot < 4; ++slot) {
    ASSERT_TRUE(
        client.SubmitLeaf(0, slot, LeafLoss(slot), LeafGrad(slot)).ok());
  }
  TraceRing::Global().SetSampleRate(1.0);
  TraceRing::Global().SetCapacity(8);
  TraceRing::Global().Clear();
  const TraceContext ctx = TraceRing::Global().MaybeStartTrace();
  ASSERT_TRUE(ctx.valid());
  {
    ScopedTraceContext install(ctx);
    TraceSpan root("train/batch");
    ASSERT_TRUE(client.GetRound(0).ok());
  }
  const std::string tree = TraceRing::Global().TreeJson(ctx.trace_id);
  EXPECT_NE(tree.find("\"root\":{\"name\":\"train/batch\""),
            std::string::npos)
      << tree;
  EXPECT_NE(tree.find("\"children\":[{\"name\":\"comms/allreduce_wait\""),
            std::string::npos)
      << tree;
  TraceRing::Global().SetSampleRate(0.0);
  TraceRing::Global().Clear();
  coordinator->Stop();
}

TEST(AllReduceTest, DescribeMismatchNamesTheDifferingFields) {
  const AllReduceSchedule a = TinySchedule(2);
  AllReduceSchedule b = a;
  EXPECT_TRUE(a.DescribeMismatch(b).empty());
  b.accum = 9;
  b.run_seed = 123;
  const std::string diff = a.DescribeMismatch(b);
  EXPECT_NE(diff.find("accum"), std::string::npos) << diff;
  EXPECT_NE(diff.find("run_seed"), std::string::npos) << diff;
}

}  // namespace
}  // namespace sgcl
