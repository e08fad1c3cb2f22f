// Deterministic gradient all-reduce for data-parallel pretraining.
//
// Topology: a star rooted at rank 0's process. The coordinator owns the
// reduction; every worker (rank 0's own trainer included) is a client.
// Each optimizer round covers `accum` consecutive global batches
// ("leaves", data/rank_assign.h); a worker computes the leaves it owns,
// submits each as a LEAF frame, then blocks in GetRound until the
// coordinator has every leaf of the round and has reduced them.
//
// Determinism argument: the coordinator sums leaf gradients in fixed
// slot order 0..L-1 (and leaf losses in the same order, as doubles)
// regardless of arrival order or worker count, and every worker applies
// the same broadcast sums. Float addition is deterministic for a fixed
// operand order, so the reduced round — and therefore every parameter
// update and every epoch loss — is a pure function of the schedule, not
// of N, timing, or the network. --workers=8 is bitwise --workers=1.
//
// Elastic rejoin: a worker that dies and restarts from its checkpoint
// re-handshakes with HELLO carrying the same schedule fields; the
// coordinator validates them (REJECT on any mismatch) and answers
// WELCOME with `completed_rounds`. The rejoiner replays rounds it
// missed from the coordinator's bounded result cache (GetRound on a
// completed round answers immediately) instead of recomputing, applies
// them, and is back in lockstep. Leaves re-submitted for rounds that
// already completed — or slots already present — are dropped
// first-write-wins; a deterministic recompute is bitwise-equal anyway.
//
// Liveness: worker death shows up as EOF on its connection (the handler
// marks the rank disconnected in /status); surviving workers simply
// block in GetRound — bounded by their own I/O deadline — until the
// rejoiner's leaves complete the round. The coordinator's accept loop
// deliberately has no crash-fault injection point of its own beyond
// FrameListener's catalogued "comms_srv/accept", and coordinator-side
// channels use the "comms_srv" fault prefix so tests can kill workers
// ("comms/*") without also wedging the server.
#ifndef SGCL_COMMS_ALLREDUCE_H_
#define SGCL_COMMS_ALLREDUCE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "comms/channel.h"
#include "common/status.h"
#include "common/telemetry.h"
#include "common/thread_annotations.h"
#include "data/rank_assign.h"

namespace sgcl {

// Everything that must agree between coordinator and every worker for
// their training tapes to be the same tape. Sent in full with HELLO and
// validated field-by-field; any mismatch is a REJECT.
struct AllReduceSchedule {
  uint32_t world_size = 1;
  uint32_t accum = 1;              // W: leaves (global batches) per round
  uint32_t epochs = 0;
  uint64_t grad_dim = 0;           // flattened parameter-gradient length
  uint64_t batches_per_epoch = 0;  // K (core PretrainBatchesPerEpoch)
  uint64_t config_fingerprint = 0;
  uint64_t source_fingerprint = 0;
  uint64_t run_seed = 0;           // the run's original trainer seed

  uint64_t rounds_per_epoch() const {
    return RoundsPerEpoch(batches_per_epoch, accum);
  }
  uint64_t total_rounds() const {
    return rounds_per_epoch() * epochs;
  }
  // Leaves in global round `round` (short for epoch-tail rounds).
  uint32_t leaves_in_round(uint64_t round) const {
    return LeavesInRound(batches_per_epoch, accum,
                         rounds_per_epoch() == 0
                             ? 0
                             : round % rounds_per_epoch());
  }
  // "field=value, ..." difference listing against `other`, empty when
  // equal; the REJECT message a mismatched worker sees.
  std::string DescribeMismatch(const AllReduceSchedule& other) const;
};

// One reduced round as broadcast to workers. grad_sum is the slot-order
// sum of leaf gradients (callers divide by leaf_count for the mean);
// loss_sum is the slot-order double sum of leaf losses.
struct ReducedRound {
  uint64_t round = 0;
  uint32_t leaf_count = 0;
  double loss_sum = 0.0;
  std::vector<float> grad_sum;
};

// The leaves of one round collected by slot, and the determinism kernel
// that reduces them. Shared by the coordinator and LocalRoundReducer, so
// an in-process world-1 run reduces to the coordinator's exact bits.
struct RoundLeaves {
  std::vector<std::vector<float>> grads;  // by slot
  std::vector<double> losses;             // by slot
  std::vector<bool> present;              // by slot
  uint32_t received = 0;

  // Stores slot `slot` of a `leaves`-leaf round into the slot's buffer.
  // First write wins: false (and nothing stored) when the slot is already
  // present.
  bool Add(uint32_t slot, uint32_t leaves, double loss,
           const std::vector<float>& grad);
  // Empties the round for the next one, keeping every slot's buffer.
  void Clear();
  // Fixed slot-order sums of the first `leaf_count` slots into a
  // `grad_dim`-float gradient and a double loss, independent of the
  // order the leaves arrived in.
  ReducedRound Reduce(uint64_t round, uint32_t leaf_count,
                      uint64_t grad_dim) const;
};

// Where a training loop sends each computed leaf and collects each
// reduced round. Two implementations: AllReduceClient (a multi-process
// cluster) and LocalRoundReducer (world 1, in process).
class RoundReducer {
 public:
  virtual ~RoundReducer() = default;
  virtual Status SubmitLeaf(uint64_t round, uint32_t slot, double loss,
                            const std::vector<float>& grad) = 0;
  virtual Result<ReducedRound> GetRound(uint64_t round) = 0;
};

struct AllReduceCoordinatorOptions {
  AllReduceSchedule schedule;
  // Completed rounds kept for rejoin catch-up; once evicted a round is
  // gone and a worker checkpointed before it cannot rejoin (GetRound
  // then fails FailedPrecondition). Size this from the checkpoint
  // cadence: every round since a worker's latest checkpoint must fit.
  int cache_rounds = 64;
  // Optional /status board that the coordinator tells of each worker's
  // join, leave and leaf; must outlive Stop().
  RunStatusBoard* status_board = nullptr;
};

// The reduction server. Runs an accept thread plus one handler thread
// per connection inside rank 0's process.
class AllReduceCoordinator {
 public:
  explicit AllReduceCoordinator(const AllReduceCoordinatorOptions& options);
  ~AllReduceCoordinator();

  AllReduceCoordinator(const AllReduceCoordinator&) = delete;
  AllReduceCoordinator& operator=(const AllReduceCoordinator&) = delete;

  // Binds 127.0.0.1:`port` (0 = ephemeral, see port()) and starts
  // accepting workers.
  Status Start(int port);

  // Wakes every blocked handler, joins all threads, closes all
  // connections. Idempotent; the destructor calls it.
  void Stop();

  int port() const { return listener_.port(); }

  // Rounds [0, completed_rounds()) are reduced (rounds always complete
  // in order — a worker cannot reach round r+1 before applying r).
  uint64_t completed_rounds() const;

  // Blocks until `count` GOODBYE frames have arrived or `timeout_ms`
  // elapses; true when the goodbyes all landed. Rank 0 calls this after
  // its own training returns so it never tears the server down under
  // workers still draining their last rounds. (cv-wait: the analysis
  // cannot see through std::condition_variable, like serve/batcher.h.)
  [[nodiscard]] bool WaitForGoodbyes(int count, int timeout_ms)
      SGCL_NO_THREAD_SAFETY_ANALYSIS;

 private:
  void AcceptLoop();
  void HandleConnection(FramedChannel* channel);
  // Protocol steps (called from handler threads). HandleHello returns
  // the validated rank, or an error after sending REJECT itself.
  Result<uint32_t> HandleHello(FramedChannel* channel, const Frame& frame);
  Status HandleLeaf(const Frame& frame, uint32_t rank);
  Status HandleRoundRequest(FramedChannel* channel, const Frame& frame)
      SGCL_NO_THREAD_SAFETY_ANALYSIS;

  const AllReduceCoordinatorOptions options_;
  FrameListener listener_{"comms_srv"};
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  // Handler threads and their channels, appended by the accept loop and
  // reaped only in Stop (a finished handler leaves its closed channel
  // behind; rejoins are rare and connections are cheap).
  std::vector<std::thread> handler_threads_ SGCL_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<FramedChannel>> channels_ SGCL_GUARDED_BY(mu_);
  std::map<uint64_t, RoundLeaves> pending_ SGCL_GUARDED_BY(mu_);
  std::map<uint64_t, ReducedRound> completed_ SGCL_GUARDED_BY(mu_);
  uint64_t completed_next_ SGCL_GUARDED_BY(mu_) = 0;
  int goodbyes_ SGCL_GUARDED_BY(mu_) = 0;
};

// What a worker announces when (re)joining.
struct WorkerHello {
  uint32_t rank = 0;
  AllReduceSchedule schedule;
  // First round this worker will submit leaves for (its checkpoint
  // cursor); informational, logged by the coordinator.
  uint64_t next_round = 0;
};

// The coordinator's answer to an accepted HELLO.
struct JoinReply {
  // Rounds [0, completed_rounds) are already reduced; a rejoiner
  // fetches its missed rounds from the cache instead of recomputing.
  uint64_t completed_rounds = 0;
};

// Worker-side protocol driver: one connection, used from one thread.
class AllReduceClient final : public RoundReducer {
 public:
  AllReduceClient() = default;

  // Connects to 127.0.0.1:`port`, retrying (the coordinator may still
  // be binding) until `connect_deadline_ms` elapses, then handshakes.
  // `io_timeout_ms` is the per-operation deadline afterwards — it
  // bounds how long GetRound waits for stragglers, so it must cover a
  // worker's restart-and-rejoin time. FailedPrecondition when the
  // coordinator rejects the handshake (schedule mismatch — fatal).
  Result<JoinReply> Join(int port, const WorkerHello& hello,
                         int connect_deadline_ms, int io_timeout_ms);

  // Fire-and-forget upload of one computed leaf.
  Status SubmitLeaf(uint64_t round, uint32_t slot, double loss,
                    const std::vector<float>& grad) override;

  // Blocks until `round` is reduced and returns it; the time blocked is
  // a "comms/allreduce_wait" span that adds to counter
  // "comms/allreduce_us". FailedPrecondition when the round was evicted
  // from the coordinator's cache (the checkpoint cadence outran
  // cache_rounds), Unavailable on timeout or a dead coordinator.
  Result<ReducedRound> GetRound(uint64_t round) override;

  // Clean shutdown notice; the coordinator counts these for
  // WaitForGoodbyes.
  Status Goodbye(uint32_t rank);

  void Disconnect() { channel_.Disconnect(); }
  [[nodiscard]] bool connected() const { return channel_.connected(); }

 private:
  FramedChannel channel_;  // default "comms" fault prefix
};

// The world-1 reducer: this process computes every leaf of a round, then
// reduces them in process with the coordinator's RoundLeaves::Reduce. It
// opens no socket and exports no comms/* metric.
class LocalRoundReducer final : public RoundReducer {
 public:
  // Rounds of `accum` leaves over epochs of `batches_per_epoch` batches.
  LocalRoundReducer(uint64_t batches_per_epoch, uint32_t accum)
      : batches_per_epoch_(batches_per_epoch), accum_(accum) {}

  // FailedPrecondition for a slot outside the round, or a leaf of
  // another round while one is open.
  Status SubmitLeaf(uint64_t round, uint32_t slot, double loss,
                    const std::vector<float>& grad) override;
  // FailedPrecondition unless every leaf of `round` was submitted.
  Result<ReducedRound> GetRound(uint64_t round) override;

 private:
  const uint64_t batches_per_epoch_;
  const uint32_t accum_;
  uint64_t round_ = 0;          // the open round
  uint32_t round_leaves_ = 0;   // its width
  RoundLeaves leaves_;
};

}  // namespace sgcl

#endif  // SGCL_COMMS_ALLREDUCE_H_
