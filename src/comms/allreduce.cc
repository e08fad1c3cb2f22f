#include "comms/allreduce.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/fault.h"
#include "common/io.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"

namespace sgcl {
namespace {

// recv deadline on coordinator-side connections. A timeout is no error (an
// idle worker sends nothing): the handler just re-checks for shutdown.
constexpr int kCoordinatorIoTimeoutMs = 1000;

void WriteSchedule(BufferWriter* w, const AllReduceSchedule& s) {
  w->WriteU32(s.world_size);
  w->WriteU32(s.accum);
  w->WriteU32(s.epochs);
  w->WriteU64(s.grad_dim);
  w->WriteU64(s.batches_per_epoch);
  w->WriteU64(s.config_fingerprint);
  w->WriteU64(s.source_fingerprint);
  w->WriteU64(s.run_seed);
}

AllReduceSchedule ReadSchedule(BufferReader* r) {
  AllReduceSchedule s;
  s.world_size = r->ReadU32();
  s.accum = r->ReadU32();
  s.epochs = r->ReadU32();
  s.grad_dim = r->ReadU64();
  s.batches_per_epoch = r->ReadU64();
  s.config_fingerprint = r->ReadU64();
  s.source_fingerprint = r->ReadU64();
  s.run_seed = r->ReadU64();
  return s;
}

Counter* RoundsCounter() {
  static Counter* const counter =
      MetricsRegistry::Global().GetCounter("comms/rounds");
  return counter;
}

}  // namespace

bool RoundLeaves::Add(uint32_t slot, uint32_t leaves, double loss,
                      const std::vector<float>& grad) {
  if (present.size() < leaves) {
    grads.resize(leaves);
    losses.resize(leaves, 0.0);
    present.resize(leaves, false);
  }
  if (present[slot]) return false;
  present[slot] = true;
  grads[slot].assign(grad.begin(), grad.end());
  losses[slot] = loss;
  ++received;
  return true;
}

void RoundLeaves::Clear() {
  std::fill(present.begin(), present.end(), false);
  received = 0;
}

ReducedRound RoundLeaves::Reduce(uint64_t round, uint32_t leaf_count,
                                 uint64_t grad_dim) const {
  ReducedRound reduced;
  reduced.round = round;
  reduced.leaf_count = leaf_count;
  reduced.grad_sum.assign(grad_dim, 0.0f);
  // The determinism kernel: fixed slot-order summation, independent of
  // arrival order and worker count.
  for (uint32_t s = 0; s < leaf_count; ++s) {
    const std::vector<float>& leaf = grads[s];
    for (size_t i = 0; i < reduced.grad_sum.size(); ++i) {
      reduced.grad_sum[i] += leaf[i];
    }
    reduced.loss_sum += losses[s];
  }
  return reduced;
}

std::string AllReduceSchedule::DescribeMismatch(
    const AllReduceSchedule& other) const {
  std::string diff;
  const auto field = [&](const char* name, uint64_t mine, uint64_t theirs) {
    if (mine == theirs) return;
    if (!diff.empty()) diff += ", ";
    diff += StrFormat("%s coordinator=%llu worker=%llu", name,
                      static_cast<unsigned long long>(mine),
                      static_cast<unsigned long long>(theirs));
  };
  field("world_size", world_size, other.world_size);
  field("accum", accum, other.accum);
  field("epochs", epochs, other.epochs);
  field("grad_dim", grad_dim, other.grad_dim);
  field("batches_per_epoch", batches_per_epoch, other.batches_per_epoch);
  field("config_fingerprint", config_fingerprint, other.config_fingerprint);
  field("source_fingerprint", source_fingerprint, other.source_fingerprint);
  field("run_seed", run_seed, other.run_seed);
  return diff;
}

AllReduceCoordinator::AllReduceCoordinator(
    const AllReduceCoordinatorOptions& options)
    : options_(options) {}

AllReduceCoordinator::~AllReduceCoordinator() { Stop(); }

Status AllReduceCoordinator::Start(int port) {
  if (accept_thread_.joinable()) {
    return Status::FailedPrecondition("coordinator already started");
  }
  SGCL_RETURN_NOT_OK(listener_.Listen(port));
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  SGCL_LOG(INFO) << "all-reduce coordinator listening on 127.0.0.1:"
                 << listener_.port() << " (world " << options_.schedule.world_size
                 << ", accum " << options_.schedule.accum << ", "
                 << options_.schedule.total_rounds() << " rounds)";
  return Status::OK();
}

void AllReduceCoordinator::Stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  listener_.ShutdownWake();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& channel : channels_) channel->ShutdownWake();
    cv_.notify_all();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // Closed only now: an accept thread woken above may still have been
  // about to call accept(2) on this descriptor.
  listener_.Disconnect();
  // The accept loop is gone, so the channel/thread lists are final;
  // wake any connection it registered after the first sweep, then join.
  std::vector<std::thread> handlers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& channel : channels_) channel->ShutdownWake();
    cv_.notify_all();
    handlers = std::move(handler_threads_);
    handler_threads_.clear();
  }
  for (std::thread& t : handlers) {
    if (t.joinable()) t.join();
  }
}

uint64_t AllReduceCoordinator::completed_rounds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return completed_next_;
}

bool AllReduceCoordinator::WaitForGoodbyes(int count, int timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [this, count] {
    return goodbyes_ >= count || stopping_.load(std::memory_order_relaxed);
  });
  return goodbyes_ >= count;
}

void AllReduceCoordinator::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    Result<int> fd = listener_.AcceptFd();
    if (!fd.ok()) {
      if (stopping_.load(std::memory_order_relaxed)) return;
      if (IsSimulatedCrash(fd.status())) {
        // The accept loop is the one place a simulated crash must not
        // wedge the cluster (nothing restarts the coordinator), so it
        // is logged and survived; tests target worker-side points.
        SGCL_LOG(WARNING) << "coordinator accept: " << fd.status().ToString();
        continue;
      }
      SGCL_LOG(WARNING) << "coordinator accept failed: "
                     << fd.status().ToString();
      continue;
    }
    auto channel = std::make_unique<FramedChannel>("comms_srv");
    channel->Adopt(*fd);
    channel->SetIoTimeout(kCoordinatorIoTimeoutMs);
    FramedChannel* raw = channel.get();
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_.load(std::memory_order_relaxed)) return;
    channels_.push_back(std::move(channel));
    handler_threads_.emplace_back(
        [this, raw] { HandleConnection(raw); });
  }
}

void AllReduceCoordinator::HandleConnection(FramedChannel* channel) {
  uint32_t rank = 0;
  bool greeted = false;
  while (!stopping_.load(std::memory_order_relaxed)) {
    Result<Frame> frame = channel->Recv();
    if (!frame.ok()) {
      if (IsIoTimeout(frame.status())) continue;  // idle worker
      if (!IsPeerClosed(frame.status()) &&
          !stopping_.load(std::memory_order_relaxed)) {
        SGCL_LOG(WARNING) << "coordinator connection"
                       << (greeted ? StrFormat(" (rank %u)", rank) : "")
                       << ": " << frame.status().ToString();
      }
      break;
    }
    const FrameType type = static_cast<FrameType>(frame->type);
    if (type == FrameType::kHello) {
      Result<uint32_t> hello = HandleHello(channel, *frame);
      if (!hello.ok()) break;  // REJECT already sent
      rank = *hello;
      greeted = true;
      continue;
    }
    if (!greeted) {
      SGCL_LOG(WARNING) << "coordinator: " << FrameTypeToString(frame->type)
                     << " before HELLO; closing connection";
      break;
    }
    Status handled = Status::OK();
    switch (type) {
      case FrameType::kLeaf:
        handled = HandleLeaf(*frame, rank);
        break;
      case FrameType::kRoundRequest:
        handled = HandleRoundRequest(channel, *frame);
        break;
      case FrameType::kGoodbye: {
        std::lock_guard<std::mutex> lock(mu_);
        ++goodbyes_;
        cv_.notify_all();
        handled = Status::Unavailable("goodbye");  // normal exit
        break;
      }
      default:
        handled = Status::InvalidArgument(
            StrFormat("unexpected %s frame", FrameTypeToString(frame->type)));
        break;
    }
    if (!handled.ok()) {
      if (handled.message() != "goodbye" &&
          !stopping_.load(std::memory_order_relaxed)) {
        SGCL_LOG(WARNING) << "coordinator rank " << rank << ": "
                       << handled.ToString();
      }
      break;
    }
  }
  channel->ShutdownWake();
  if (greeted && options_.status_board != nullptr) {
    options_.status_board->RecordWorkerConnected(static_cast<int>(rank),
                                                 false);
  }
}

Result<uint32_t> AllReduceCoordinator::HandleHello(FramedChannel* channel,
                                                   const Frame& frame) {
  BufferReader reader(frame.payload);
  WorkerHello hello;
  hello.rank = reader.ReadU32();
  hello.schedule = ReadSchedule(&reader);
  hello.next_round = reader.ReadU64();
  SGCL_RETURN_NOT_OK(reader.Finish("HELLO payload"));
  std::string reject;
  if (hello.rank >= options_.schedule.world_size) {
    reject = StrFormat("rank %u outside world of %u", hello.rank,
                       options_.schedule.world_size);
  } else {
    reject = options_.schedule.DescribeMismatch(hello.schedule);
  }
  if (!reject.empty()) {
    SGCL_LOG(WARNING) << "coordinator rejecting rank " << hello.rank << ": "
                   << reject;
    SGCL_RETURN_NOT_OK(channel->Send(FrameType::kReject, reject));
    return Status::FailedPrecondition(reject);
  }
  const uint64_t completed = completed_rounds();
  if (options_.status_board != nullptr) {
    options_.status_board->RecordWorkerConnected(static_cast<int>(hello.rank),
                                                 true);
  }
  BufferWriter writer;
  writer.WriteU64(completed);
  SGCL_RETURN_NOT_OK(channel->Send(FrameType::kWelcome, writer.bytes()));
  SGCL_LOG(INFO) << "coordinator: rank " << hello.rank << " joined at round "
                 << hello.next_round << " (reduced through " << completed
                 << ")";
  return hello.rank;
}

Status AllReduceCoordinator::HandleLeaf(const Frame& frame, uint32_t rank) {
  BufferReader reader(frame.payload);
  const uint64_t round = reader.ReadU64();
  const uint32_t slot = reader.ReadU32();
  const double loss = reader.ReadF64();
  const std::vector<float> grad = reader.ReadFloatVector();
  SGCL_RETURN_NOT_OK(reader.Finish("LEAF payload"));
  if (grad.size() != options_.schedule.grad_dim) {
    return Status::InvalidArgument(
        StrFormat("LEAF gradient has %zu elements, schedule says %llu",
                  grad.size(),
                  static_cast<unsigned long long>(
                      options_.schedule.grad_dim)));
  }
  if (round >= options_.schedule.total_rounds()) {
    return Status::OutOfRange(
        StrFormat("LEAF for round %llu of %llu",
                  static_cast<unsigned long long>(round),
                  static_cast<unsigned long long>(
                      options_.schedule.total_rounds())));
  }
  const uint32_t leaves = options_.schedule.leaves_in_round(round);
  if (slot >= leaves) {
    return Status::OutOfRange(StrFormat(
        "LEAF slot %u in a round of %u leaves", slot, leaves));
  }
  if (options_.status_board != nullptr) {
    options_.status_board->RecordWorkerLeaf(static_cast<int>(rank),
                                            static_cast<int64_t>(round));
  }
  std::lock_guard<std::mutex> lock(mu_);
  // First write wins: a leaf for an already-reduced round (or an
  // already-present slot) is a rejoiner re-submitting work the cluster
  // has; a deterministic recompute is bitwise-equal, so dropping it is
  // sound.
  if (round < completed_next_) return Status::OK();
  if (!pending_[round].Add(slot, leaves, loss, grad)) return Status::OK();
  // Promote every newly-complete round in order. Rounds complete in
  // order by construction (no worker reaches round r+1 before applying
  // round r), but the loop keeps the invariant local instead of
  // trusting the argument.
  while (true) {
    auto it = pending_.find(completed_next_);
    if (it == pending_.end()) break;
    const uint32_t want =
        options_.schedule.leaves_in_round(completed_next_);
    if (it->second.received < want) break;
    ReducedRound reduced = it->second.Reduce(completed_next_, want,
                                             options_.schedule.grad_dim);
    pending_.erase(it);
    completed_[reduced.round] = std::move(reduced);
    ++completed_next_;
    RoundsCounter()->Increment();
    while (completed_.size() >
           static_cast<size_t>(std::max(1, options_.cache_rounds))) {
      completed_.erase(completed_.begin());
    }
    cv_.notify_all();
  }
  return Status::OK();
}

Status AllReduceCoordinator::HandleRoundRequest(FramedChannel* channel,
                                                const Frame& frame) {
  BufferReader reader(frame.payload);
  const uint64_t round = reader.ReadU64();
  SGCL_RETURN_NOT_OK(reader.Finish("ROUND_REQUEST payload"));
  std::string payload;
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this, round] {
      return stopping_.load(std::memory_order_relaxed) ||
             round < completed_next_;
    });
    if (stopping_.load(std::memory_order_relaxed)) {
      return Status::Unavailable("coordinator stopping");
    }
    const auto it = completed_.find(round);
    if (it == completed_.end()) {
      const std::string message = StrFormat(
          "round %llu evicted from the result cache (cache_rounds %d "
          "too small for the checkpoint cadence)",
          static_cast<unsigned long long>(round), options_.cache_rounds);
      lock.unlock();
      SGCL_RETURN_NOT_OK(channel->Send(FrameType::kReject, message));
      return Status::FailedPrecondition(message);
    }
    BufferWriter writer;
    writer.WriteU64(it->second.round);
    writer.WriteU32(it->second.leaf_count);
    writer.WriteF64(it->second.loss_sum);
    writer.WriteFloatVector(it->second.grad_sum);
    payload = writer.TakeBytes();
  }
  return channel->Send(FrameType::kRoundResult, payload);
}

Result<JoinReply> AllReduceClient::Join(int port, const WorkerHello& hello,
                                        int connect_deadline_ms,
                                        int io_timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(connect_deadline_ms);
  while (true) {
    const Status status = channel_.Connect(port);
    if (status.ok()) break;
    // A crash, or a port no retry can make valid.
    if (IsSimulatedCrash(status) ||
        status.code() == StatusCode::kInvalidArgument) {
      return status;
    }
    if (std::chrono::steady_clock::now() >= deadline) return status;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  channel_.SetIoTimeout(io_timeout_ms);
  BufferWriter writer;
  writer.WriteU32(hello.rank);
  WriteSchedule(&writer, hello.schedule);
  writer.WriteU64(hello.next_round);
  SGCL_RETURN_NOT_OK(channel_.Send(FrameType::kHello, writer.bytes()));
  SGCL_ASSIGN_OR_RETURN(const Frame frame, channel_.Recv());
  if (frame.type == static_cast<uint32_t>(FrameType::kReject)) {
    return Status::FailedPrecondition(
        StrFormat("coordinator rejected rank %u: %s", hello.rank,
                  frame.payload.c_str()));
  }
  if (frame.type != static_cast<uint32_t>(FrameType::kWelcome)) {
    return Status::Internal(StrFormat("expected WELCOME, got %s",
                                      FrameTypeToString(frame.type)));
  }
  BufferReader reader(frame.payload);
  JoinReply reply;
  reply.completed_rounds = reader.ReadU64();
  SGCL_RETURN_NOT_OK(reader.Finish("WELCOME payload"));
  return reply;
}

Status AllReduceClient::SubmitLeaf(uint64_t round, uint32_t slot, double loss,
                                   const std::vector<float>& grad) {
  BufferWriter writer;
  writer.WriteU64(round);
  writer.WriteU32(slot);
  writer.WriteF64(loss);
  writer.WriteFloatVector(grad);
  return channel_.Send(FrameType::kLeaf, writer.bytes());
}

Result<ReducedRound> AllReduceClient::GetRound(uint64_t round) {
  static Counter* const allreduce_us_counter =
      MetricsRegistry::Global().GetCounter("comms/allreduce_us");
  const TraceSpan wait_span("comms/allreduce_wait", allreduce_us_counter);
  BufferWriter writer;
  writer.WriteU64(round);
  SGCL_RETURN_NOT_OK(channel_.Send(FrameType::kRoundRequest, writer.bytes()));
  SGCL_ASSIGN_OR_RETURN(const Frame frame, channel_.Recv());
  if (frame.type == static_cast<uint32_t>(FrameType::kReject)) {
    return Status::FailedPrecondition(frame.payload);
  }
  if (frame.type != static_cast<uint32_t>(FrameType::kRoundResult)) {
    return Status::Internal(StrFormat("expected ROUND_RESULT, got %s",
                                      FrameTypeToString(frame.type)));
  }
  BufferReader reader(frame.payload);
  ReducedRound reduced;
  reduced.round = reader.ReadU64();
  reduced.leaf_count = reader.ReadU32();
  reduced.loss_sum = reader.ReadF64();
  reduced.grad_sum = reader.ReadFloatVector();
  SGCL_RETURN_NOT_OK(reader.Finish("ROUND_RESULT payload"));
  if (reduced.round != round) {
    return Status::Internal(
        StrFormat("asked for round %llu, coordinator sent %llu",
                  static_cast<unsigned long long>(round),
                  static_cast<unsigned long long>(reduced.round)));
  }
  return reduced;
}

Status AllReduceClient::Goodbye(uint32_t rank) {
  BufferWriter writer;
  writer.WriteU32(rank);
  return channel_.Send(FrameType::kGoodbye, writer.bytes());
}

Status LocalRoundReducer::SubmitLeaf(uint64_t round, uint32_t slot,
                                     double loss,
                                     const std::vector<float>& grad) {
  const uint32_t leaves =
      LeavesInRound(batches_per_epoch_, accum_,
                    round % RoundsPerEpoch(batches_per_epoch_, accum_));
  if (slot >= leaves || (leaves_.received > 0 && round != round_)) {
    return Status::FailedPrecondition(StrFormat(
        "leaf %u of round %llu is not part of the open round %llu", slot,
        static_cast<unsigned long long>(round),
        static_cast<unsigned long long>(round_)));
  }
  round_ = round;
  round_leaves_ = leaves;
  leaves_.Add(slot, leaves, loss, grad);
  return Status::OK();
}

Result<ReducedRound> LocalRoundReducer::GetRound(uint64_t round) {
  if (round != round_ || leaves_.received == 0 ||
      leaves_.received < round_leaves_) {
    return Status::FailedPrecondition(StrFormat(
        "round %llu has not received all its leaves",
        static_cast<unsigned long long>(round)));
  }
  ReducedRound reduced =
      leaves_.Reduce(round, round_leaves_, leaves_.grads[0].size());
  leaves_.Clear();
  return reduced;
}

}  // namespace sgcl
