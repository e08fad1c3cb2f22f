#include "comms/channel.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/string_util.h"

namespace sgcl {
namespace {

// Recv chunks this large keep the per-frame syscall count low without
// ballooning the per-connection buffer.
constexpr size_t kRecvChunk = 64 * 1024;
// Message marker IsPeerClosed keys on; kept in one place so the
// coordinator's EOF detection can never drift from the producer.
constexpr const char* kPeerClosedMessage = "comms peer closed connection";
// Marker IsIoTimeout keys on, embedded in every deadline-expiry Status.
constexpr const char* kTimeoutMarker = "timed out after";

Counter* BytesSentCounter() {
  static Counter* const counter =
      MetricsRegistry::Global().GetCounter("comms/bytes_sent");
  return counter;
}

Counter* BytesRecvCounter() {
  static Counter* const counter =
      MetricsRegistry::Global().GetCounter("comms/bytes_recv");
  return counter;
}

// Shared fault-point gate: translates an armed fault at `point` into
// the Status the caller propagates, or nullopt to proceed. kShortWrite
// is only meaningful at send points; elsewhere it degrades to kError.
std::optional<Status> CheckFault(const std::string& point) {
  const auto fault = FaultInjector::Global().Check(point);
  if (!fault.has_value()) return std::nullopt;
  if (*fault == FaultKind::kCrash) return SimulatedCrash(point);
  return Status::Unavailable(
      StrFormat("injected fault at %s", point.c_str()));
}

}  // namespace

bool IsPeerClosed(const Status& status) {
  return status.code() == StatusCode::kUnavailable &&
         status.message().find(kPeerClosedMessage) != std::string::npos;
}

bool IsIoTimeout(const Status& status) {
  return status.code() == StatusCode::kUnavailable &&
         status.message().find(kTimeoutMarker) != std::string::npos;
}

FramedChannel::FramedChannel(std::string fault_prefix)
    : fault_prefix_(std::move(fault_prefix)) {}

FramedChannel::~FramedChannel() { Disconnect(); }

Status FramedChannel::Connect(int port) {
  if (connected()) return Status::FailedPrecondition("already connected");
  if (auto fault = CheckFault(fault_prefix_ + "/connect"); fault.has_value()) {
    return *fault;
  }
  SGCL_ASSIGN_OR_RETURN(const int fd, ConnectLoopback(port));
  fd_.store(fd, std::memory_order_release);
  SetSocketTimeouts(fd, timeout_ms_, timeout_ms_);
  return Status::OK();
}

void FramedChannel::Adopt(int fd) {
  Disconnect();
  SetNoDelay(fd);
  fd_.store(fd, std::memory_order_release);
  SetSocketTimeouts(fd, timeout_ms_, timeout_ms_);
}

void FramedChannel::SetIoTimeout(int timeout_ms) {
  timeout_ms_ = timeout_ms;
  if (connected()) SetSocketTimeouts(fd(), timeout_ms_, timeout_ms_);
}

Status FramedChannel::Send(uint32_t type, std::string_view payload) {
  if (!connected()) return Status::FailedPrecondition("channel not connected");
  const std::string frame = EncodeFrame(type, payload);
  const std::string point = fault_prefix_ + "/send";
  size_t sent = 0;
  while (sent < frame.size()) {
    if (auto fault = FaultInjector::Global().Check(point);
        fault.has_value()) {
      if (*fault == FaultKind::kShortWrite && sent == 0) {
        // Torn-write model: push a prefix of the frame onto the wire so
        // the peer sees a truncated/corrupt frame, then fail locally.
        const size_t torn_sent = SendAll(
            fd(), std::string_view(frame).substr(0, frame.size() / 2));
        BytesSentCounter()->Increment(static_cast<int64_t>(torn_sent));
        return Status::Unavailable(
            StrFormat("injected short write at %s (%zu of %zu bytes)",
                      point.c_str(), torn_sent, frame.size()));
      }
      if (*fault == FaultKind::kCrash) return SimulatedCrash(point);
      return Status::Unavailable(
          StrFormat("injected fault at %s", point.c_str()));
    }
    const ssize_t n =
        send(fd(), frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::Unavailable(
            StrFormat("comms send of %s frame timed out after %d ms",
                      FrameTypeToString(type), timeout_ms_));
      }
      return Status::Unavailable(StrFormat("comms send failed: %s",
                                           std::strerror(errno)));
    }
    sent += static_cast<size_t>(n);
    BytesSentCounter()->Increment(n);
  }
  return Status::OK();
}

Result<Frame> FramedChannel::Recv() {
  if (!connected()) return Status::FailedPrecondition("channel not connected");
  const std::string recv_point = fault_prefix_ + "/recv";
  const std::string decode_point = fault_prefix_ + "/frame_decode";
  Frame frame;
  while (true) {
    if (!recv_buffer_.empty()) {
      if (auto fault = CheckFault(decode_point); fault.has_value()) {
        return *fault;
      }
      SGCL_ASSIGN_OR_RETURN(const bool complete,
                            TryDecodeFrame(&recv_buffer_, &frame));
      if (complete) return frame;
    }
    if (auto fault = CheckFault(recv_point); fault.has_value()) {
      return *fault;
    }
    char chunk[kRecvChunk];
    const ssize_t n = recv(fd(), chunk, sizeof(chunk), 0);
    if (n == 0) return Status::Unavailable(kPeerClosedMessage);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::Unavailable(
            StrFormat("comms recv timed out after %d ms", timeout_ms_));
      }
      if (errno == ECONNRESET) return Status::Unavailable(kPeerClosedMessage);
      return Status::Unavailable(StrFormat("comms recv failed: %s",
                                           std::strerror(errno)));
    }
    recv_buffer_.append(chunk, static_cast<size_t>(n));
    BytesRecvCounter()->Increment(n);
  }
}

void FramedChannel::Disconnect() {
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    shutdown(fd, SHUT_RDWR);
    close(fd);
  }
  recv_buffer_.clear();
}

void FramedChannel::ShutdownWake() {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd >= 0) shutdown(fd, SHUT_RDWR);
}

FrameListener::FrameListener(std::string fault_prefix)
    : fault_prefix_(std::move(fault_prefix)) {}

Result<int> FrameListener::AcceptFd() {
  if (!listening()) return Status::FailedPrecondition("listener is closed");
  if (auto fault = CheckFault(fault_prefix_ + "/accept"); fault.has_value()) {
    return *fault;
  }
  return socket_.Accept();
}

}  // namespace sgcl
