#include "comms/channel.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/fault.h"
#include "common/logging.h"
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

void ApplyIoTimeout(int fd, int timeout_ms) {
  if (fd < 0 || timeout_ms <= 0) return;
  struct timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

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
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument(
        StrFormat("port %d is outside [0, 65535]", port));
  }
  const std::string point = fault_prefix_ + "/connect";
  if (auto fault = FaultInjector::Global().Check(point); fault.has_value()) {
    if (*fault == FaultKind::kCrash) return SimulatedCrash(point);
    return Status::Unavailable(
        StrFormat("injected fault at %s", point.c_str()));
  }
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(StrFormat("socket: %s", std::strerror(errno)));
  }
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    close(fd);
    return Status::Unavailable(StrFormat("connect 127.0.0.1:%d: %s", port,
                                         std::strerror(err)));
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_.store(fd, std::memory_order_release);
  ApplyIoTimeout(fd, timeout_ms_);
  return Status::OK();
}

void FramedChannel::Adopt(int fd) {
  Disconnect();
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_.store(fd, std::memory_order_release);
  ApplyIoTimeout(fd, timeout_ms_);
}

void FramedChannel::SetIoTimeout(int timeout_ms) {
  timeout_ms_ = timeout_ms;
  ApplyIoTimeout(fd(), timeout_ms_);
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
        const size_t torn = frame.size() / 2;
        size_t torn_sent = 0;
        while (torn_sent < torn) {
          const ssize_t n = send(fd(), frame.data() + torn_sent,
                                 torn - torn_sent, MSG_NOSIGNAL);
          if (n <= 0) break;
          torn_sent += static_cast<size_t>(n);
        }
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

FrameListener::~FrameListener() { Disconnect(); }

Status FrameListener::Listen(int port) {
  if (listening()) return Status::FailedPrecondition("already listening");
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument(
        StrFormat("port %d is outside [0, 65535]", port));
  }
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(StrFormat("socket: %s", std::strerror(errno)));
  }
  // SO_REUSEADDR so a restarted coordinator can rebind a port still in
  // TIME_WAIT; with ephemeral ports (the only mode tests use) it is
  // belt-and-suspenders against ctest -j collisions.
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    close(fd);
    return Status::Internal(StrFormat("bind 127.0.0.1:%d: %s", port,
                                      std::strerror(err)));
  }
  if (listen(fd, 64) < 0) {
    const int err = errno;
    close(fd);
    return Status::Internal(StrFormat("listen: %s", std::strerror(err)));
  }
  struct sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound),
                  &bound_len) < 0) {
    const int err = errno;
    close(fd);
    return Status::Internal(StrFormat("getsockname: %s", std::strerror(err)));
  }
  port_ = ntohs(bound.sin_port);
  fd_.store(fd, std::memory_order_release);
  return Status::OK();
}

Result<int> FrameListener::AcceptFd() {
  const int listen_fd = fd_.load(std::memory_order_acquire);
  if (listen_fd < 0) return Status::FailedPrecondition("listener is closed");
  if (auto fault = CheckFault(fault_prefix_ + "/accept"); fault.has_value()) {
    return *fault;
  }
  const int client = accept(listen_fd, nullptr, nullptr);
  if (client < 0) {
    return Status::Unavailable(StrFormat("accept: %s", std::strerror(errno)));
  }
  return client;
}

void FrameListener::Disconnect() {
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    // shutdown() wakes a thread blocked in accept(2) on Linux; pairing
    // it with close keeps the wake robust (http_server.cc uses the same
    // double-tap for its accept loop).
    shutdown(fd, SHUT_RDWR);
    close(fd);
  }
}

}  // namespace sgcl
