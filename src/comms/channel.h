// Blocking framed-TCP transport over loopback: a FramedChannel sends
// and receives comms/frame.h frames on one connected socket, and a
// FrameListener accepts connections for the coordinator side.
//
// Sockets come from common/socket.h: loopback-only bind with
// SO_REUSEADDR and kernel-assigned ephemeral ports (port 0), TCP_NODELAY
// on both ends, one recv/send deadline so a wedged peer can never hang a
// thread forever, and its wake rule for threads blocked in accept.
//
// Every syscall the protocol depends on is threaded through the fault
// injector (common/fault.h) under this channel's configurable point
// prefix — "comms" for workers, "comms_srv" for coordinator-side
// channels — so tests can kill either side of the wire independently:
//   <prefix>/connect       before connect(2)
//   <prefix>/send          before each send(2) batch (kShortWrite
//                          transmits a prefix, then fails: torn frame)
//   <prefix>/recv          before each recv(2)
//   <prefix>/frame_decode  after bytes arrive, before CRC validation
//   <prefix>/accept        before accept(2) (FrameListener)
// A kCrash fault unwinds with the SimulatedCrash sentinel; the channel
// closes its socket on destruction, so to the peer a crashed thread is
// indistinguishable from a killed process (EOF).
#ifndef SGCL_COMMS_CHANNEL_H_
#define SGCL_COMMS_CHANNEL_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "comms/frame.h"
#include "common/socket.h"
#include "common/status.h"

namespace sgcl {

// True when `status` is the error a blocked Recv returns because the
// peer closed the connection (as opposed to timeout or corruption).
[[nodiscard]] bool IsPeerClosed(const Status& status);

// True when `status` is a Recv/Send deadline expiry (SetIoTimeout). The
// coordinator treats these as "idle worker", not as failures.
[[nodiscard]] bool IsIoTimeout(const Status& status);

class FramedChannel {
 public:
  // `fault_prefix` names the injector channel for every fault point
  // this object consults (see file comment).
  explicit FramedChannel(std::string fault_prefix = "comms");
  ~FramedChannel();

  FramedChannel(const FramedChannel&) = delete;
  FramedChannel& operator=(const FramedChannel&) = delete;

  // Connects to 127.0.0.1:`port`. Unavailable when the peer is not
  // listening (callers that expect a coordinator mid-start retry).
  Status Connect(int port);

  // Wraps an already-connected socket (the listener's accepted fd);
  // takes ownership.
  void Adopt(int fd);

  // recv()/send() deadline for this connection; also applied by
  // Connect/Adopt with the previously-set value. <= 0 means no deadline.
  void SetIoTimeout(int timeout_ms);

  // Sends one frame, looping over short writes. DeadlineExceeded-style
  // Unavailable on a send timeout, Internal on socket errors.
  Status Send(uint32_t type, std::string_view payload);
  Status Send(FrameType type, std::string_view payload) {
    return Send(static_cast<uint32_t>(type), payload);
  }

  // Blocks until one complete frame arrives. Unavailable("...timed
  // out...") on the io deadline, IsPeerClosed-true Unavailable on EOF,
  // InvalidArgument on a corrupt frame.
  Result<Frame> Recv();

  // Idempotent; also wakes a thread blocked in Recv on this channel.
  // Only the owning thread may call Disconnect (it invalidates fd_).
  // Void by design: best-effort teardown, unlike the fallible
  // common/io.h Close().
  void Disconnect();

  // Thread-safe wake from another thread: half-closes the socket so the
  // owner blocked in Recv returns a peer-closed error, without racing fd
  // ownership (the owner still runs Disconnect()/the destructor).
  void ShutdownWake();

  [[nodiscard]] bool connected() const {
    return fd_.load(std::memory_order_acquire) >= 0;
  }

 private:
  int fd() const { return fd_.load(std::memory_order_acquire); }

  std::string fault_prefix_;
  // Atomic so ShutdownWake (another thread) can read the fd while the
  // owner is blocked in Recv; only the owner ever stores to it.
  std::atomic<int> fd_{-1};
  int timeout_ms_ = 0;
  std::string recv_buffer_;
};

class FrameListener {
 public:
  explicit FrameListener(std::string fault_prefix = "comms");

  // Binds 127.0.0.1:`port` (0 = ephemeral, see port()) and starts
  // listening.
  Status Listen(int port) { return socket_.Listen(port); }

  // Blocks until a connection arrives; returns the connected fd (the
  // caller Adopt()s it into a FramedChannel). Unavailable once
  // ShutdownWake() ran or on accept errors.
  Result<int> AcceptFd();

  // Thread-safe: wakes every thread blocked in AcceptFd, and later calls
  // fail at once. The socket stays open until Disconnect().
  void ShutdownWake() { socket_.Wake(); }

  // Closes the listen socket. Call it only once every thread that may
  // be in AcceptFd has been joined. The destructor closes too.
  void Disconnect() { socket_.Close(); }

  int port() const { return socket_.port(); }
  [[nodiscard]] bool listening() const { return socket_.listening(); }

 private:
  std::string fault_prefix_;
  LoopbackListener socket_;
};

}  // namespace sgcl

#endif  // SGCL_COMMS_CHANNEL_H_
