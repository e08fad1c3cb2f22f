// Loopback TCP sockets: the one place that makes, binds, connects,
// accepts and configures a socket. The HTTP server (common/http_server.*),
// the comms channel (comms/channel.*) and the HTTP clients of tools/ and
// tests/ all go through it.
//
// The wake rule: LoopbackListener::Wake() shuts the socket down, which
// returns every thread blocked in Accept and fails any later Accept at
// once. Close() runs only after those threads are joined, so accept(2)
// never sees a closed descriptor, or one the process has since reused.
#ifndef SGCL_COMMON_SOCKET_H_
#define SGCL_COMMON_SOCKET_H_

#include <atomic>
#include <cstddef>
#include <string_view>

#include "common/status.h"

namespace sgcl {

class LoopbackListener {
 public:
  LoopbackListener() = default;
  ~LoopbackListener() { Close(); }

  LoopbackListener(const LoopbackListener&) = delete;
  LoopbackListener& operator=(const LoopbackListener&) = delete;

  // Binds 127.0.0.1:`port` with SO_REUSEADDR and listens with a backlog
  // of 64; port 0 asks the kernel for an ephemeral port (see port()).
  // InvalidArgument for a port outside [0, 65535] (truncated to 16 bits
  // it would bind another port), FailedPrecondition when already
  // listening, Internal when the socket cannot be bound (e.g. the port is
  // in use).
  Status Listen(int port);

  // Blocks until a connection arrives and returns its descriptor, which
  // the caller owns. Retries EINTR; Unavailable after Wake() or on any
  // other accept error.
  Result<int> Accept();

  // Thread-safe: wakes every thread blocked in Accept. The descriptor
  // stays open (listening() stays true) until Close().
  void Wake();

  // Closes the socket. Idempotent. Call it only once every thread that
  // may be in Accept has been joined.
  void Close();

  // The bound port (valid after a successful Listen).
  int port() const { return port_; }
  [[nodiscard]] bool listening() const {
    return fd_.load(std::memory_order_acquire) >= 0;
  }

 private:
  // Atomic: Wake reads it from another thread while Accept blocks.
  std::atomic<int> fd_{-1};
  int port_ = 0;
};

// Connects to 127.0.0.1:`port` with TCP_NODELAY set; the caller owns the
// returned descriptor. InvalidArgument for a port outside [0, 65535],
// Unavailable when the connect fails (nothing listening: callers that
// expect a peer mid-start retry on it), Internal when no socket can be
// made.
Result<int> ConnectLoopback(int port);

void SetNoDelay(int fd);

// Receive and send deadlines in milliseconds. A value <= 0 leaves that
// direction as it is (unbounded on a new socket).
void SetSocketTimeouts(int fd, int recv_timeout_ms, int send_timeout_ms);

// Sends `data` in full, looping over short writes, and stops at the
// first failed send(2). MSG_NOSIGNAL: a peer that went away is a short
// count, never a SIGPIPE. Returns the bytes sent: data.size() on
// success.
size_t SendAll(int fd, std::string_view data);

}  // namespace sgcl

#endif  // SGCL_COMMON_SOCKET_H_
