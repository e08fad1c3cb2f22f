#include "common/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/string_util.h"

namespace sgcl {
namespace {

Status CheckPort(int port) {
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument(
        StrFormat("port %d is outside [0, 65535]", port));
  }
  return Status::OK();
}

struct sockaddr_in LoopbackAddress(int port) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  return addr;
}

Status SocketError(const char* what) {
  return Status::Internal(StrFormat("%s: %s", what, std::strerror(errno)));
}

}  // namespace

Status LoopbackListener::Listen(int port) {
  if (listening()) return Status::FailedPrecondition("already listening");
  SGCL_RETURN_NOT_OK(CheckPort(port));
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return SocketError("socket");
  // SO_REUSEADDR so a restarted server can rebind a port still in
  // TIME_WAIT.
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr = LoopbackAddress(port);
  socklen_t len = sizeof(addr);
  Status st;
  if (bind(fd, reinterpret_cast<struct sockaddr*>(&addr), len) < 0) {
    st = Status::Internal(StrFormat("bind 127.0.0.1:%d: %s", port,
                                    std::strerror(errno)));
  } else if (listen(fd, /*backlog=*/64) < 0) {
    st = SocketError("listen");
  } else if (getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr),
                         &len) < 0) {
    st = SocketError("getsockname");
  }
  if (!st.ok()) {
    close(fd);
    return st;
  }
  port_ = ntohs(addr.sin_port);
  fd_.store(fd, std::memory_order_release);
  return Status::OK();
}

Result<int> LoopbackListener::Accept() {
  const int listen_fd = fd_.load(std::memory_order_acquire);
  while (true) {
    const int client = accept(listen_fd, nullptr, nullptr);
    if (client >= 0) return client;
    if (errno != EINTR) {
      return Status::Unavailable(
          StrFormat("accept: %s", std::strerror(errno)));
    }
  }
}

void LoopbackListener::Wake() {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd >= 0) shutdown(fd, SHUT_RDWR);
}

void LoopbackListener::Close() {
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) close(fd);
}

Result<int> ConnectLoopback(int port) {
  SGCL_RETURN_NOT_OK(CheckPort(port));
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return SocketError("socket");
  const struct sockaddr_in addr = LoopbackAddress(port);
  if (connect(fd, reinterpret_cast<const struct sockaddr*>(&addr),
              sizeof(addr)) < 0) {
    const int err = errno;
    close(fd);
    return Status::Unavailable(
        StrFormat("connect 127.0.0.1:%d: %s", port, std::strerror(err)));
  }
  SetNoDelay(fd);
  return fd;
}

void SetNoDelay(int fd) {
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void SetSocketTimeouts(int fd, int recv_timeout_ms, int send_timeout_ms) {
  const auto set = [fd](int option, int timeout_ms) {
    if (timeout_ms <= 0) return;
    struct timeval tv;
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv));
  };
  set(SO_RCVTIMEO, recv_timeout_ms);
  set(SO_SNDTIMEO, send_timeout_ms);
}

size_t SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  return sent;
}

}  // namespace sgcl
