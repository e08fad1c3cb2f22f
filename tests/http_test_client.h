// The one raw HTTP client of the server tests: connect over loopback
// (common/socket.h), send the request bytes as given, read until the
// server closes the connection.
#ifndef SGCL_TESTS_HTTP_TEST_CLIENT_H_
#define SGCL_TESTS_HTTP_TEST_CLIENT_H_

#include <sys/socket.h>
#include <unistd.h>

#include <string>

#include "common/socket.h"

namespace sgcl::testing {

// The full response text (status line, headers, body) that the server at
// 127.0.0.1:`port` writes for `raw` before it closes the connection; ""
// when nothing accepts the connection.
inline std::string RawHttpExchange(int port, const std::string& raw) {
  const Result<int> fd = ConnectLoopback(port);
  if (!fd.ok()) return "";
  SendAll(*fd, raw);
  std::string response;
  char buf[4096];
  while (true) {
    const ssize_t n = recv(*fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  close(*fd);
  return response;
}

}  // namespace sgcl::testing

#endif  // SGCL_TESTS_HTTP_TEST_CLIENT_H_
