// Minimal dependency-free blocking HTTP/1.1 server for the live
// telemetry endpoint and the embedding inference service. Its sockets
// come from common/socket.h: loopback-only bind, deadlines, full sends.
//
// Design constraints, in order:
//  1. Zero cost to the training loop. With the default options the
//     server runs one serving thread; handlers read process-wide state
//     (metrics registry, trace collector, RunStatusBoard) that the hot
//     paths already publish via relaxed atomics / short critical
//     sections. Nothing in training blocks on the server.
//  2. Boring and bounded. Request headers (8 KiB), bodies (4 MiB) and
//     per-socket recv time are capped so a stuck client cannot wedge a
//     serving thread for long. With num_threads == 1, requests are
//     served one at a time (concurrent clients queue in the listen
//     backlog).
//  3. Clean shutdown. Stop() follows common/socket.h's wake rule: it
//     shuts the listener down, which wakes every serving thread blocked
//     in accept, shuts down every active connection, joins all threads,
//     and only then closes the listener. The destructor stops too, so
//     scoped usage is leak-free.
//
// Default scope matches the original diagnostics endpoint: GET/HEAD
// only, exact-path dispatch, Connection: close on every response. The
// serving stack (serve/service.*) opts into keep-alive with an idle
// timeout and multiple serving threads via HttpServerOptions; POST
// bodies are framed by Content-Length. Every server-made error
// (400/404/405/408/413/431) carries a JSON body,
// {"error":{"code":N,"message":"..."}}; handler-made responses are never
// rewritten. No TLS and no chunked encoding.
#ifndef SGCL_COMMON_HTTP_SERVER_H_
#define SGCL_COMMON_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/socket.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace sgcl {

struct HttpRequest {
  std::string method;  // "GET", "HEAD", "POST", ...
  std::string path;    // decoded-free target path, e.g. "/metrics"
  std::string query;   // raw query string without the '?', may be empty
  std::string body;    // request body (Content-Length framed), may be empty
  // Header field names lowercased, values trimmed. Repeated headers keep
  // the last value (none of the headers we read legally repeat).
  std::map<std::string, std::string> headers;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  // Extra response headers, e.g. {"Retry-After", "1"}. Content-Type,
  // Content-Length, and Connection are emitted by the server.
  std::vector<std::pair<std::string, std::string>> extra_headers;
};

// Handlers run on a server thread and must be thread-safe with respect
// to whatever state they read (with num_threads > 1 they also run
// concurrently with each other).
using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

struct HttpServerOptions {
  // Number of threads accepting and serving connections, at most
  // kMaxThreadCount (common/parallel.h). 1 preserves the original
  // serialized diagnostics behavior.
  int num_threads = 1;
  // When true, HTTP/1.1 connections persist across requests until the
  // client sends "Connection: close", the idle timeout fires, or the
  // connection has served 100000 responses.
  bool keep_alive = false;
  // Per-recv deadline; for keep-alive connections this is the idle
  // timeout between requests.
  int idle_timeout_ms = 5000;
};

class HttpServer {
 public:
  HttpServer() = default;
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Registers an exact-match GET/HEAD handler for `path`. Must be
  // called before Start; later registrations replace earlier ones.
  void Handle(const std::string& path, HttpHandler handler);

  // Registers a handler for an exact method + path pair ("POST",
  // "/v1/embed"). GET handlers also answer HEAD (body omitted). A
  // request for a known path with an unregistered method gets 405.
  void Handle(const std::string& method, const std::string& path,
              HttpHandler handler);

  // Registers a GET/HEAD handler for every path starting with `prefix`
  // ("/v1/traces/" matches "/v1/traces/<id>"). Exact-path handlers win;
  // among prefixes the longest match wins. The handler sees the full
  // request (including path) and parses the suffix itself.
  void HandlePrefix(const std::string& prefix, HttpHandler handler);

  // Binds 127.0.0.1:`port` (0 = kernel-assigned ephemeral port, see
  // port()), starts the serving threads. InvalidArgument when already
  // running, for a port outside [0, 65535] or for more than
  // kMaxThreadCount threads; Internal on socket errors (e.g. port in
  // use).
  Status Start(int port);
  Status Start(int port, const HttpServerOptions& options);

  // Idempotent: wakes and joins all serving threads, shuts down active
  // connections, closes the listen socket.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  // Actual bound port (valid after a successful Start).
  int port() const { return listener_.port(); }
  // Total requests answered, including 404s (test/diagnostic aid).
  int64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void ServeConnection(int client_fd);
  HttpResponse Dispatch(const HttpRequest& request) const;

  std::map<std::string, std::map<std::string, HttpHandler>> handlers_;
  // Prefix-dispatched GET handlers, keyed by prefix; consulted only
  // when no exact path matches (longest prefix wins).
  std::map<std::string, HttpHandler> prefix_handlers_;
  std::vector<std::thread> threads_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<int64_t> requests_served_{0};
  HttpServerOptions options_;
  std::mutex conn_mu_;
  std::set<int> active_fds_ SGCL_GUARDED_BY(conn_mu_);
  LoopbackListener listener_;
};

}  // namespace sgcl

#endif  // SGCL_COMMON_HTTP_SERVER_H_
