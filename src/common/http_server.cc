#include "common/http_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/string_util.h"

namespace sgcl {
namespace {

// A request's start line + headers larger than this is rejected with
// 431.
constexpr size_t kMaxHeaderBytes = 8192;
// Bodies larger than this are rejected with 413 (connection closed).
constexpr size_t kMaxBodyBytes = 4u << 20;
// Send deadline so one stalled reader cannot hold a serving thread.
constexpr int kSendTimeoutMs = 5000;
// Keep-alive connections are closed after this many responses.
constexpr int kMaxRequestsPerConnection = 100000;

const char* StatusText(int status) {
  switch (status) {
    case 100:
      return "Continue";
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 413:
      return "Payload Too Large";
    case 429:
      return "Too Many Requests";
    case 431:
      return "Request Header Fields Too Large";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    default:
      return "Error";
  }
}

// Graceful teardown for connections whose request stream was not fully
// consumed (oversized/truncated bodies, malformed heads). Closing with
// unread data pending makes the kernel send RST, which can destroy the
// in-flight error response before the client reads it; half-closing the
// write side and draining until EOF (bounded; SO_RCVTIMEO still applies)
// lets the response land first.
void ShutdownDrain(int fd) {
  shutdown(fd, SHUT_WR);
  char drain[4096];
  size_t drained = 0;
  constexpr size_t kMaxDrainBytes = 4u << 20;
  while (drained < kMaxDrainBytes) {
    const ssize_t n = recv(fd, drain, sizeof(drain), 0);
    if (n <= 0) break;
    drained += static_cast<size_t>(n);
  }
}

// Every server-made error (400/404/405/408/413/431) carries a JSON body:
// {"error":{"code":N,"message":"..."}}. Handler-made responses are never
// rewritten.
HttpResponse MakeError(int status, const std::string& message) {
  HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = StrFormat("{\"error\":{\"code\":%d,\"message\":\"%s\"}}\n",
                            status, JsonEscape(message).c_str());
  return response;
}

std::string ToLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

std::string Trim(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

// Locates the end of the header block; supports \r\n\r\n and bare \n\n.
// Returns npos when incomplete; *body_start is the offset just past it.
size_t FindHeaderEnd(const std::string& buf, size_t* body_start) {
  const size_t crlf = buf.find("\r\n\r\n");
  const size_t lf = buf.find("\n\n");
  if (crlf != std::string::npos && (lf == std::string::npos || crlf < lf)) {
    *body_start = crlf + 4;
    return crlf;
  }
  if (lf != std::string::npos) {
    *body_start = lf + 2;
    return lf;
  }
  return std::string::npos;
}

struct ParsedHead {
  HttpRequest request;
  std::string version;  // "HTTP/1.1", "HTTP/1.0", or empty when absent
  bool ok = false;
};

ParsedHead ParseHead(const std::string& head) {
  ParsedHead out;
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos <= head.size()) {
    size_t nl = head.find('\n', pos);
    if (nl == std::string::npos) nl = head.size();
    std::string line = head.substr(pos, nl - pos);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    lines.push_back(std::move(line));
    if (nl == head.size()) break;
    pos = nl + 1;
  }
  if (lines.empty()) return out;

  // Request line: METHOD SP target [SP version].
  const std::string& line = lines[0];
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.find(' ', sp1 == std::string::npos ? 0 : sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) return out;
  out.request.method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  out.version = line.substr(sp2 + 1);
  const size_t qmark = target.find('?');
  if (qmark != std::string::npos) {
    out.request.query = target.substr(qmark + 1);
    target.resize(qmark);
  }
  if (target.empty() || target[0] != '/') return out;
  out.request.path = target;

  for (size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    const size_t colon = lines[i].find(':');
    if (colon == std::string::npos) return out;  // malformed header line
    out.request.headers[ToLower(Trim(lines[i].substr(0, colon)))] =
        Trim(lines[i].substr(colon + 1));
  }
  out.ok = true;
  return out;
}

}  // namespace

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Handle(const std::string& path, HttpHandler handler) {
  handlers_[path]["GET"] = std::move(handler);
}

void HttpServer::Handle(const std::string& method, const std::string& path,
                        HttpHandler handler) {
  handlers_[path][method] = std::move(handler);
}

void HttpServer::HandlePrefix(const std::string& prefix,
                              HttpHandler handler) {
  prefix_handlers_[prefix] = std::move(handler);
}

Status HttpServer::Start(int port) { return Start(port, HttpServerOptions{}); }

Status HttpServer::Start(int port, const HttpServerOptions& options) {
  if (running()) {
    return Status::InvalidArgument("HttpServer already running");
  }
  if (options.num_threads > kMaxThreadCount) {
    return Status::InvalidArgument(
        StrFormat("%d serving threads exceed the limit of %d",
                  options.num_threads, kMaxThreadCount));
  }
  SGCL_RETURN_NOT_OK(listener_.Listen(port));
  options_ = options;
  options_.num_threads = std::max(1, options_.num_threads);
  options_.idle_timeout_ms = std::max(1, options_.idle_timeout_ms);
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  threads_.reserve(static_cast<size_t>(options_.num_threads));
  for (int i = 0; i < options_.num_threads; ++i) {
    threads_.emplace_back([this] { AcceptLoop(); });
  }
  return Status::OK();
}

void HttpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  listener_.Wake();
  // Kick active (possibly keep-alive-idle) connections so their serving
  // threads observe EOF promptly instead of waiting out the timeout.
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const int fd : active_fds_) shutdown(fd, SHUT_RDWR);
  }
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  listener_.Close();
}

void HttpServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const Result<int> accepted = listener_.Accept();
    if (!accepted.ok()) {
      // An accept failure while stopping is the shutdown wake; outside
      // shutdown it is unrecoverable for this loop either way.
      if (!stopping_.load(std::memory_order_acquire)) {
        SGCL_LOG(WARNING) << "http " << accepted.status().ToString();
      }
      return;
    }
    const int client_fd = *accepted;
    if (stopping_.load(std::memory_order_acquire)) {
      close(client_fd);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      active_fds_.insert(client_fd);
    }
    ServeConnection(client_fd);
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      active_fds_.erase(client_fd);
    }
    close(client_fd);
  }
}

HttpResponse HttpServer::Dispatch(const HttpRequest& request) const {
  const auto path_it = handlers_.find(request.path);
  if (path_it == handlers_.end()) {
    // No exact match: longest registered prefix wins (GET/HEAD only,
    // mirroring the path-only Handle overload).
    const HttpHandler* best = nullptr;
    size_t best_len = 0;
    for (const auto& [prefix, handler] : prefix_handlers_) {
      if (prefix.size() >= best_len &&
          request.path.compare(0, prefix.size(), prefix) == 0) {
        best = &handler;
        best_len = prefix.size();
      }
    }
    if (best != nullptr) {
      if (request.method != "GET" && request.method != "HEAD") {
        return MakeError(405, "method not allowed; supported: GET");
      }
      return (*best)(request);
    }
    std::string message = "not found; endpoints:";
    for (const auto& [path, by_method] : handlers_) message += " " + path;
    return MakeError(404, message);
  }
  // GET handlers also answer HEAD; the body is omitted at the send site.
  const std::string& lookup =
      request.method == "HEAD" ? std::string("GET") : request.method;
  const auto method_it = path_it->second.find(lookup);
  if (method_it == path_it->second.end()) {
    std::string message = "method not allowed; supported:";
    for (const auto& [method, handler] : path_it->second) {
      message += " " + method;
    }
    return MakeError(405, message);
  }
  return method_it->second(request);
}

void HttpServer::ServeConnection(int client_fd) {
  SetSocketTimeouts(client_fd, options_.idle_timeout_ms, kSendTimeoutMs);
  std::string buffer;  // bytes received but not yet consumed
  int served = 0;
  bool keep_open = true;
  while (keep_open && !stopping_.load(std::memory_order_acquire)) {
    // Phase 1: read up to the end of the header block.
    size_t body_start = 0;
    size_t header_end = FindHeaderEnd(buffer, &body_start);
    bool peer_gone = false;
    while (header_end == std::string::npos && buffer.size() < kMaxHeaderBytes) {
      char buf[2048];
      const ssize_t n = recv(client_fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        peer_gone = true;
        break;
      }
      buffer.append(buf, static_cast<size_t>(n));
      header_end = FindHeaderEnd(buffer, &body_start);
    }
    if (header_end == std::string::npos) {
      // Idle keep-alive close (empty buffer) is silent; truncated or
      // oversized header blocks get a terminal error response.
      if (!buffer.empty()) {
        const int status = buffer.size() >= kMaxHeaderBytes ? 431 : 400;
        const HttpResponse response = MakeError(
            status, status == 431 ? "request header block too large"
                                  : "truncated request");
        SendAll(client_fd, StrFormat("HTTP/1.1 %d %s\r\nContent-Type: %s\r\n"
                                     "Content-Length: %zu\r\n"
                                     "Connection: close\r\n\r\n",
                                     response.status,
                                     StatusText(response.status),
                                     response.content_type.c_str(),
                                     response.body.size()) +
                               response.body);
        requests_served_.fetch_add(1, std::memory_order_relaxed);
        if (!peer_gone) ShutdownDrain(client_fd);
      }
      return;
    }

    ParsedHead head = ParseHead(buffer.substr(0, header_end));
    HttpRequest& request = head.request;
    HttpResponse response;
    bool framing_broken = false;
    if (!head.ok) {
      response = MakeError(400, "malformed request");
      framing_broken = true;
    } else {
      // Phase 2: read the Content-Length framed body (if any).
      size_t content_length = 0;
      bool length_ok = true;
      const auto cl = request.headers.find("content-length");
      if (cl != request.headers.end()) {
        errno = 0;
        char* end = nullptr;
        const unsigned long long v = strtoull(cl->second.c_str(), &end, 10);
        if (errno != 0 || end == cl->second.c_str() || *end != '\0') {
          length_ok = false;
        } else {
          content_length = static_cast<size_t>(v);
        }
      }
      if (!length_ok) {
        response = MakeError(400, "invalid Content-Length");
        framing_broken = true;
      } else if (content_length > kMaxBodyBytes) {
        response = MakeError(
            413, StrFormat("body of %zu bytes exceeds the %zu-byte limit",
                           content_length, kMaxBodyBytes));
        framing_broken = true;  // unread body: cannot reuse the stream
      } else {
        const auto expect = request.headers.find("expect");
        if (expect != request.headers.end() &&
            ToLower(expect->second) == "100-continue" && content_length > 0) {
          SendAll(client_fd, "HTTP/1.1 100 Continue\r\n\r\n");
        }
        while (buffer.size() < body_start + content_length) {
          char buf[4096];
          const ssize_t n = recv(client_fd, buf, sizeof(buf), 0);
          if (n <= 0) break;
          buffer.append(buf, static_cast<size_t>(n));
        }
        if (buffer.size() < body_start + content_length) {
          response = MakeError(400, "truncated request body");
          framing_broken = true;
        } else {
          request.body = buffer.substr(body_start, content_length);
          buffer.erase(0, body_start + content_length);
          response = Dispatch(request);
        }
      }
    }

    ++served;
    keep_open = options_.keep_alive && !framing_broken &&
                served < kMaxRequestsPerConnection &&
                !stopping_.load(std::memory_order_acquire);
    if (keep_open) {
      const auto conn = request.headers.find("connection");
      const std::string conn_value =
          conn == request.headers.end() ? "" : ToLower(conn->second);
      if (head.version == "HTTP/1.0") {
        keep_open = conn_value == "keep-alive";
      } else {
        keep_open = conn_value != "close";
      }
    }

    std::string out = StrFormat(
        "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n",
        response.status, StatusText(response.status),
        response.content_type.c_str(), response.body.size());
    for (const auto& [name, value] : response.extra_headers) {
      out += name + ": " + value + "\r\n";
    }
    out += keep_open ? "Connection: keep-alive\r\n\r\n"
                     : "Connection: close\r\n\r\n";
    if (request.method != "HEAD") out += response.body;
    SendAll(client_fd, out);
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    if (framing_broken) {
      ShutdownDrain(client_fd);
      return;
    }
  }
}

}  // namespace sgcl
