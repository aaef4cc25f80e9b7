#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace llm4vv::serve {

bool Client::fail(std::string message) {
  error_ = std::move(message);
  return false;
}

bool Client::connect(const std::string& host, std::uint16_t port,
                     const std::string& tenant, int timeout_ms) {
  close();
  error_.clear();
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return fail("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close();
    return fail("bad host address: " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close();
    return fail(std::string("connect failed: ") + std::strerror(errno));
  }
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (tenant.empty()) return true;
  if (!send_line(encode_hello(tenant))) return false;
  const auto response = next_response(timeout_ms);
  if (!response.has_value()) {
    return fail(error_.empty() ? "hello timed out" : error_);
  }
  if (response->type != ResponseType::kHelloOk) {
    return fail("hello rejected: " + response->reason);
  }
  return true;
}

void Client::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  in_buf_.clear();
}

bool Client::send_line(const std::string& line) {
  if (fd_ < 0) return fail("not connected");
  std::string framed = line;
  framed.push_back('\n');
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = send(fd_, framed.data() + sent, framed.size() - sent,
                           MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail(std::string("send failed: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool Client::send_submit(std::uint64_t id, const frontend::SourceFile& file) {
  return send_line(encode_submit(id, file));
}
bool Client::send_ping() { return send_line(encode_ping()); }
bool Client::send_stats() { return send_line(encode_stats_request()); }
bool Client::send_shutdown() { return send_line(encode_shutdown()); }

bool Client::shutdown_write() {
  if (fd_ < 0) return fail("not connected");
  if (::shutdown(fd_, SHUT_WR) != 0) {
    return fail(std::string("shutdown failed: ") + std::strerror(errno));
  }
  return true;
}

std::optional<Response> Client::next_response(int timeout_ms) {
  if (fd_ < 0) {
    fail("not connected");
    return std::nullopt;
  }
  for (;;) {
    const std::size_t newline = in_buf_.find('\n');
    if (newline != std::string::npos) {
      std::string line = in_buf_.substr(0, newline);
      in_buf_.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      return parse_response(line);
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = poll(&pfd, 1, timeout_ms);
    if (ready == 0) {
      error_.clear();  // timeout, not a transport failure
      return std::nullopt;
    }
    if (ready < 0) {
      if (errno == EINTR) continue;
      fail(std::string("poll failed: ") + std::strerror(errno));
      return std::nullopt;
    }
    char buf[16384];
    const ssize_t n = recv(fd_, buf, sizeof buf, 0);
    if (n > 0) {
      in_buf_.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      fail("eof");
      return std::nullopt;
    }
    if (errno == EINTR) continue;
    fail(std::string("recv failed: ") + std::strerror(errno));
    return std::nullopt;
  }
}

std::optional<Response> Client::submit_and_wait(
    std::uint64_t id, const frontend::SourceFile& file, int timeout_ms) {
  if (!send_submit(id, file)) return std::nullopt;
  for (;;) {
    auto response = next_response(timeout_ms);
    if (!response.has_value()) {
      if (error_.empty()) fail("submit timed out");
      return std::nullopt;
    }
    if (response->terminal() && response->has_id && response->id == id) {
      return response;
    }
    // Skip pong / stats / draining notices and terminals for other ids
    // (a pipelined caller should use next_response directly instead).
  }
}

}  // namespace llm4vv::serve
