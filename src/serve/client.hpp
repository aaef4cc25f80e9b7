#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "frontend/source.hpp"
#include "serve/protocol.hpp"

/// serve::Client — a small blocking client for the llm4vv-serve protocol
/// (docs/SERVING.md). One TCP connection, line-delimited JSON both ways.
///
/// Threading: a Client is NOT internally synchronized. Single-threaded use
/// is always safe; so is the open-loop load-gen split — one thread calling
/// the send_* methods while one other thread calls next_response() — because
/// the send and receive paths touch disjoint state over a full-duplex
/// socket.
namespace llm4vv::serve {

class Client {
 public:
  Client() = default;
  ~Client() { close(); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&&) = delete;
  Client& operator=(Client&&) = delete;

  /// Connect and (when `tenant` is non-empty) send hello + wait for the
  /// hello_ok acknowledgement. False on failure (see last_error()).
  bool connect(const std::string& host, std::uint16_t port,
               const std::string& tenant = "", int timeout_ms = 5000);
  bool connected() const noexcept { return fd_ >= 0; }
  void close();

  // --- send path -----------------------------------------------------------
  bool send_submit(std::uint64_t id, const frontend::SourceFile& file);
  bool send_ping();
  bool send_stats();
  bool send_shutdown();
  /// Half-close the write side: the server finishes every in-flight job,
  /// flushes the responses, then closes.
  bool shutdown_write();

  // --- receive path --------------------------------------------------------
  /// Block up to `timeout_ms` (-1 = forever) for the next response line.
  /// nullopt on timeout, clean EOF, or error — last_error() distinguishes
  /// (empty string on timeout, "eof" on clean close).
  std::optional<Response> next_response(int timeout_ms = -1);

  /// Submit one job and wait for ITS terminal response, skipping
  /// non-terminal frames (pong, draining, ...). nullopt on transport
  /// failure or timeout.
  std::optional<Response> submit_and_wait(std::uint64_t id,
                                          const frontend::SourceFile& file,
                                          int timeout_ms = 30000);

  const std::string& last_error() const noexcept { return error_; }

 private:
  bool send_line(const std::string& line);
  bool fail(std::string message);

  int fd_ = -1;
  std::string in_buf_;
  std::string error_;
};

}  // namespace llm4vv::serve
