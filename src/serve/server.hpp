#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "judge/judge.hpp"
#include "serve/scheduler.hpp"
#include "serve/tenancy.hpp"
#include "toolchain/compiler.hpp"
#include "toolchain/executor.hpp"

namespace llm4vv::obs {
class Registry;
class Tracer;
}

/// serve::Server — the llm4vv-serve front (docs/SERVING.md).
///
/// A poll()-based IO thread owns the listening socket and every
/// connection: it accepts, splits the byte stream into protocol lines,
/// admits submits through the TenantTable, and enqueues accepted jobs on
/// the FairScheduler. Dispatcher workers pop weighted-fair job batches,
/// run compile → execute inline (both stages are thread-safe const calls)
/// and judge each batch as one group through Llmj::judge_chunk — so
/// misses from all workers coalesce in the model client's central
/// adaptive batcher — then, as each decision or error resolves, append
/// that job's terminal response line to the owning connection's output
/// buffer and wake the IO thread to flush it.
///
/// Graceful drain (request_drain(), or a client "shutdown" op): stop
/// accepting connections and submits (late submits shed as "draining"),
/// close the scheduler so workers finish the backlog and exit, flush every
/// buffered response, send "bye", close. wait() returns only after all of
/// that — no accepted job is ever dropped, which serve_test pins against
/// the tenant accounting invariants.
namespace llm4vv::serve {

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;          ///< 0 = ephemeral; see Server::port()
  std::size_t workers = 2;         ///< dispatcher worker threads
  std::size_t job_batch = 8;       ///< jobs per scheduler pop / judge group
  std::size_t max_queued = 1024;   ///< FairScheduler backlog bound
  std::size_t max_line_bytes = 1 << 20;  ///< per-connection line bound
  int listen_backlog = 64;
  std::uint64_t judge_seed = 0;
  TenantConfig default_tenant;     ///< knobs for tenants not listed below
  std::vector<std::pair<std::string, TenantConfig>> tenants;
  /// Optional telemetry. The registry gains "serve.*" probes (per-tenant
  /// accounting, scheduler depth); the tracer records per-job compile /
  /// execute / judge spans. Both must outlive the server.
  std::shared_ptr<obs::Registry> registry;
  std::shared_ptr<obs::Tracer> trace;
  std::string metrics_prefix = "serve";
};

/// Connection- and frame-level counters (job accounting lives in the
/// TenantTable; these cover what tenants cannot see).
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t lines_in = 0;
  std::uint64_t responses_out = 0;
  std::uint64_t protocol_errors = 0;
  /// Completed jobs whose connection was already gone at response time
  /// (the work and its accounting still count; only the frame is dropped).
  std::uint64_t orphaned_responses = 0;
};

class Server {
 public:
  Server(toolchain::CompilerDriver compiler, toolchain::Executor executor,
         std::shared_ptr<const judge::Llmj> judge, ServerConfig config = {});
  /// Drains (request_drain + wait) if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, and start the IO + worker threads. Throws
  /// std::runtime_error on socket failure. Call once.
  void start();

  /// Begin the graceful drain. Thread-safe, idempotent, non-blocking —
  /// safe from a signal-watcher thread (not from a signal handler: it
  /// takes locks).
  void request_drain();

  /// Block until a requested drain has fully completed: workers joined,
  /// responses flushed, connections closed. Safe from multiple threads.
  void wait();

  /// True once request_drain() (or a shutdown op) was observed.
  bool draining() const;

  /// The bound port (resolves port 0 after start()).
  std::uint16_t port() const;

  ServerStats stats() const;
  /// Per-tenant accounting (admission counters, latency histograms).
  TenantTable& tenants();
  const TenantTable& tenants() const;
  /// Scheduler backlog telemetry.
  const FairScheduler& scheduler() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace llm4vv::serve
