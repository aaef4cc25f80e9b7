#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "serve/protocol.hpp"
#include "support/jsonl.hpp"
#include "support/stopwatch.hpp"

namespace llm4vv::serve {

namespace {

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// After the bye frames are queued, connections that never drain their
/// output (a client that stopped reading) are force-closed so a drain can
/// always finish.
constexpr std::uint64_t kDrainFlushBudgetUs = 5'000'000;

}  // namespace

/// One client connection. Input-side state (in_buf, tenant, hello) is
/// touched only by the IO thread; the output buffer is shared — workers
/// append terminal responses, the IO thread flushes — and is the one piece
/// of per-connection state under a lock.
struct Connection {
  int fd = -1;
  std::uint64_t id = 0;
  // IO-thread-only:
  std::string tenant = "anon";
  std::string in_buf;
  bool input_closed = false;
  bool dead = false;  ///< write error; close on next sweep

  support::Mutex out_mutex;
  std::string out_buf GUARDED_BY(out_mutex);
  /// Accepted jobs whose terminal response has not been queued yet. A
  /// half-closed connection (peer EOF) stays open until this reaches zero,
  /// so a client may send its submits, shut down its write side, and still
  /// collect every response.
  std::int64_t outstanding GUARDED_BY(out_mutex) = 0;

  void append_output(const std::string& line) EXCLUDES(out_mutex) {
    support::MutexLock lock(out_mutex);
    out_buf.append(line);
    out_buf.push_back('\n');
  }

  bool output_pending() EXCLUDES(out_mutex) {
    support::MutexLock lock(out_mutex);
    return !out_buf.empty();
  }

  void add_outstanding(std::int64_t n) EXCLUDES(out_mutex) {
    support::MutexLock lock(out_mutex);
    outstanding += n;
  }

  bool settled() EXCLUDES(out_mutex) {
    support::MutexLock lock(out_mutex);
    return out_buf.empty() && outstanding <= 0;
  }

  /// Write as much buffered output as the socket accepts. Returns false
  /// on a fatal write error.
  bool flush() EXCLUDES(out_mutex) {
    support::MutexLock lock(out_mutex);
    while (!out_buf.empty()) {
      const ssize_t n =
          send(fd, out_buf.data(), out_buf.size(), MSG_NOSIGNAL);
      if (n > 0) {
        out_buf.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      return false;
    }
    return true;
  }
};

struct Server::Impl {
  toolchain::CompilerDriver compiler;
  toolchain::Executor executor;
  std::shared_ptr<const judge::Llmj> judge;
  ServerConfig config;

  TenantTable tenant_table;
  FairScheduler scheduler;

  int listen_fd = -1;
  int wake_rd = -1;
  int wake_wr = -1;
  std::uint16_t bound_port = 0;

  mutable support::Mutex state_mutex;
  support::CondVar state_cv;
  bool started GUARDED_BY(state_mutex) = false;
  bool drain_requested GUARDED_BY(state_mutex) = false;
  std::size_t workers_live GUARDED_BY(state_mutex) = 0;
  bool workers_done GUARDED_BY(state_mutex) = false;
  bool joiner_active GUARDED_BY(state_mutex) = false;
  bool join_done GUARDED_BY(state_mutex) = false;

  mutable support::Mutex conns_mutex;
  std::unordered_map<std::uint64_t, std::shared_ptr<Connection>> conns
      GUARDED_BY(conns_mutex);
  std::uint64_t next_conn_id GUARDED_BY(conns_mutex) = 1;

  mutable support::Mutex stats_mutex;
  ServerStats counters GUARDED_BY(stats_mutex);

  std::vector<std::thread> worker_threads;
  std::thread io_thread;

  // IO-thread-only job ordinal (trace ids and drain bookkeeping).
  std::uint64_t next_seq = 1;

  Impl(toolchain::CompilerDriver compiler_in, toolchain::Executor executor_in,
       std::shared_ptr<const judge::Llmj> judge_in, ServerConfig config_in)
      : compiler(std::move(compiler_in)),
        executor(std::move(executor_in)),
        judge(std::move(judge_in)),
        config(std::move(config_in)),
        tenant_table(config.default_tenant),
        scheduler(config.max_queued) {
    for (const auto& [name, tenant_config] : config.tenants) {
      tenant_table.configure(name, tenant_config);
    }
  }

  ~Impl() {
    if (listen_fd >= 0) ::close(listen_fd);
    if (wake_rd >= 0) ::close(wake_rd);
    if (wake_wr >= 0) ::close(wake_wr);
    if (config.registry != nullptr) {
      config.registry->unregister_prefix(config.metrics_prefix);
    }
  }

  void wake() {
    if (wake_wr < 0) return;
    const char byte = 1;
    // A full pipe already guarantees a pending wakeup.
    (void)!write(wake_wr, &byte, 1);
  }

  void bump(std::uint64_t ServerStats::*field, std::uint64_t n = 1)
      EXCLUDES(stats_mutex) {
    support::MutexLock lock(stats_mutex);
    counters.*field += n;
  }

  std::shared_ptr<Connection> find_conn(std::uint64_t id)
      EXCLUDES(conns_mutex) {
    support::MutexLock lock(conns_mutex);
    const auto it = conns.find(id);
    return it == conns.end() ? nullptr : it->second;
  }

  /// Route one response line to its connection and wake the IO thread.
  /// Called from workers and from the IO thread itself.
  void queue_response(std::uint64_t conn_id, const std::string& line) {
    const auto conn = find_conn(conn_id);
    if (conn == nullptr) {
      bump(&ServerStats::orphaned_responses);
      return;
    }
    conn->append_output(line);
    conn->add_outstanding(-1);  // every worker response is a job's terminal
    bump(&ServerStats::responses_out);
    wake();
  }

  // ---- lifecycle ---------------------------------------------------------

  void start();
  void request_drain() {
    {
      support::MutexLock lock(state_mutex);
      if (drain_requested) return;
      drain_requested = true;
    }
    state_cv.notify_all();
    wake();
  }
  void wait_drained();

  bool draining() const {
    support::MutexLock lock(state_mutex);
    return drain_requested;
  }

  // ---- IO thread ---------------------------------------------------------

  void io_loop();
  void accept_connections();
  void read_connection(const std::shared_ptr<Connection>& conn,
                       bool draining_now);
  void handle_line(const std::shared_ptr<Connection>& conn,
                   std::string_view line, bool draining_now);
  void handle_submit(const std::shared_ptr<Connection>& conn,
                     Request& request, bool draining_now);
  std::string render_stats(bool draining_now);
  void close_connection(std::uint64_t id);
  std::vector<std::shared_ptr<Connection>> snapshot_conns()
      EXCLUDES(conns_mutex);

  // ---- workers -----------------------------------------------------------

  void worker_loop();
  void process_batch(std::vector<ServeJob>& batch);
  void finish_job(const ServeJob& job, bool ok, const std::string& line);
};

void Server::Impl::start() {
  {
    support::MutexLock lock(state_mutex);
    if (started) throw std::runtime_error("serve: start() called twice");
    started = true;
  }
  int pipe_fds[2] = {-1, -1};
  if (pipe(pipe_fds) != 0) {
    throw std::runtime_error("serve: pipe() failed");
  }
  wake_rd = pipe_fds[0];
  wake_wr = pipe_fds[1];
  set_nonblocking(wake_rd);
  set_nonblocking(wake_wr);

  listen_fd = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) throw std::runtime_error("serve: socket() failed");
  const int one = 1;
  setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config.port);
  if (inet_pton(AF_INET, config.host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("serve: bad host address: " + config.host);
  }
  if (bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    throw std::runtime_error(std::string("serve: bind failed: ") +
                             std::strerror(errno));
  }
  if (listen(listen_fd, config.listen_backlog) != 0) {
    throw std::runtime_error(std::string("serve: listen failed: ") +
                             std::strerror(errno));
  }
  socklen_t addr_len = sizeof addr;
  getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  bound_port = ntohs(addr.sin_port);
  set_nonblocking(listen_fd);

  if (config.registry != nullptr) {
    const std::string& prefix = config.metrics_prefix;
    tenant_table.register_metrics(config.registry, prefix);
    scheduler.register_metrics(*config.registry, prefix + ".sched");
    const auto probe = [this](std::uint64_t ServerStats::*field) {
      return [this, field] {
        support::MutexLock lock(stats_mutex);
        return static_cast<double>(counters.*field);
      };
    };
    config.registry->register_probe(
        prefix + ".connections_accepted",
        probe(&ServerStats::connections_accepted));
    config.registry->register_probe(prefix + ".connections_closed",
                                    probe(&ServerStats::connections_closed));
    config.registry->register_probe(prefix + ".lines_in",
                                    probe(&ServerStats::lines_in));
    config.registry->register_probe(prefix + ".responses_out",
                                    probe(&ServerStats::responses_out));
    config.registry->register_probe(prefix + ".protocol_errors",
                                    probe(&ServerStats::protocol_errors));
    config.registry->register_probe(prefix + ".orphaned_responses",
                                    probe(&ServerStats::orphaned_responses));
  }

  const std::size_t worker_count = config.workers == 0 ? 1 : config.workers;
  {
    support::MutexLock lock(state_mutex);
    workers_live = worker_count;
  }
  worker_threads.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i) {
    worker_threads.emplace_back([this] { worker_loop(); });
  }
  io_thread = std::thread([this] { io_loop(); });
}

void Server::Impl::wait_drained() {
  support::UniqueLock lock(state_mutex);
  if (!started) return;
  while (!drain_requested) state_cv.wait(lock);
  if (join_done) return;
  if (joiner_active) {
    while (!join_done) state_cv.wait(lock);
    return;
  }
  joiner_active = true;
  lock.unlock();
  // Workers exit once the IO thread (which observed the drain) closes the
  // scheduler and the backlog runs dry; every terminal response is queued
  // by then.
  for (std::thread& worker : worker_threads) worker.join();
  {
    support::MutexLock relock(state_mutex);
    workers_done = true;
  }
  wake();
  io_thread.join();
  lock.lock();
  join_done = true;
  state_cv.notify_all();
}

std::vector<std::shared_ptr<Connection>> Server::Impl::snapshot_conns() {
  support::MutexLock lock(conns_mutex);
  std::vector<std::shared_ptr<Connection>> out;
  out.reserve(conns.size());
  for (const auto& [id, conn] : conns) out.push_back(conn);
  return out;
}

void Server::Impl::close_connection(std::uint64_t id) {
  std::shared_ptr<Connection> conn;
  {
    support::MutexLock lock(conns_mutex);
    const auto it = conns.find(id);
    if (it == conns.end()) return;
    conn = it->second;
    conns.erase(it);
  }
  ::close(conn->fd);
  conn->fd = -1;
  bump(&ServerStats::connections_closed);
}

void Server::Impl::io_loop() {
  bool draining_now = false;
  bool bye_queued = false;
  std::uint64_t drain_flush_deadline_us = 0;
  std::vector<pollfd> pollfds;
  std::vector<std::uint64_t> pollfd_conn;  // conn id per pollfd (0 = none)

  for (;;) {
    pollfds.clear();
    pollfd_conn.clear();
    pollfds.push_back(pollfd{wake_rd, POLLIN, 0});
    pollfd_conn.push_back(0);
    if (!draining_now) {
      pollfds.push_back(pollfd{listen_fd, POLLIN, 0});
      pollfd_conn.push_back(0);
    }
    const auto live = snapshot_conns();
    for (const auto& conn : live) {
      short events = 0;
      if (!conn->input_closed) events |= POLLIN;
      if (conn->output_pending()) events |= POLLOUT;
      if (events == 0) continue;
      pollfds.push_back(pollfd{conn->fd, events, 0});
      pollfd_conn.push_back(conn->id);
    }
    const int timeout_ms = bye_queued ? 50 : -1;
    const int ready = poll(pollfds.data(),
                           static_cast<nfds_t>(pollfds.size()), timeout_ms);
    if (ready < 0 && errno != EINTR) break;

    // 1. Drain the wake pipe and pick up state transitions.
    if (pollfds[0].revents & POLLIN) {
      char buf[64];
      while (read(wake_rd, buf, sizeof buf) > 0) {
      }
    }
    bool workers_finished;
    {
      support::MutexLock lock(state_mutex);
      if (drain_requested && !draining_now) {
        draining_now = true;
      }
      workers_finished = workers_done;
    }
    if (draining_now && !scheduler.closed()) {
      // Stop accepting: no new connections, no new jobs. Workers drain
      // the backlog; every connection hears about it.
      scheduler.close();
      for (const auto& conn : snapshot_conns()) {
        conn->append_output(encode_draining());
      }
    }
    if (workers_finished && !bye_queued) {
      bye_queued = true;
      drain_flush_deadline_us = support::now_us() + kDrainFlushBudgetUs;
      for (const auto& conn : snapshot_conns()) {
        conn->append_output(encode_bye());
      }
    }

    // 2. Accept new connections (the listen fd, when still polled).
    if (!draining_now) {
      for (std::size_t i = 1; i < pollfds.size(); ++i) {
        if (pollfds[i].fd == listen_fd && (pollfds[i].revents & POLLIN)) {
          accept_connections();
          break;
        }
      }
    }

    // 3. Per-connection IO.
    for (std::size_t i = 0; i < pollfds.size(); ++i) {
      const std::uint64_t conn_id = pollfd_conn[i];
      if (conn_id == 0) continue;
      const auto conn = find_conn(conn_id);
      if (conn == nullptr) continue;
      const short revents = pollfds[i].revents;
      if (revents & (POLLERR | POLLNVAL)) {
        conn->dead = true;
      } else {
        if (revents & (POLLIN | POLLHUP)) {
          read_connection(conn, draining_now);
        }
        if ((revents & POLLOUT) && !conn->flush()) conn->dead = true;
      }
    }

    // 4. Sweep finished connections.
    for (const auto& conn : snapshot_conns()) {
      const bool flushed = !conn->output_pending();
      if (conn->dead || (conn->input_closed && conn->settled()) ||
          (bye_queued && flushed) ||
          (bye_queued && support::now_us() > drain_flush_deadline_us)) {
        close_connection(conn->id);
      }
    }
    if (bye_queued) {
      support::MutexLock lock(conns_mutex);
      if (conns.empty()) break;
    }
  }
}

void Server::Impl::accept_connections() {
  for (;;) {
    const int fd = accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: back to poll
    bool full;
    {
      support::MutexLock lock(conns_mutex);
      full = conns.size() >= 1024;
    }
    if (full) {
      ::close(fd);
      return;
    }
    set_nonblocking(fd);
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    {
      support::MutexLock lock(conns_mutex);
      conn->id = next_conn_id++;
      conns.emplace(conn->id, conn);
    }
    bump(&ServerStats::connections_accepted);
  }
}

void Server::Impl::read_connection(const std::shared_ptr<Connection>& conn,
                                   bool draining_now) {
  char buf[16384];
  for (;;) {
    const ssize_t n = recv(conn->fd, buf, sizeof buf, 0);
    if (n > 0) {
      conn->in_buf.append(buf, static_cast<std::size_t>(n));
      if (conn->in_buf.size() > config.max_line_bytes &&
          conn->in_buf.find('\n') == std::string::npos) {
        bump(&ServerStats::protocol_errors);
        conn->append_output(encode_protocol_error("line too long"));
        conn->input_closed = true;
        return;
      }
      continue;
    }
    if (n == 0) {
      conn->input_closed = true;  // peer half-closed; flush what remains
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    conn->dead = true;
    return;
  }
  std::size_t start = 0;
  for (;;) {
    const std::size_t newline = conn->in_buf.find('\n', start);
    if (newline == std::string::npos) break;
    std::string_view line(conn->in_buf.data() + start, newline - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) {
      bump(&ServerStats::lines_in);
      handle_line(conn, line, draining_now);
    }
    start = newline + 1;
  }
  if (start > 0) conn->in_buf.erase(0, start);
}

void Server::Impl::handle_line(const std::shared_ptr<Connection>& conn,
                               std::string_view line, bool draining_now) {
  Request request = parse_request(line);
  switch (request.op) {
    case RequestOp::kHello:
      conn->tenant = request.tenant;
      tenant_table.ensure(conn->tenant);
      conn->append_output(encode_hello_ok(conn->tenant));
      bump(&ServerStats::responses_out);
      return;
    case RequestOp::kSubmit:
      handle_submit(conn, request, draining_now);
      return;
    case RequestOp::kPing:
      conn->append_output(encode_pong());
      bump(&ServerStats::responses_out);
      return;
    case RequestOp::kStats:
      conn->append_output(render_stats(draining_now));
      bump(&ServerStats::responses_out);
      return;
    case RequestOp::kShutdown:
      conn->append_output(encode_draining());
      bump(&ServerStats::responses_out);
      request_drain();
      return;
    case RequestOp::kInvalid:
      bump(&ServerStats::protocol_errors);
      conn->append_output(encode_protocol_error(request.error));
      bump(&ServerStats::responses_out);
      return;
  }
}

void Server::Impl::handle_submit(const std::shared_ptr<Connection>& conn,
                                 Request& request, bool draining_now) {
  const std::string& tenant = conn->tenant;
  if (draining_now) {
    tenant_table.record_shed_draining(tenant);
    conn->append_output(encode_shed(
        request.id, shed_reason_name(ShedReason::kDraining)));
    bump(&ServerStats::responses_out);
    return;
  }
  const Admission admission =
      tenant_table.try_admit(tenant, support::now_us());
  if (admission != Admission::kAdmit) {
    const ShedReason reason = admission == Admission::kShedRate
                                  ? ShedReason::kRateLimit
                                  : ShedReason::kQuota;
    conn->append_output(encode_shed(request.id, shed_reason_name(reason)));
    bump(&ServerStats::responses_out);
    return;
  }
  ServeJob job;
  job.seq = next_seq++;
  job.connection_id = conn->id;
  job.request_id = request.id;
  job.tenant = tenant;
  job.file = std::move(request.file);
  job.submitted_us = support::now_us();
  // Count the job before the push: the worker's decrement (in
  // queue_response) must never observe the counter missing its increment.
  conn->add_outstanding(1);
  const auto pushed = scheduler.push(std::move(job),
                                     tenant_table.weight(tenant));
  if (pushed != FairScheduler::Push::kOk) {
    conn->add_outstanding(-1);
    const ShedReason reason = pushed == FairScheduler::Push::kFull
                                  ? ShedReason::kQueueFull
                                  : ShedReason::kDraining;
    tenant_table.record_post_admit_shed(tenant, reason);
    conn->append_output(encode_shed(request.id, shed_reason_name(reason)));
    bump(&ServerStats::responses_out);
  }
}

std::string Server::Impl::render_stats(bool draining_now) {
  const TenantStats totals = tenant_table.totals();
  ServerStats server_counters;
  {
    support::MutexLock lock(stats_mutex);
    server_counters = counters;
  }
  return support::JsonObject()
      .field("type", "stats")
      .field("submitted", static_cast<std::int64_t>(totals.submitted))
      .field("accepted", static_cast<std::int64_t>(totals.accepted))
      .field("shed", static_cast<std::int64_t>(totals.shed_total()))
      .field("completed_ok",
             static_cast<std::int64_t>(totals.completed_ok))
      .field("completed_error",
             static_cast<std::int64_t>(totals.completed_error))
      .field("in_flight", static_cast<std::int64_t>(totals.in_flight))
      .field("queue_depth", static_cast<std::int64_t>(scheduler.depth()))
      .field("connections",
             static_cast<std::int64_t>(
                 server_counters.connections_accepted -
                 server_counters.connections_closed))
      .field("draining", draining_now)
      .str();
}

void Server::Impl::worker_loop() {
  std::vector<ServeJob> batch;
  const std::size_t batch_size = config.job_batch == 0 ? 1 : config.job_batch;
  for (;;) {
    batch.clear();
    if (scheduler.pop_up_to(batch_size, batch) == 0) break;
    process_batch(batch);
  }
  // The last worker out flips workers_done so the drain completes on its
  // own: the IO thread can broadcast "bye" and flush without anyone having
  // called Server::wait() yet (a client blocked on responses must not
  // deadlock against an owner that reads before joining).
  bool last = false;
  {
    support::MutexLock lock(state_mutex);
    last = --workers_live == 0;
    if (last) workers_done = true;
  }
  if (last) {
    state_cv.notify_all();
    wake();
  }
}

void Server::Impl::process_batch(std::vector<ServeJob>& batch) {
  obs::Tracer* const tracer = config.trace.get();
  struct StageWork {
    toolchain::CompileResult compile;
    toolchain::ExecutionRecord exec;
  };
  std::vector<StageWork> work(batch.size());
  std::vector<judge::JudgeRequest> requests;
  requests.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    {
      obs::ObsSpan span(tracer, obs::SpanKind::kQueueWait, batch[i].seq);
      span.set_start_us(batch[i].submitted_us);
      span.set_arg(2);  // residency before the judge stage, like the pipeline
    }
    {
      obs::ObsSpan span(tracer, obs::SpanKind::kCompile, batch[i].seq);
      work[i].compile = compiler.compile(batch[i].file);
      span.set_arg(work[i].compile.success ? 1 : 0);
    }
    {
      obs::ObsSpan span(tracer, obs::SpanKind::kExecute, batch[i].seq);
      work[i].exec = executor.run(work[i].compile.module);
      span.set_arg(work[i].exec.passed() ? 1 : 0);
    }
    requests.push_back(judge::JudgeRequest{&batch[i].file, &work[i].compile,
                                           &work[i].exec, batch[i].seq});
  }
  // One submission group per popped batch (group size 0), answered job by
  // job as each decision resolves.
  judge->judge_chunk(
      requests, 0, config.judge_seed,
      [&](std::size_t i, const judge::JudgeDecision* decision,
          const llm::ModelError* error) {
        const std::uint64_t latency_us =
            support::now_us() - batch[i].submitted_us;
        if (error != nullptr) {
          finish_job(batch[i], false,
                     encode_error(batch[i].request_id,
                                  std::string(llm::failure_kind_name(
                                      error->kind())) +
                                      ": " + error->what(),
                                  latency_us));
          return;
        }
        finish_job(batch[i], true,
                   encode_verdict(
                       batch[i].request_id,
                       judge::verdict_name(decision->verdict),
                       decision->says_valid, work[i].compile.success,
                       work[i].exec.passed(), decision->cached,
                       decision->cached ? 0.0
                                        : decision->completion.latency_seconds,
                       latency_us));
      },
      tracer);
}

void Server::Impl::finish_job(const ServeJob& job, bool ok,
                              const std::string& line) {
  tenant_table.complete(job.tenant, ok,
                        support::now_us() - job.submitted_us);
  queue_response(job.connection_id, line);
}

// ---- public surface -------------------------------------------------------

Server::Server(toolchain::CompilerDriver compiler,
               toolchain::Executor executor,
               std::shared_ptr<const judge::Llmj> judge, ServerConfig config)
    : impl_(std::make_unique<Impl>(std::move(compiler), std::move(executor),
                                   std::move(judge), std::move(config))) {}

Server::~Server() {
  bool need_drain;
  {
    support::MutexLock lock(impl_->state_mutex);
    need_drain = impl_->started && !impl_->join_done;
  }
  if (need_drain) {
    impl_->request_drain();
    impl_->wait_drained();
  }
}

void Server::start() { impl_->start(); }
void Server::request_drain() { impl_->request_drain(); }
void Server::wait() { impl_->wait_drained(); }
bool Server::draining() const { return impl_->draining(); }
std::uint16_t Server::port() const { return impl_->bound_port; }

ServerStats Server::stats() const {
  support::MutexLock lock(impl_->stats_mutex);
  return impl_->counters;
}

TenantTable& Server::tenants() { return impl_->tenant_table; }
const TenantTable& Server::tenants() const { return impl_->tenant_table; }
const FairScheduler& Server::scheduler() const { return impl_->scheduler; }

}  // namespace llm4vv::serve
