#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "llm/faults.hpp"
#include "llm/model.hpp"
#include "support/thread_annotations.hpp"

namespace llm4vv::obs {
class Registry;
class Tracer;
}  // namespace llm4vv::obs

namespace llm4vv::llm {

/// What happens to a submission that would push the batcher's pending
/// queue past BatcherConfig::max_pending.
enum class OverflowPolicy {
  /// Fail the overflowing requests immediately with QueueOverflowError and
  /// count them in ClientStats::pending_shed (load-shedding: the caller
  /// finds out now, not after an unbounded wait).
  kShed,
  /// Block the submitting caller until the queue drains below the bound
  /// (classic backpressure; submission order is preserved). Needs an
  /// external drainer, so it only engages when window_us > 0 — an
  /// immediate-flush batcher (window_us == 0) never leaves anything
  /// pending and ignores the bound under this policy.
  kBlock,
};

/// Adaptive-batcher knobs of the asynchronous submission path.
///
/// Pending submissions coalesce across all callers and flush as one
/// generate_batch() forward pass when the batch is full (`max_batch`
/// requests pending), when no caller is left to add to it (FlushReason::
/// kIdle), or when the wait window (`window_us`) of the oldest pending
/// request elapses — whichever comes first.
///
/// The defaults are **paper mode**: `window_us = 0` flushes every
/// submission the moment it is enqueued, so nothing ever waits and nothing
/// from another caller can ride along — a submit() prices exactly like a
/// sequential generate() (a batch of one is priced bit-identically, see
/// SimulatedCoderModel) and a submit_many() group prices exactly like one
/// generate_batch() pass. The core/ experiments rely on this pinning for
/// their seed-exact simulated-GPU accounting.
struct BatcherConfig {
  /// Flush as soon as this many requests are pending. 0 = no cap: a flush
  /// takes everything pending (every submit_many() group then maps to one
  /// forward pass).
  std::size_t max_batch = 0;
  /// Upper bound on how long a pending request may wait for the batch to
  /// fill before the flusher thread submits it anyway; an idle flush may
  /// end the wait sooner. 0 = flush immediately on every submission (no
  /// flusher thread, no cross-caller coalescing).
  std::uint64_t window_us = 0;
  /// Bound on the pending queue. 0 (the default) keeps it unbounded — the
  /// pre-resilience behaviour every bench and the paper-mode pinning rely
  /// on. With a bound, a submission that would exceed it is handled per
  /// `overflow`. Note the bound is about coalescing backlog: with
  /// window_us == 0 nothing ever stays pending across calls, but a single
  /// over-sized submit_many still sheds its tail under kShed.
  std::size_t max_pending = 0;
  OverflowPolicy overflow = OverflowPolicy::kShed;
};

/// Retry discipline of the client's flush path. The default is paper mode:
/// one attempt, no deadline — a failed pass fails its futures exactly as
/// before the resilience layer existed.
struct RetryPolicy {
  /// Total forward-pass attempts per request (1 = no retries). Only
  /// retryable failures (see llm::retryable) consume further attempts:
  /// permanent errors fail on the spot regardless of budget.
  std::uint32_t max_attempts = 1;
  /// Exponential backoff between a request's consecutive attempts:
  /// min(base * multiplier^(k-1), max) for the k-th retry, plus a
  /// deterministic jitter in [0, jitter_us] drawn from (prompt, attempt,
  /// jitter_seed) — reproducible, but de-synchronized across requests.
  std::uint64_t base_backoff_us = 100;
  double backoff_multiplier = 2.0;
  std::uint64_t max_backoff_us = 100000;
  std::uint64_t jitter_us = 0;
  std::uint64_t jitter_seed = 0x6a177e12ULL;
  /// Per-request wall-clock deadline measured from submission (enqueue)
  /// time; 0 = none. Checked at attempt boundaries — a pass in flight is
  /// never cancelled mid-call, so a request can exceed its deadline by at
  /// most one pass plus one backoff.
  std::uint64_t deadline_us = 0;
};

/// Rolling-failure-rate circuit breaker over the client's forward passes.
/// Disabled by default (paper mode). When enabled, pass outcomes feed a
/// sliding window; too many failures OPEN the breaker, which fails further
/// passes fast (CircuitOpenError, retryable) without touching the model
/// until `cooldown_us` elapses. The first pass after cooldown is a
/// HALF-OPEN probe: success closes the breaker, failure re-opens it.
struct CircuitBreakerConfig {
  bool enabled = false;
  /// Sliding window of pass outcomes the failure rate is computed over.
  std::size_t window = 32;
  /// Outcomes required in the window before the rate can trip at all
  /// (prevents one early failure from opening a cold breaker).
  std::size_t min_samples = 8;
  /// Failure fraction at or above which the breaker opens.
  double open_failure_rate = 0.5;
  std::uint64_t cooldown_us = 10000;
};

/// Observable breaker state (see CircuitBreakerConfig).
enum class BreakerState { kClosed, kOpen, kHalfOpen };

/// Why a batch was flushed.
enum class FlushReason {
  kImmediate,  ///< window_us == 0: flushed at submission time
  kFull,       ///< pending depth reached max_batch
  kWindow,     ///< the oldest pending request's wait window elapsed
  /// Every thread that submitted within the last window is blocked waiting
  /// on this client, and submissions rarely arrive within a window of
  /// another thread's: nobody is likely to add to the batch, so the last
  /// thread to start waiting flushes it (see CompletionFuture::wait).
  kIdle,
};

/// Every ClientStats statistic, declared once, in the higher-order-macro
/// style of flint's CPPLINT_FORALL_* lists (vm/interp_ops.inc does the
/// same for opcodes). The caller passes one macro per kind:
///
///   COUNTER(type, name)  monotonic; a window over a run is after - before
///   PEAK(type, name)     high-water mark; it cannot be windowed, so a
///                        window keeps the later value
///   HIST(member, metric, buckets, label)
///                        fixed-bucket histogram, windowed bucket by
///                        bucket and probed as "<prefix>.<metric>" with
///                        label(bucket) as the sample label
///
/// The list generates ClientStats' members, ClientStats::since(), the
/// probes of ModelClient::register_metrics and the checks of
/// tests/obs_consistency_test.cpp. What each statistic counts:
///
///   requests, prompt_tokens, completion_tokens — successfully served
///     requests and their tokens (a failed request counts only in
///     failed_requests).
///   gpu_seconds — sum of simulated per-call latencies: "GPU seconds" of
///     the modelled A100 node, the currency the validation pipeline saves
///     by filtering files before the LLM stage.
///   batches — batched forward passes: flushes that carried two or more
///     prompts, or whose requests arrived through the batch submission API
///     (submit_many). A lone submit() flush is a plain request, not a
///     batch.
///   batched_prompts — prompts served by those passes (also in requests).
///   max_batch — largest single batched pass so far.
///   formed_batches — forward passes the batcher executed, of any size and
///     origin: the truthful occupancy denominator.
///   flush_immediate, flush_full, flush_window, flush_idle — FlushReason
///     split of formed_batches.
///   pending_high_water — most requests simultaneously pending (submitted,
///     not yet flushed) over the client's lifetime.
///   occupancy_hist — flush sizes, bucketed by occupancy_bucket().
///   retries — extra forward-pass attempts beyond each request's first,
///     summed over resolved requests, successful or not. All resilience
///     counters from here on stay zero in paper mode.
///   failed_requests — requests that resolved with an error.
///   timeouts — subset of failed_requests that gave up on a deadline.
///   pending_shed — requests shed at submission by the bounded queue.
///   batch_splits — failed multi-request passes split into per-request
///     retries.
///   breaker_opens — closed->open transitions of the circuit breaker.
///   breaker_rejected — pass attempts rejected while the breaker was open
///     or probing.
///   retry_latency_hist — resolution latency (flush start to verdict, real
///     wall time) of requests that needed more than one attempt, bucketed
///     by retry_latency_bucket().
#define LLM4VV_CLIENT_STATS(COUNTER, PEAK, HIST)                        \
  COUNTER(std::uint64_t, requests)                                      \
  COUNTER(std::uint64_t, prompt_tokens)                                 \
  COUNTER(std::uint64_t, completion_tokens)                             \
  COUNTER(double, gpu_seconds)                                          \
  COUNTER(std::uint64_t, batches)                                       \
  COUNTER(std::uint64_t, batched_prompts)                               \
  PEAK(std::uint64_t, max_batch)                                        \
  COUNTER(std::uint64_t, formed_batches)                                \
  COUNTER(std::uint64_t, flush_immediate)                               \
  COUNTER(std::uint64_t, flush_full)                                    \
  COUNTER(std::uint64_t, flush_window)                                  \
  COUNTER(std::uint64_t, flush_idle)                                    \
  PEAK(std::size_t, pending_high_water)                                 \
  HIST(occupancy_hist, occupancy,                                       \
       llm4vv::llm::ClientStats::kOccupancyBuckets,                     \
       llm4vv::llm::ClientStats::occupancy_bucket_label)                \
  COUNTER(std::uint64_t, retries)                                       \
  COUNTER(std::uint64_t, failed_requests)                               \
  COUNTER(std::uint64_t, timeouts)                                      \
  COUNTER(std::uint64_t, pending_shed)                                  \
  COUNTER(std::uint64_t, batch_splits)                                  \
  COUNTER(std::uint64_t, breaker_opens)                                 \
  COUNTER(std::uint64_t, breaker_rejected)                              \
  HIST(retry_latency_hist, retry_latency,                               \
       llm4vv::llm::ClientStats::kRetryLatencyBuckets,                  \
       llm4vv::llm::ClientStats::retry_latency_bucket_label)

/// Aggregate statistics of an inference endpoint (LLM4VV_CLIENT_STATS).
struct ClientStats {
  static constexpr std::size_t kOccupancyBuckets = 7;
  static constexpr std::size_t kRetryLatencyBuckets = 6;

#define LLM4VV_STAT_MEMBER(type, name) type name = 0;
#define LLM4VV_HIST_MEMBER(member, metric, buckets, label) \
  std::array<std::uint64_t, buckets> member{};
  LLM4VV_CLIENT_STATS(LLM4VV_STAT_MEMBER, LLM4VV_STAT_MEMBER,
                      LLM4VV_HIST_MEMBER)
#undef LLM4VV_STAT_MEMBER
#undef LLM4VV_HIST_MEMBER

  /// This client's activity since `before`, an earlier snapshot of the
  /// same client: counters and histograms are differences, peaks keep
  /// this snapshot's value.
  ClientStats since(const ClientStats& before) const noexcept;

  /// Mean prompts per batched forward pass (batched_prompts / batches);
  /// 0 when nothing was batched.
  double batch_occupancy() const noexcept;

  /// Bucket index a flush of `batch` prompts lands in. Seven fixed
  /// buckets, power-of-two edges above the two singleton buckets (upper
  /// edges inclusive):
  ///
  ///   bucket:  0    1    2      3      4       5        6
  ///   sizes:   1    2    3-4    5-8    9-16    17-32    33+
  ///
  /// i.e. bucket 0 for n <= 1 (batch 0, which no real flush produces,
  /// counts with the singletons), bucket 1 for n == 2, and bucket
  /// min(ceil(log2(n)), 6) for n >= 3. The edges are pinned by a unit
  /// test (client_async_test) and documented in docs/ASYNC_API.md.
  static std::size_t occupancy_bucket(std::size_t batch) noexcept;
  /// Human-readable label of a bucket ("1", "2", "3-4", ...).
  static const char* occupancy_bucket_label(std::size_t bucket) noexcept;

  /// Bucket index a retried request resolving after `micros` lands in.
  /// Bucket upper edges: 100us, 1ms, 10ms, 100ms, 1s, then open-ended.
  static std::size_t retry_latency_bucket(std::uint64_t micros) noexcept;
  /// Human-readable label ("<100us", "<1ms", ..., ">=1s").
  static const char* retry_latency_bucket_label(std::size_t bucket) noexcept;
};

class ModelClient;

namespace detail {
struct Batcher;

/// Shared state behind a CompletionFuture; fulfilled exactly once by the
/// flush that served it (or failed with its exception / at shutdown).
struct CompletionState {
  explicit CompletionState(std::shared_ptr<Batcher> queued_on)
      : batcher(std::move(queued_on)) {}

  /// The batcher this request was queued on, for the wait-side idle flush;
  /// null when window_us == 0 (the request resolves before its future is
  /// handed out). Immutable.
  const std::shared_ptr<Batcher> batcher;
  support::Mutex mutex;
  support::CondVar cv;
  bool done GUARDED_BY(mutex) = false;
  Completion value GUARDED_BY(mutex);
  std::exception_ptr error GUARDED_BY(mutex);
  /// Size of the forward pass that served this completion (0 on failure).
  std::size_t flush_size GUARDED_BY(mutex) = 0;
};

/// One request waiting in the adaptive batcher.
struct PendingRequest {
  std::string prompt;
  GenerationParams params;
  std::shared_ptr<CompletionState> state;
  /// Arrived through submit_many: a batch call of one prompt still counts
  /// in `batches`.
  bool batch_origin = false;
  std::chrono::steady_clock::time_point enqueued;
};

/// The adaptive batcher: the pending queue and the state of its flush
/// rules. The client owns it, and every future of a windowed client shares
/// it, so CompletionFuture::wait() can lock it after the client is gone.
/// `client` is dereferenced only by a flush counted in `active_flushes`
/// while `!shutting_down`: ~ModelClient sets `shutting_down`, empties
/// `pending` (which also breaks the state -> batcher -> pending -> state
/// reference cycle) and drains those flushes before any client member
/// dies.
struct Batcher {
  Batcher(const BatcherConfig& batcher_config, ModelClient* owner)
      : config(batcher_config), client(owner) {}

  /// Submissions the close-arrival share is taken over (one bit each).
  static constexpr int kArrivalHistory = 64;
  /// Close arrivals among the last kArrivalHistory submissions at which
  /// the idle flush stands down: 1 in 8.
  static constexpr int kCloseArrivalLimit = kArrivalHistory / 8;

  const BatcherConfig config;
  ModelClient* const client;

  support::Mutex mutex;
  /// Wakes the window flusher and retry backoffs (arrivals, shutdown).
  support::CondVar cv;
  /// Wakes OverflowPolicy::kBlock submitters when the pending queue drains
  /// below max_pending (notified wherever `pending` shrinks).
  support::CondVar room_cv;
  /// Broadcast, under `mutex`, whenever `active_flushes` drops.
  support::CondVar flush_done;
  std::deque<PendingRequest> pending GUARDED_BY(mutex);
  /// Flushes running on caller threads (filling submitters and idle
  /// waiters); the client's destructor waits for them.
  std::size_t active_flushes GUARDED_BY(mutex) = 0;
  bool shutting_down GUARDED_BY(mutex) = false;

  /// A thread that submitted within the last window.
  struct Submitter {
    std::thread::id thread;
    std::chrono::steady_clock::time_point last_submit;
    /// Blocked in CompletionFuture::wait() on an unresolved request.
    bool waiting = false;
  };
  std::vector<Submitter> submitters GUARDED_BY(mutex);
  /// One bit per submission, newest in bit 0: whether it arrived within a
  /// window of another thread's submission.
  std::uint64_t close_arrivals GUARDED_BY(mutex) = 0;
  /// Threads blocked in CompletionFuture::wait() on this batcher's
  /// requests, submitters or not.
  std::size_t waiters GUARDED_BY(mutex) = 0;

  /// Length of the FIFO head run of equal-params pending requests (capped
  /// at max_batch) — the requests one flush could actually carry.
  std::size_t head_run_locked() const REQUIRES(mutex);
  /// Pop the longest FIFO run of equal-params pending requests (capped at
  /// max_batch).
  std::vector<PendingRequest> collect_group_locked() REQUIRES(mutex);
  /// Record a submission by the calling thread at `now`: drop submitters
  /// older than a window and note whether another thread submitted within
  /// one.
  void note_submission_locked(std::chrono::steady_clock::time_point now)
      REQUIRES(mutex);
  /// Mark the calling thread as blocked in wait() (or no longer).
  void set_waiting_locked(bool waiting) REQUIRES(mutex);
  /// The idle rule: every thread that submitted within the last window is
  /// waiting, and fewer than kCloseArrivalLimit of the last
  /// kArrivalHistory submissions arrived within a window of another
  /// thread's.
  bool idle_locked(std::chrono::steady_clock::time_point now) const
      REQUIRES(mutex);
};
}  // namespace detail

/// Handle on one asynchronously submitted completion. Copyable (shared
/// state); safe to outlive the ModelClient — a client destroyed with the
/// request still pending fails the future deterministically instead of
/// leaving a waiter hung.
class CompletionFuture {
 public:
  CompletionFuture() = default;

  bool valid() const noexcept { return state_ != nullptr; }
  /// True when get() will not block.
  bool ready() const;
  /// Block until the request is flushed (or failed). On a windowed client
  /// the waiting thread first runs the pending batch itself when nobody is
  /// likely to add to it (FlushReason::kIdle); window_us stays the upper
  /// bound on the wait.
  void wait() const;
  /// Block until resolved and return the completion; rethrows the flush's
  /// exception on failure. Idempotent.
  Completion get() const;
  /// True when the request resolved with an error — the first-class way to
  /// observe failure without a try/catch around get(). Blocks like wait().
  bool failed() const;
  /// The resolved error (null when the request succeeded or is still in
  /// flight; a ModelError for every failure the resilience layer
  /// produces). Non-blocking.
  std::exception_ptr error() const;
  /// Size of the forward pass that served this request (only meaningful
  /// once ready; 0 if the request failed before a pass ran).
  std::size_t flush_size() const;

 private:
  friend class ModelClient;
  explicit CompletionFuture(std::shared_ptr<detail::CompletionState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<detail::CompletionState> state_;
};

/// One recorded request/response pair (for the examples and debugging).
struct Transcript {
  std::string prompt;
  Completion completion;
};

/// Thread-safe inference-server facade over a LanguageModel.
///
/// Models the paper's serving setup: one model replica per GPU, so at most
/// `max_concurrency` forward passes' worth of streams proceed at once (the
/// pipeline's judge stage can be parallelized "if there are enough
/// available GPU resources"); excess callers block. Statistics and an
/// optional bounded transcript log are kept under a separate lock.
///
/// Submission is asynchronous at the core: submit()/submit_many() enqueue
/// requests into a central adaptive batcher (see BatcherConfig) and return
/// futures; the batcher coalesces pending requests across *all* callers
/// and flushes them as one generate_batch() pass when the batch fills or
/// the wait window elapses; a caller blocks by calling get() on a future.
/// Only requests with equal GenerationParams coalesce (a pass has a single
/// params set); the batcher flushes the longest FIFO run of equal-params
/// requests at a time.
///
/// Slot admission is FIFO: every flush takes a ticket and acquires only at
/// the head of the queue. Without the ticket, a steady stream of
/// single-slot flushes could starve a wide flush indefinitely — each
/// release immediately re-consumed by a newcomer before N slots were ever
/// simultaneously free. With it, the wide flush's wait is bounded by the
/// work already queued ahead of it.
class ModelClient {
 public:
  ModelClient(std::shared_ptr<const LanguageModel> model,
              std::size_t max_concurrency = 1,
              std::size_t transcript_capacity = 0,
              BatcherConfig batcher = {}, RetryPolicy retry = {},
              CircuitBreakerConfig breaker = {});

  /// Destroying the client with requests still pending fails their futures
  /// deterministically with ClientShutdownError (get() throws); flushes
  /// already executing are drained first — but a flush parked in a retry
  /// backoff is woken and CANCELLED (its futures fail with
  /// ClientShutdownError too), not awaited to attempt exhaustion — so
  /// shutdown latency is bounded by one forward pass, no future is ever
  /// left unresolved, and no flush can touch a dead client.
  ~ModelClient();

  ModelClient(const ModelClient&) = delete;
  ModelClient& operator=(const ModelClient&) = delete;

  /// Submit one prompt to the adaptive batcher. Returns immediately with a
  /// future unless this submission fills the batch — the filling caller
  /// runs the flush inline (and with window_us == 0 every submission is
  /// its own immediate flush, priced exactly like a sequential generate()).
  CompletionFuture submit(const std::string& prompt,
                          const GenerationParams& params = {});

  /// Submit a group of prompts atomically (they enter the batcher
  /// back-to-back, so with window_us == 0 the group flushes as one pass).
  /// Futures come back in prompt order. Each flush acquires
  /// min(size, max_concurrency) GPU slots atomically — it waits until that
  /// many are free at once instead of trickling in, so two batched callers
  /// can never deadlock each other holding partial slot sets.
  std::vector<CompletionFuture> submit_many(
      const std::vector<std::string>& prompts,
      const GenerationParams& params = {});

  /// Snapshot of the running statistics.
  ClientStats stats() const;

  /// Attach a span tracer: every subsequent flush records a client.flush
  /// span (batch size, summed sim-GPU seconds, a flow id the served
  /// completions carry in Completion::trace_flow), and retries/backoffs
  /// record client.retry / client.backoff spans. Pass null to detach.
  /// NOT thread-safe against in-flight traffic — attach during setup,
  /// before the first submission, like every other client knob.
  void set_tracer(std::shared_ptr<obs::Tracer> tracer) noexcept {
    tracer_ = std::move(tracer);
  }

  /// Register this client's statistics into a metrics registry as
  /// scrape-time probes under `prefix`, one per LLM4VV_CLIENT_STATS entry
  /// ("<prefix>.requests", "<prefix>.occupancy" per bucket, ...). The
  /// probes read stats() on every scrape: the registry stores nothing.
  /// The client must outlive the registration — unregister_prefix(prefix)
  /// (or registry teardown) before destroying the client.
  void register_metrics(obs::Registry& registry,
                        const std::string& prefix) const;

  /// Callers currently queued for GPU slots (ticket taken, not admitted).
  /// A live gauge for monitoring and for deterministic fairness tests.
  std::size_t queue_depth() const;

  /// Requests currently pending in the adaptive batcher (submitted, not
  /// yet flushed).
  std::size_t pending_depth() const;

  /// Threads currently blocked in CompletionFuture::wait()/get() on this
  /// client's unresolved requests (always 0 with window_us == 0, where a
  /// future is resolved before it is handed out). A live gauge for
  /// deterministic tests of the idle flush.
  std::size_t blocked_waiters() const;

  /// The batcher configuration this client runs with.
  const BatcherConfig& batcher() const noexcept { return batcher_->config; }

  /// The retry policy this client runs with.
  const RetryPolicy& retry_policy() const noexcept { return retry_; }

  /// The breaker configuration and its current state.
  const CircuitBreakerConfig& breaker_config() const noexcept {
    return breaker_config_;
  }
  BreakerState breaker_state() const;

  /// Recorded transcripts (most recent `transcript_capacity` calls).
  std::vector<Transcript> transcripts() const;

  /// The wrapped model's name.
  std::string model_name() const { return model_->name(); }

 private:
  friend class CompletionFuture;
  using PendingRequest = detail::PendingRequest;

  /// RAII lease on acquired concurrency slots: the destructor returns them
  /// and wakes every waiter (multi-slot flush waiters need the broadcast),
  /// so no exit path — normal, throwing model, failed validation — can
  /// leak a slot.
  struct SlotLease {
    ModelClient& client;
    std::size_t slots;
    ~SlotLease();
  };

  /// Take a FIFO ticket and block until at the head of the queue with
  /// `slots` slots free; admits the caller and passes the head on.
  void acquire_slots(std::size_t slots) EXCLUDES(mutex_);

  /// A fresh request of `prompt`, its future's state tied to this
  /// client's batcher when it has a window.
  PendingRequest make_request(const std::string& prompt,
                              const GenerationParams& params,
                              bool batch_origin) const;

  /// Enqueue requests and run whatever flush policy triggers. Returns the
  /// futures in request order.
  std::vector<CompletionFuture> enqueue(std::vector<PendingRequest> requests)
      EXCLUDES(batcher_->mutex);

  /// Wait-side hook of CompletionFuture::wait(): register the calling
  /// thread as blocked, then run kIdle flushes inline while the idle rule
  /// holds and requests are pending. Touches the client only through
  /// flushes counted in `active_flushes`, so it is safe after the client
  /// is gone.
  static void begin_wait(detail::Batcher& queue) EXCLUDES(queue.mutex);
  /// Unregister the calling thread once its request resolved.
  static void end_wait(detail::Batcher& queue) EXCLUDES(queue.mutex);

  /// Per-request result of a flush's resilient resolution (defined in the
  /// .cpp; the header only passes references around).
  struct FlushOutcome;
  /// Counter deltas one flush accumulates for the stats merge.
  struct FlushTally;

  /// Run one (possibly retried/split) forward-pass resolution for `group`
  /// and fulfill its futures. Never throws: every failure is stored into
  /// the affected futures instead.
  void execute_flush(std::vector<PendingRequest>& group, FlushReason reason)
      EXCLUDES(batcher_->mutex, mutex_);

  /// Resolve `indices` of `group` (requests sharing their attempt
  /// history), starting at 0-based `attempt`: run a pass, and on failure
  /// either fail the requests, split a multi-request pass into per-request
  /// retries, or back off and re-attempt — per the RetryPolicy.
  /// `flush_start_us` is the flush's support::now_us() origin (one clock
  /// with the trace spans).
  void resolve_requests(std::vector<PendingRequest>& group,
                        std::vector<std::size_t> indices,
                        std::uint32_t attempt, std::uint64_t flush_start_us,
                        std::vector<FlushOutcome>& outcomes,
                        FlushTally& tally);

  /// Sleep out the backoff before retry number `retry` (1-based) of the
  /// request holding `prompt`, capped at `deadline` when the policy has
  /// one. Interruptible: returns false immediately when the client starts
  /// shutting down (the caller then cancels the retry).
  bool backoff_wait(std::uint32_t retry, const std::string& prompt,
                    std::chrono::steady_clock::time_point deadline,
                    bool has_deadline) EXCLUDES(batcher_->mutex);

  /// Breaker admission for one pass attempt; false = fail fast.
  bool breaker_admit() EXCLUDES(breaker_mutex_);
  /// Feed one pass outcome into the breaker window.
  void breaker_record(bool success) EXCLUDES(breaker_mutex_);

  /// Window-flush thread body (only started when window_us > 0).
  void flusher_main() EXCLUDES(batcher_->mutex);

  std::shared_ptr<const LanguageModel> model_;
  /// Span sink; null (the default) = tracing off, one branch per would-be
  /// span. Set during setup (see set_tracer), read from flush threads.
  std::shared_ptr<obs::Tracer> tracer_;
  const std::size_t max_concurrency_;
  const std::size_t transcript_capacity_;
  const RetryPolicy retry_;
  const CircuitBreakerConfig breaker_config_;

  mutable support::Mutex mutex_;
  support::CondVar slot_free_;
  std::size_t in_flight_ GUARDED_BY(mutex_) = 0;
  /// FIFO ticket discipline: `next_ticket_` is taken on arrival,
  /// `serving_` advances when the head finishes acquiring. A caller waits
  /// until it *is* the head AND its slots fit — so wide waiters cannot be
  /// overtaken forever, at the price of head-of-line blocking (bounded:
  /// every holder eventually releases).
  std::uint64_t next_ticket_ GUARDED_BY(mutex_) = 0;
  std::uint64_t serving_ GUARDED_BY(mutex_) = 0;
  ClientStats stats_ GUARDED_BY(mutex_);
  std::deque<Transcript> transcripts_ GUARDED_BY(mutex_);

  /// Adaptive-batcher state, under its own lock so submissions never
  /// contend with the stats/slot lock; shared with the futures.
  const std::shared_ptr<detail::Batcher> batcher_;
  std::atomic<std::size_t> pending_high_water_{0};
  /// Shed/breaker counters live outside stats_ so the enqueue path (which
  /// holds the batcher lock) and the breaker (its own lock) never have to
  /// take the stats lock; stats() folds them into the snapshot.
  std::atomic<std::uint64_t> pending_shed_{0};
  std::atomic<std::uint64_t> breaker_opens_{0};

  /// Circuit-breaker state, under its own lock (pass outcomes are
  /// recorded from flush threads; breaker_state() reads from anywhere).
  mutable support::Mutex breaker_mutex_;
  BreakerState breaker_state_ GUARDED_BY(breaker_mutex_) =
      BreakerState::kClosed;
  /// Recent pass outcomes (true = ok).
  std::deque<bool> breaker_window_ GUARDED_BY(breaker_mutex_);
  std::size_t breaker_failures_ GUARDED_BY(breaker_mutex_) = 0;
  std::chrono::steady_clock::time_point breaker_opened_at_
      GUARDED_BY(breaker_mutex_){};
  /// A half-open probe pass is in flight.
  bool breaker_probing_ GUARDED_BY(breaker_mutex_) = false;

  std::thread flusher_;
};

}  // namespace llm4vv::llm
