#include "llm/client.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace llm4vv::llm {

namespace {

/// Only requests with identical sampling parameters may share a forward
/// pass (generate_batch takes a single params set). The retry ordinal
/// (`attempt`) is deliberately NOT part of the identity: it is an
/// internal annotation of the retry layer, never a sampling knob.
bool params_equal(const GenerationParams& a,
                  const GenerationParams& b) noexcept {
  return a.max_tokens == b.max_tokens && a.temperature == b.temperature &&
         a.seed == b.seed;
}

void fail_state(const std::shared_ptr<detail::CompletionState>& state,
                const std::exception_ptr& error) {
  {
    support::MutexLock lock(state->mutex);
    state->error = error;
    state->done = true;
  }
  state->cv.notify_all();
}

/// Rebuild a failure as a ModelError carrying the attempt count the retry
/// layer actually spent, preserving the original kind and message.
std::exception_ptr wrap_failure(FailureKind kind, const std::string& what,
                                std::uint32_t attempts) {
  switch (kind) {
    case FailureKind::kTransient:
      return std::make_exception_ptr(TransientModelError(what, attempts));
    case FailureKind::kPermanent:
      return std::make_exception_ptr(PermanentModelError(what, attempts));
    case FailureKind::kTimeout:
      return std::make_exception_ptr(RequestTimeoutError(what, attempts));
    case FailureKind::kBreaker:
      return std::make_exception_ptr(CircuitOpenError(what, attempts));
    case FailureKind::kShutdown:
      return std::make_exception_ptr(ClientShutdownError(what, attempts));
    case FailureKind::kOverflow:
      return std::make_exception_ptr(QueueOverflowError(what));
    case FailureKind::kOther: break;
  }
  return std::make_exception_ptr(ModelError(FailureKind::kOther, what,
                                            attempts));
}

std::uint64_t micros_since(std::uint64_t start_us) {
  const std::uint64_t now = support::now_us();
  return now >= start_us ? now - start_us : 0;
}

}  // namespace

/// Per-request result of one flush's resilient resolution.
struct ModelClient::FlushOutcome {
  Completion value;
  std::exception_ptr error;       ///< null = success
  FailureKind kind = FailureKind::kOther;
  std::uint32_t attempts = 0;     ///< forward passes spent on this request
  std::size_t pass_size = 0;      ///< size of the pass that served it
  std::uint64_t resolve_us = 0;   ///< flush start -> resolution, wall time
};

/// Counter deltas one flush accumulates for the stats merge.
struct ModelClient::FlushTally {
  std::uint64_t splits = 0;
  std::uint64_t breaker_rejected = 0;
};

// ---------------------------------------------------------------------------
// ClientStats
// ---------------------------------------------------------------------------

ClientStats ClientStats::since(const ClientStats& before) const noexcept {
  ClientStats window = *this;
#define LLM4VV_SUB(type, name) window.name -= before.name;
#define LLM4VV_KEEP(type, name)
#define LLM4VV_SUB_HIST(member, metric, buckets, label) \
  for (std::size_t i = 0; i < buckets; ++i) {           \
    window.member[i] -= before.member[i];               \
  }
  LLM4VV_CLIENT_STATS(LLM4VV_SUB, LLM4VV_KEEP, LLM4VV_SUB_HIST)
#undef LLM4VV_SUB
#undef LLM4VV_KEEP
#undef LLM4VV_SUB_HIST
  return window;
}

double ClientStats::batch_occupancy() const noexcept {
  return batches == 0 ? 0.0
                      : static_cast<double>(batched_prompts) /
                            static_cast<double>(batches);
}

std::size_t ClientStats::occupancy_bucket(std::size_t batch) noexcept {
  if (batch <= 1) return 0;
  if (batch == 2) return 1;
  if (batch <= 4) return 2;
  if (batch <= 8) return 3;
  if (batch <= 16) return 4;
  if (batch <= 32) return 5;
  return 6;
}

const char* ClientStats::occupancy_bucket_label(std::size_t bucket) noexcept {
  switch (bucket) {
    case 0: return "1";
    case 1: return "2";
    case 2: return "3-4";
    case 3: return "5-8";
    case 4: return "9-16";
    case 5: return "17-32";
    case 6: return "33+";
  }
  return "?";
}

std::size_t ClientStats::retry_latency_bucket(std::uint64_t micros) noexcept {
  if (micros < 100) return 0;
  if (micros < 1000) return 1;
  if (micros < 10000) return 2;
  if (micros < 100000) return 3;
  if (micros < 1000000) return 4;
  return 5;
}

const char* ClientStats::retry_latency_bucket_label(
    std::size_t bucket) noexcept {
  switch (bucket) {
    case 0: return "<100us";
    case 1: return "<1ms";
    case 2: return "<10ms";
    case 3: return "<100ms";
    case 4: return "<1s";
    case 5: return ">=1s";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Batcher
// ---------------------------------------------------------------------------

namespace detail {

std::size_t Batcher::head_run_locked() const {
  std::size_t run = 0;
  for (const PendingRequest& request : pending) {
    if (!params_equal(request.params, pending.front().params)) break;
    ++run;
    if (config.max_batch > 0 && run >= config.max_batch) break;
  }
  return run;
}

std::vector<PendingRequest> Batcher::collect_group_locked() {
  std::vector<PendingRequest> group;
  if (pending.empty()) return group;
  const std::size_t cap =
      config.max_batch == 0 ? pending.size() : config.max_batch;
  group.reserve(std::min(cap, pending.size()));
  const GenerationParams head_params = pending.front().params;
  while (!pending.empty() && group.size() < cap &&
         params_equal(pending.front().params, head_params)) {
    group.push_back(std::move(pending.front()));
    pending.pop_front();
  }
  // The queue just shrank: blocked-overflow submitters may fit now.
  if (config.max_pending > 0 && config.overflow == OverflowPolicy::kBlock) {
    room_cv.notify_all();
  }
  return group;
}

void Batcher::note_submission_locked(
    std::chrono::steady_clock::time_point now) {
  const auto horizon = now - std::chrono::microseconds(config.window_us);
  std::erase_if(submitters, [horizon](const Submitter& submitter) {
    return submitter.last_submit <= horizon;
  });
  const std::thread::id self = std::this_thread::get_id();
  bool close = false;
  Submitter* mine = nullptr;
  for (Submitter& submitter : submitters) {
    if (submitter.thread == self) {
      mine = &submitter;
    } else {
      close = true;  // every entry left submitted within the window
    }
  }
  if (mine == nullptr) {
    submitters.push_back(Submitter{self, now, false});
  } else {
    mine->last_submit = now;
  }
  close_arrivals = (close_arrivals << 1) | (close ? 1u : 0u);
}

void Batcher::set_waiting_locked(bool waiting) {
  const std::thread::id self = std::this_thread::get_id();
  for (Submitter& submitter : submitters) {
    if (submitter.thread == self) submitter.waiting = waiting;
  }
}

bool Batcher::idle_locked(std::chrono::steady_clock::time_point now) const {
  // Threads that arrive close together (judge workers idling on a queue
  // between submissions) are the load the window exists for, and they
  // are invisible here until they submit.
  if (std::popcount(close_arrivals) >= kCloseArrivalLimit) return false;
  const auto horizon = now - std::chrono::microseconds(config.window_us);
  for (const Submitter& submitter : submitters) {
    if (!submitter.waiting && submitter.last_submit > horizon) return false;
  }
  return true;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// CompletionFuture
// ---------------------------------------------------------------------------

bool CompletionFuture::ready() const {
  if (state_ == nullptr) return false;
  support::MutexLock lock(state_->mutex);
  return state_->done;
}

void CompletionFuture::wait() const {
  if (state_ == nullptr) {
    throw std::logic_error("CompletionFuture::wait on an empty future");
  }
  detail::Batcher* const queue = state_->batcher.get();
  const bool blocks_on_batcher = queue != nullptr && !ready();
  if (blocks_on_batcher) ModelClient::begin_wait(*queue);
  {
    support::UniqueLock lock(state_->mutex);
    while (!state_->done) state_->cv.wait(lock);
  }
  if (blocks_on_batcher) ModelClient::end_wait(*queue);
}

Completion CompletionFuture::get() const {
  wait();
  support::MutexLock lock(state_->mutex);
  if (state_->error != nullptr) std::rethrow_exception(state_->error);
  return state_->value;
}

bool CompletionFuture::failed() const {
  wait();
  support::MutexLock lock(state_->mutex);
  return state_->error != nullptr;
}

std::exception_ptr CompletionFuture::error() const {
  if (state_ == nullptr) return nullptr;
  support::MutexLock lock(state_->mutex);
  return state_->done ? state_->error : nullptr;
}

std::size_t CompletionFuture::flush_size() const {
  if (state_ == nullptr) return 0;
  support::MutexLock lock(state_->mutex);
  return state_->flush_size;
}

// ---------------------------------------------------------------------------
// ModelClient
// ---------------------------------------------------------------------------

ModelClient::ModelClient(std::shared_ptr<const LanguageModel> model,
                         std::size_t max_concurrency,
                         std::size_t transcript_capacity,
                         BatcherConfig batcher, RetryPolicy retry,
                         CircuitBreakerConfig breaker)
    : model_(std::move(model)),
      max_concurrency_(max_concurrency == 0 ? 1 : max_concurrency),
      transcript_capacity_(transcript_capacity),
      retry_(retry),
      breaker_config_(breaker),
      batcher_(std::make_shared<detail::Batcher>(batcher, this)) {
  if (model_ == nullptr) {
    throw std::invalid_argument("ModelClient: model must not be null");
  }
  if (batcher.window_us > 0) {
    flusher_ = std::thread([this] { flusher_main(); });
  }
}

ModelClient::~ModelClient() {
  std::deque<PendingRequest> orphans;
  {
    support::UniqueLock lock(batcher_->mutex);
    batcher_->shutting_down = true;
    orphans.swap(batcher_->pending);
    // One broadcast wakes everyone parked on the batcher: the window
    // flusher, blocked-overflow submitters, and — the S1 fix — flushes
    // sleeping out a retry backoff, which observe shutting_down and
    // CANCEL their remaining attempts instead of running them against a
    // dying client.
    batcher_->cv.notify_all();
    batcher_->room_cv.notify_all();
    // Wait out flushes running on caller threads (filling submitters and
    // idle waiters): they hold references to the model, the slot state,
    // and the stats, none of which may die under them. Bounded: backoffs
    // were just cancelled, so each flush finishes after at most its
    // current forward pass. Waiters that have not started a flush see
    // shutting_down and never touch the client.
    while (batcher_->active_flushes != 0) batcher_->flush_done.wait(lock);
  }
  if (flusher_.joinable()) flusher_.join();
  if (!orphans.empty()) {
    const auto error = std::make_exception_ptr(ClientShutdownError(
        "ModelClient destroyed with " + std::to_string(orphans.size()) +
        " unresolved submission(s)"));
    for (const PendingRequest& request : orphans) {
      fail_state(request.state, error);
    }
  }
}

ModelClient::SlotLease::~SlotLease() {
  {
    support::MutexLock lock(client.mutex_);
    client.in_flight_ -= slots;
  }
  // notify_all, not notify_one: wide flushes need several slots free at
  // once, and a single wake delivered to such a waiter whose predicate is
  // still false would be consumed without releasing anyone — stranding a
  // single-slot waiter that could have run.
  client.slot_free_.notify_all();
}

void ModelClient::acquire_slots(std::size_t slots) {
  support::UniqueLock lock(mutex_);
  const std::uint64_t ticket = next_ticket_++;
  while (!(serving_ == ticket && in_flight_ + slots <= max_concurrency_)) {
    slot_free_.wait(lock);
  }
  ++serving_;
  in_flight_ += slots;
  lock.unlock();
  // The next ticket holder may already fit in the remaining slots; the
  // broadcast lets it (and only it — the predicate orders everyone else)
  // proceed without waiting for a release.
  slot_free_.notify_all();
}

bool ModelClient::breaker_admit() {
  if (!breaker_config_.enabled) return true;
  support::MutexLock lock(breaker_mutex_);
  switch (breaker_state_) {
    case BreakerState::kClosed: return true;
    case BreakerState::kOpen: {
      const auto cooldown =
          std::chrono::microseconds(breaker_config_.cooldown_us);
      if (std::chrono::steady_clock::now() - breaker_opened_at_ < cooldown) {
        return false;
      }
      // Cooldown elapsed: this pass becomes the half-open probe.
      breaker_state_ = BreakerState::kHalfOpen;
      breaker_probing_ = true;
      return true;
    }
    case BreakerState::kHalfOpen:
      // One probe at a time; everyone else keeps failing fast until the
      // probe's verdict is in.
      if (breaker_probing_) return false;
      breaker_probing_ = true;
      return true;
  }
  return true;
}

void ModelClient::breaker_record(bool success) {
  if (!breaker_config_.enabled) return;
  support::MutexLock lock(breaker_mutex_);
  if (breaker_state_ == BreakerState::kHalfOpen) {
    breaker_probing_ = false;
    if (success) {
      // Probe succeeded: close and start from a clean window.
      breaker_state_ = BreakerState::kClosed;
      breaker_window_.clear();
      breaker_failures_ = 0;
    } else {
      breaker_state_ = BreakerState::kOpen;
      breaker_opened_at_ = std::chrono::steady_clock::now();
      breaker_opens_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  if (breaker_state_ == BreakerState::kOpen) return;  // late stragglers
  breaker_window_.push_back(success);
  if (!success) ++breaker_failures_;
  while (breaker_window_.size() > std::max<std::size_t>(
                                      1, breaker_config_.window)) {
    if (!breaker_window_.front()) --breaker_failures_;
    breaker_window_.pop_front();
  }
  if (breaker_window_.size() >= breaker_config_.min_samples &&
      static_cast<double>(breaker_failures_) >=
          breaker_config_.open_failure_rate *
              static_cast<double>(breaker_window_.size())) {
    breaker_state_ = BreakerState::kOpen;
    breaker_opened_at_ = std::chrono::steady_clock::now();
    breaker_opens_.fetch_add(1, std::memory_order_relaxed);
    breaker_window_.clear();
    breaker_failures_ = 0;
  }
}

BreakerState ModelClient::breaker_state() const {
  support::MutexLock lock(breaker_mutex_);
  return breaker_state_;
}

bool ModelClient::backoff_wait(std::uint32_t retry, const std::string& prompt,
                               std::chrono::steady_clock::time_point deadline,
                               bool has_deadline) {
  double backoff = static_cast<double>(retry_.base_backoff_us);
  for (std::uint32_t k = 1; k < retry; ++k) {
    backoff *= retry_.backoff_multiplier;
  }
  backoff = std::min(backoff, static_cast<double>(retry_.max_backoff_us));
  std::uint64_t wait_us = static_cast<std::uint64_t>(backoff);
  if (retry_.jitter_us > 0) {
    // Deterministic jitter: reproducible for a given (prompt, attempt,
    // seed), different across requests so synchronized retry storms
    // de-correlate.
    support::Rng rng(support::hash_mix(
        support::hash_mix(support::fnv1a64(prompt), retry),
        retry_.jitter_seed));
    wait_us += rng.next_below(retry_.jitter_us + 1);
  }
  auto until = std::chrono::steady_clock::now() +
               std::chrono::microseconds(wait_us);
  // Never sleep past the request's deadline: wake at the deadline and let
  // the caller's boundary check convert the expiry into a timeout.
  if (has_deadline && deadline < until) until = deadline;
  support::UniqueLock lock(batcher_->mutex);
  while (!batcher_->shutting_down) {
    if (batcher_->cv.wait_until(lock, until) == std::cv_status::timeout) {
      break;
    }
  }
  return !batcher_->shutting_down;
}

void ModelClient::resolve_requests(
    std::vector<PendingRequest>& group, std::vector<std::size_t> indices,
    std::uint32_t attempt, std::uint64_t flush_start_us,
    std::vector<FlushOutcome>& outcomes, FlushTally& tally) {
  const std::uint32_t max_attempts = std::max<std::uint32_t>(
      1, retry_.max_attempts);
  const bool has_deadline = retry_.deadline_us > 0;
  const auto fail_indices = [&](const std::vector<std::size_t>& failed,
                                FailureKind kind, const std::string& what,
                                std::uint32_t attempts) {
    const std::uint64_t now_us = micros_since(flush_start_us);
    for (const std::size_t idx : failed) {
      FlushOutcome& out = outcomes[idx];
      out.error = wrap_failure(kind, what, attempts);
      out.kind = kind;
      out.attempts = attempts;
      out.resolve_us = now_us;
    }
  };

  for (;;) {
    // Deadline check at the attempt boundary. Deadlines are per request
    // and measured from enqueue time, so a group member that queued
    // longer can expire while its pass-mates fight on.
    if (has_deadline) {
      const auto now = std::chrono::steady_clock::now();
      const auto budget = std::chrono::microseconds(retry_.deadline_us);
      std::vector<std::size_t> live;
      live.reserve(indices.size());
      std::vector<std::size_t> expired;
      for (const std::size_t idx : indices) {
        if (now >= group[idx].enqueued + budget) {
          expired.push_back(idx);
        } else {
          live.push_back(idx);
        }
      }
      if (!expired.empty()) {
        fail_indices(expired, FailureKind::kTimeout,
                     "ModelClient: request deadline expired after " +
                         std::to_string(attempt) + " attempt(s)",
                     attempt);
      }
      indices.swap(live);
      if (indices.empty()) return;
    }

    // Attempts beyond a request group's first record client.retry spans
    // (the span ends when this attempt's outcome is known — on success the
    // return below closes it over the whole pass).
    obs::ObsSpan retry_span;
    if (tracer_ != nullptr && attempt > 0) {
      retry_span = obs::ObsSpan(tracer_.get(), obs::SpanKind::kRetry, 0);
      retry_span.set_arg(static_cast<std::int64_t>(attempt) + 1);
    }

    FailureKind kind = FailureKind::kOther;
    std::string what;
    if (!breaker_admit()) {
      tally.breaker_rejected += indices.size();
      kind = FailureKind::kBreaker;
      what = "ModelClient: circuit breaker open";
    } else {
      try {
        std::vector<std::string> prompts;
        prompts.reserve(indices.size());
        for (const std::size_t idx : indices) {
          prompts.push_back(group[idx].prompt);
        }
        GenerationParams params = group[indices.front()].params;
        params.attempt = attempt;
        std::vector<Completion> completions =
            model_->generate_batch(prompts, params);
        if (completions.size() != prompts.size()) {
          throw std::logic_error(
              "ModelClient: generate_batch returned a mismatched "
              "completion count");
        }
        breaker_record(true);
        const std::uint64_t now_us = micros_since(flush_start_us);
        for (std::size_t i = 0; i < indices.size(); ++i) {
          FlushOutcome& out = outcomes[indices[i]];
          out.value = std::move(completions[i]);
          out.value.attempts = attempt + 1;
          out.attempts = attempt + 1;
          out.pass_size = indices.size();
          out.resolve_us = now_us;
        }
        return;
      } catch (const ModelError& e) {
        breaker_record(false);
        kind = e.kind();
        what = e.what();
      } catch (const std::exception& e) {
        breaker_record(false);
        kind = FailureKind::kOther;
        what = e.what();
      } catch (...) {
        breaker_record(false);
        kind = FailureKind::kOther;
        what = "ModelClient: unknown model failure";
      }
    }

    retry_span.end();

    const std::uint32_t attempts_used = attempt + 1;
    if (!retryable(kind) || attempts_used >= max_attempts) {
      fail_indices(indices, kind, what, attempts_used);
      return;
    }
    // Back off before the next attempt (once per consecutive-attempt
    // pair; split children skip straight to their pass). Interruptible:
    // a client shutting down cancels the retry instead of awaiting it.
    obs::ObsSpan backoff_span;
    if (tracer_ != nullptr) {
      backoff_span = obs::ObsSpan(tracer_.get(), obs::SpanKind::kBackoff, 0);
      backoff_span.set_arg(static_cast<std::int64_t>(attempts_used));
    }
    const bool survived =
        backoff_wait(attempts_used, group[indices.front()].prompt,
                     group[indices.front()].enqueued +
                         std::chrono::microseconds(retry_.deadline_us),
                     has_deadline);
    backoff_span.end();
    if (!survived) {
      fail_indices(indices, FailureKind::kShutdown,
                   "ModelClient: shutdown cancelled a retry in backoff",
                   attempts_used);
      return;
    }
    if (indices.size() > 1) {
      // Failed-batch splitting: one poisoned request must not re-fail its
      // healthy pass-mates, and each request's remaining attempt budget
      // is its own. Singletons can't split further, so recursion depth
      // is at most one.
      ++tally.splits;
      for (const std::size_t idx : indices) {
        resolve_requests(group, {idx}, attempt + 1, flush_start_us, outcomes,
                         tally);
      }
      return;
    }
    ++attempt;
  }
}

void ModelClient::execute_flush(std::vector<PendingRequest>& group,
                                FlushReason reason) {
  if (group.empty()) return;
  bool batch_origin = group.size() >= 2;
  for (const PendingRequest& request : group) {
    batch_origin = batch_origin || request.batch_origin;
  }

  // The flush formed — count it (reason + occupancy at the formed size)
  // regardless of how resolution goes; retried/split passes below are
  // extra attempts of this same flush, not new formed batches, so the
  // occupancy histogram keeps summing to formed_batches.
  {
    support::MutexLock lock(mutex_);
    ++stats_.formed_batches;
    switch (reason) {
      case FlushReason::kImmediate: ++stats_.flush_immediate; break;
      case FlushReason::kFull: ++stats_.flush_full; break;
      case FlushReason::kWindow: ++stats_.flush_window; break;
      case FlushReason::kIdle: ++stats_.flush_idle; break;
    }
    ++stats_.occupancy_hist[ClientStats::occupancy_bucket(group.size())];
  }

  const std::uint64_t flush_start_us = support::now_us();
  std::vector<FlushOutcome> outcomes(group.size());
  FlushTally tally;
  {
    // One model replica serves the whole pass, but the pass keeps up to
    // max_concurrency streams busy; clamping keeps oversized batches from
    // waiting for more slots than exist. The FIFO ticket inside
    // acquire_slots guarantees the multi-slot wait is bounded: single-slot
    // flushes arriving later queue behind this one instead of re-consuming
    // every released slot. Retries and splits run inside the same lease —
    // a flush's slots are held until its last request resolves.
    const std::size_t slots = std::min(group.size(), max_concurrency_);
    acquire_slots(slots);
    SlotLease lease{*this, slots};
    std::vector<std::size_t> all(group.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    resolve_requests(group, std::move(all), 0, flush_start_us, outcomes,
                     tally);
  }

  {
    support::MutexLock lock(mutex_);
    stats_.batch_splits += tally.splits;
    stats_.breaker_rejected += tally.breaker_rejected;
    std::size_t served = 0;
    for (std::size_t i = 0; i < group.size(); ++i) {
      const FlushOutcome& out = outcomes[i];
      if (out.attempts > 1) {
        stats_.retries += out.attempts - 1;
        ++stats_.retry_latency_hist[ClientStats::retry_latency_bucket(
            out.resolve_us)];
      }
      if (out.error != nullptr) {
        ++stats_.failed_requests;
        if (out.kind == FailureKind::kTimeout) ++stats_.timeouts;
        continue;
      }
      ++served;
      ++stats_.requests;
      stats_.prompt_tokens += out.value.prompt_tokens;
      stats_.completion_tokens += out.value.completion_tokens;
      stats_.gpu_seconds += out.value.latency_seconds;
      if (transcript_capacity_ > 0) {
        transcripts_.push_back(Transcript{group[i].prompt, out.value});
        while (transcripts_.size() > transcript_capacity_) {
          transcripts_.pop_front();
        }
      }
    }
    if (batch_origin && served > 0) {
      ++stats_.batches;
      stats_.batched_prompts += served;
      stats_.max_batch =
          std::max<std::uint64_t>(stats_.max_batch, group.size());
    }
  }

  // One client.flush span per formed batch. Its span id doubles as the
  // flow id the served completions carry home (Completion::trace_flow), so
  // the exporter can draw batch-to-request arrows.
  std::uint64_t flow = 0;
  if (tracer_ != nullptr) {
    double gpu_seconds = 0.0;
    for (const FlushOutcome& out : outcomes) {
      if (out.error == nullptr) gpu_seconds += out.value.latency_seconds;
    }
    obs::ObsSpan flush_span(tracer_.get(), obs::SpanKind::kFlush, 0);
    flush_span.set_start_us(flush_start_us);
    flush_span.set_arg(static_cast<std::int64_t>(group.size()));
    flush_span.set_gpu_seconds(gpu_seconds);
    flow = flush_span.id();
    flush_span.set_flow(flow);
    flush_span.end();
  }

  for (std::size_t i = 0; i < group.size(); ++i) {
    const auto& state = group[i].state;
    FlushOutcome& out = outcomes[i];
    if (out.error != nullptr) {
      fail_state(state, out.error);
      continue;
    }
    {
      support::MutexLock lock(state->mutex);
      state->value = std::move(out.value);
      state->value.trace_flow = flow;
      state->flush_size = out.pass_size;
      state->done = true;
    }
    state->cv.notify_all();
  }
}

ModelClient::PendingRequest ModelClient::make_request(
    const std::string& prompt, const GenerationParams& params,
    bool batch_origin) const {
  PendingRequest request;
  request.prompt = prompt;
  request.params = params;
  request.state = std::make_shared<detail::CompletionState>(
      batcher_->config.window_us > 0 ? batcher_ : nullptr);
  request.batch_origin = batch_origin;
  return request;
}

std::vector<CompletionFuture> ModelClient::enqueue(
    std::vector<PendingRequest> requests) {
  std::vector<CompletionFuture> futures;
  futures.reserve(requests.size());
  for (const PendingRequest& request : requests) {
    futures.push_back(CompletionFuture(request.state));
  }
  // From here on a request's state is reached through its future: the
  // kBlock path moves requests into the queue one at a time.
  const auto fail_from = [&futures](std::size_t first,
                                    const std::exception_ptr& error) {
    for (std::size_t i = first; i < futures.size(); ++i) {
      fail_state(futures[i].state_, error);
    }
  };

  // The queue is reached through a reference taken now: a kBlock
  // submitter parked below may wake after the client is gone, and the
  // queue outlives it through the states this call holds.
  detail::Batcher& queue = *batcher_;
  const BatcherConfig& config = queue.config;
  std::vector<std::vector<PendingRequest>> flushes;
  FlushReason reason = FlushReason::kImmediate;
  {
    support::UniqueLock lock(queue.mutex);
    if (queue.shutting_down) {
      fail_from(0, std::make_exception_ptr(ClientShutdownError(
                       "ModelClient: submit during shutdown")));
      return futures;
    }
    const auto now = std::chrono::steady_clock::now();
    if (config.window_us > 0) queue.note_submission_locked(now);
    // Bounded pending queue (S2). kShed fails the overflowing tail now.
    // kBlock parks this submitter until the window flusher (or a filling
    // caller) drains the queue below the bound; it needs that external
    // drainer, so it only engages when window_us > 0 — an immediate-flush
    // batcher never leaves anything pending, and blocking for room there
    // could only wait on itself.
    std::size_t admit = requests.size();
    bool pushed = false;
    if (config.max_pending > 0) {
      if (config.overflow == OverflowPolicy::kShed) {
        const std::size_t room = config.max_pending > queue.pending.size()
                                     ? config.max_pending - queue.pending.size()
                                     : 0;
        if (admit > room) {
          fail_from(room, std::make_exception_ptr(QueueOverflowError(
                              "ModelClient: pending queue full (max_pending " +
                              std::to_string(config.max_pending) +
                              "), request shed")));
          pending_shed_.fetch_add(admit - room, std::memory_order_relaxed);
          admit = room;
        }
      } else if (config.window_us > 0) {
        pushed = true;
        for (std::size_t i = 0; i < requests.size(); ++i) {
          while (!(queue.shutting_down ||
                   queue.pending.size() < config.max_pending)) {
            queue.room_cv.wait(lock);
          }
          if (queue.shutting_down) {
            // The client may be gone: touch nothing of it.
            fail_from(i, std::make_exception_ptr(ClientShutdownError(
                             "ModelClient: submit during shutdown")));
            return futures;
          }
          requests[i].enqueued = std::chrono::steady_clock::now();
          queue.pending.push_back(std::move(requests[i]));
          // Wake the window flusher per push: this submitter may park on
          // room_cv before reaching the post-loop notify, and the flusher
          // is the drainer it is waiting for.
          queue.cv.notify_all();
        }
      }
    }
    if (!pushed) {
      for (std::size_t i = 0; i < admit; ++i) {
        requests[i].enqueued = now;
        queue.pending.push_back(std::move(requests[i]));
      }
    }
    std::size_t high = pending_high_water_.load(std::memory_order_relaxed);
    while (queue.pending.size() > high &&
           !pending_high_water_.compare_exchange_weak(
               high, queue.pending.size(), std::memory_order_relaxed)) {
    }
    if (config.window_us == 0) {
      // Paper mode: this submission flushes now, in its entirety. The
      // enqueue + collect runs under one lock acquisition, so nothing from
      // a concurrent caller can ever ride along (sequential pricing stays
      // bit-exact) and nothing is ever left pending.
      reason = FlushReason::kImmediate;
      while (!queue.pending.empty()) {
        flushes.push_back(queue.collect_group_locked());
      }
    } else {
      reason = FlushReason::kFull;
      // "Full" means the *head equal-params run* reached max_batch — only
      // requests that can actually share the pass count toward fullness.
      // A short head run of other params is never flushed early on the
      // strength of requests queued behind it (FIFO head-of-line: it
      // waits for its own window or for same-params arrivals); so every
      // kFull flush really carries max_batch prompts.
      while (config.max_batch > 0 &&
             queue.head_run_locked() >= config.max_batch) {
        flushes.push_back(queue.collect_group_locked());
      }
      // Whatever remains waits for more arrivals, an idle waiter or the
      // window; (re)arm the flusher on the new oldest pending request.
      if (!queue.pending.empty()) queue.cv.notify_all();
    }
    queue.active_flushes += flushes.size();
  }

  for (auto& group : flushes) {
    execute_flush(group, reason);
    {
      support::MutexLock lock(queue.mutex);
      --queue.active_flushes;
      // Broadcast UNDER the lock, deliberately: the destructor's drain
      // loop wakes on this decrement, and with the broadcast outside the
      // critical section it could observe active_flushes == 0 (via its
      // own lock acquisition racing ahead), destroy the client — and with
      // window_us == 0 the queue with it — and free this condition
      // variable while the broadcast was still touching it. Under the
      // lock, the destructor cannot re-acquire until the broadcast has
      // fully left the condvar. Caught by TSan; pinned by
      // AsyncShutdownTest.InFlightFlushDrainsBeforeDestruction and
      // InlineFlushNotifyCannotOutliveClient.
      queue.flush_done.notify_all();
    }
  }
  return futures;
}

void ModelClient::begin_wait(detail::Batcher& queue) {
  support::UniqueLock lock(queue.mutex);
  ++queue.waiters;
  queue.set_waiting_locked(true);
  // Flush everything pending while the rule holds: every recent submitter
  // is blocked, so nobody the window would wait for is left to add to the
  // batch. Like a filling submitter, this thread runs the pass inline.
  while (!queue.shutting_down && !queue.pending.empty() &&
         queue.idle_locked(std::chrono::steady_clock::now())) {
    std::vector<PendingRequest> group = queue.collect_group_locked();
    ++queue.active_flushes;
    lock.unlock();
    queue.client->execute_flush(group, FlushReason::kIdle);
    lock.lock();
    --queue.active_flushes;
    queue.flush_done.notify_all();
  }
}

void ModelClient::end_wait(detail::Batcher& queue) {
  support::MutexLock lock(queue.mutex);
  --queue.waiters;
  queue.set_waiting_locked(false);
}

void ModelClient::flusher_main() {
  detail::Batcher& queue = *batcher_;
  const auto window = std::chrono::microseconds(queue.config.window_us);
  support::UniqueLock lock(queue.mutex);
  for (;;) {
    while (!(queue.shutting_down || !queue.pending.empty())) {
      queue.cv.wait(lock);
    }
    if (queue.shutting_down) return;
    // Sleep until the oldest pending request's window expires; arrivals
    // and shutdown re-wake us (a full or idle flush may also empty the
    // queue while we sleep — re-check everything on every wake).
    while (!queue.shutting_down && !queue.pending.empty()) {
      const auto deadline = queue.pending.front().enqueued + window;
      if (std::chrono::steady_clock::now() >= deadline) break;
      queue.cv.wait_until(lock, deadline);
    }
    if (queue.shutting_down) return;
    if (queue.pending.empty()) continue;
    std::vector<PendingRequest> group = queue.collect_group_locked();
    ++queue.active_flushes;
    lock.unlock();
    execute_flush(group, FlushReason::kWindow);
    lock.lock();
    --queue.active_flushes;
    queue.flush_done.notify_all();
  }
}

CompletionFuture ModelClient::submit(const std::string& prompt,
                                     const GenerationParams& params) {
  std::vector<PendingRequest> requests;
  requests.push_back(make_request(prompt, params, false));
  return enqueue(std::move(requests))[0];
}

std::vector<CompletionFuture> ModelClient::submit_many(
    const std::vector<std::string>& prompts, const GenerationParams& params) {
  if (prompts.empty()) return {};
  std::vector<PendingRequest> requests;
  requests.reserve(prompts.size());
  for (const std::string& prompt : prompts) {
    requests.push_back(make_request(prompt, params, true));
  }
  return enqueue(std::move(requests));
}

ClientStats ModelClient::stats() const {
  ClientStats snapshot;
  {
    support::MutexLock lock(mutex_);
    snapshot = stats_;
  }
  snapshot.pending_high_water =
      pending_high_water_.load(std::memory_order_relaxed);
  snapshot.pending_shed = pending_shed_.load(std::memory_order_relaxed);
  snapshot.breaker_opens = breaker_opens_.load(std::memory_order_relaxed);
  return snapshot;
}

std::size_t ModelClient::queue_depth() const {
  support::MutexLock lock(mutex_);
  return static_cast<std::size_t>(next_ticket_ - serving_);
}

std::size_t ModelClient::pending_depth() const {
  support::MutexLock lock(batcher_->mutex);
  return batcher_->pending.size();
}

std::size_t ModelClient::blocked_waiters() const {
  support::MutexLock lock(batcher_->mutex);
  return batcher_->waiters;
}

std::vector<Transcript> ModelClient::transcripts() const {
  support::MutexLock lock(mutex_);
  return std::vector<Transcript>(transcripts_.begin(), transcripts_.end());
}

void ModelClient::register_metrics(obs::Registry& registry,
                                   const std::string& prefix) const {
  // Every probe snapshots stats() at scrape time, so the registry reads the
  // same locked copy stats() hands out. Scrapes are cold path; the
  // per-probe stats() calls are deliberate simplicity.
#define LLM4VV_PROBE(type, name)                          \
  registry.register_probe(prefix + "." #name, [this] {    \
    return static_cast<double>(stats().name);             \
  });
#define LLM4VV_PROBE_HIST(member, metric, buckets, label)                 \
  for (std::size_t i = 0; i < buckets; ++i) {                             \
    registry.register_probe(prefix + "." #metric, label(i), [this, i] {   \
      return static_cast<double>(stats().member[i]);                      \
    });                                                                   \
  }
  LLM4VV_CLIENT_STATS(LLM4VV_PROBE, LLM4VV_PROBE, LLM4VV_PROBE_HIST)
#undef LLM4VV_PROBE
#undef LLM4VV_PROBE_HIST
}

}  // namespace llm4vv::llm
