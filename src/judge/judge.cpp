#include "judge/judge.hpp"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "support/jsonl.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace llm4vv::judge {

namespace {

constexpr const char* kStoreNamespace = "judge";

/// Round up to the next power of two (minimum 1).
std::size_t pow2_at_least(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

using support::hash_mix;

/// Parse a finished model call into the decision's verdict fields. Every
/// path — blocking, batched, asynchronous — goes through here, which is
/// what keeps their verdicts byte-for-byte identical by construction.
void finish_decision(JudgeDecision& decision, llm::Completion completion) {
  decision.completion = std::move(completion);
  decision.verdict = parse_verdict(decision.completion.text);
  decision.says_valid =
      verdict_says_valid(decision.verdict, /*fallback=*/false);
}

llm::GenerationParams params_with_seed(std::uint64_t seed) {
  llm::GenerationParams params;
  params.seed = seed;
  return params;
}

/// The error judge_chunk reports for a failed item: a ModelError as thrown
/// (kind and attempts kept), anything else as kind kOther with no attempts.
llm::ModelError as_model_error(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const llm::ModelError& e) {
    return e;
  } catch (const std::exception& e) {
    return llm::ModelError(llm::FailureKind::kOther, e.what(), 0);
  } catch (...) {
    return llm::ModelError(llm::FailureKind::kOther, "unknown error", 0);
  }
}

// ---------------------------------------------------------------------------
// Artifact-store record codec. The persisted fields are what a published
// cache entry holds except the prompt, which is most of a record and which
// build_prompt rebuilds from the request on a store hit. So a warm hit is
// byte-identical to the cold decision — latency included (%.17g round-trips
// doubles exactly). Records written before the prompt was dropped still
// decode: their `prompt` field is ignored.
// ---------------------------------------------------------------------------

cache::ArtifactStore::Fields encode_decision(llm::PromptStyle style,
                                             const JudgeDecision& decision) {
  cache::ArtifactStore::Fields fields;
  fields["style"] = std::to_string(static_cast<int>(style));
  fields["verdict"] = std::to_string(static_cast<int>(decision.verdict));
  fields["says_valid"] = decision.says_valid ? "1" : "0";
  fields["text"] = decision.completion.text;
  fields["ptok"] = std::to_string(decision.completion.prompt_tokens);
  fields["ctok"] = std::to_string(decision.completion.completion_tokens);
  fields["latency"] = support::format_double_roundtrip(
      decision.completion.latency_seconds);
  return fields;
}

bool decode_decision(const cache::ArtifactStore::Fields& fields,
                     llm::PromptStyle style, JudgeDecision& out) {
  using cache::find_field;
  using cache::parse_int_field;
  const std::string* style_text = find_field(fields, "style");
  const std::string* verdict_text = find_field(fields, "verdict");
  const std::string* says_valid = find_field(fields, "says_valid");
  const std::string* text = find_field(fields, "text");
  const std::string* ptok = find_field(fields, "ptok");
  const std::string* ctok = find_field(fields, "ctok");
  const std::string* latency = find_field(fields, "latency");
  if (style_text == nullptr || verdict_text == nullptr ||
      says_valid == nullptr || text == nullptr ||
      ptok == nullptr || ctok == nullptr || latency == nullptr) {
    return false;
  }
  std::int64_t style_value = 0;
  std::int64_t verdict_value = 0;
  std::int64_t prompt_tokens = 0;
  std::int64_t completion_tokens = 0;
  if (!parse_int_field(*style_text, style_value) ||
      !parse_int_field(*verdict_text, verdict_value) ||
      !parse_int_field(*ptok, prompt_tokens) ||
      !parse_int_field(*ctok, completion_tokens)) {
    return false;
  }
  if (style_value != static_cast<std::int64_t>(style)) return false;
  if (verdict_value < 0 ||
      verdict_value > static_cast<std::int64_t>(Verdict::kUnparseable) ||
      prompt_tokens < 0 || completion_tokens < 0) {
    return false;
  }
  char* end = nullptr;
  const double latency_seconds = std::strtod(latency->c_str(), &end);
  if (end == latency->c_str() || *end != '\0') return false;

  out = JudgeDecision{};
  out.verdict = static_cast<Verdict>(verdict_value);
  out.says_valid = *says_valid == "1";
  out.completion.text = *text;
  out.completion.prompt_tokens = static_cast<std::size_t>(prompt_tokens);
  out.completion.completion_tokens =
      static_cast<std::size_t>(completion_tokens);
  out.completion.latency_seconds = latency_seconds;
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// JudgeFuture
// ---------------------------------------------------------------------------

/// Shared state behind a JudgeFuture. Resolution is idempotent and runs
/// under the state's own mutex; the kinds mirror the probe outcomes:
///  - kReady:    a cache hit (memo or store), decision filled at
///               submission time;
///  - kOwner:    this future owns the model submission (and, with the
///               cache enabled, the claimed in-flight key it must publish
///               or abandon);
///  - kFollower: an in-batch duplicate; copies its leader's decision;
///  - kPeerWait: a duplicate of work in flight on another caller; waits
///               for that owner's publication (taking the key over if it
///               was abandoned).
struct JudgeFuture::State {
  enum class Kind { kReady, kOwner, kFollower, kPeerWait };

  // A plain std::mutex, deliberately outside the thread-safety analysis:
  // most members are written unlocked during the submission phase (the
  // state is single-owner until the future is handed out) and only
  // `resolved`/`decision`/`error` transit the lock afterwards — a shape
  // GUARDED_BY cannot express without blanketing the constructor-side
  // writes in false positives. The atomic `resolved_flag` mirror keeps
  // ready() lock-free; TSan still checks every access.
  std::mutex mutex;
  bool resolved = false;
  /// Lock-free mirror of `resolved`, set after resolution completes, so
  /// ready() can answer without touching the mutex a concurrent resolve()
  /// holds across its blocking wait.
  std::atomic<bool> resolved_flag{false};
  JudgeDecision decision;
  std::exception_ptr error;

  Kind kind = Kind::kReady;
  const Llmj* judge = nullptr;
  std::uint64_t seed = 0;

  // kOwner / kPeerWait:
  std::uint64_t key = 0;
  std::uint64_t content_hash = 0;
  // kOwner:
  llm::CompletionFuture completion;
  bool publish_on_resolve = false;  ///< owns a claimed in-flight key
  // kFollower:
  std::shared_ptr<State> leader;
  // kPeerWait (referents owned by the submitting caller):
  JudgeRequest request;

  ~State() {
    // A claimed key whose future was dropped unresolved must not strand
    // other callers waiting on it: abandon wakes them and lets the next
    // prober take ownership (a deterministic recompute, never a hang).
    if (!resolved && kind == Kind::kOwner && publish_on_resolve) {
      judge->abandon(key);
    }
  }

  /// Resolve once: fills `decision` or `error`.
  void resolve() {
    std::lock_guard lock(mutex);
    if (resolved) return;
    struct FlagGuard {
      State& state;
      ~FlagGuard() {
        if (state.resolved) {
          state.resolved_flag.store(true, std::memory_order_release);
        }
      }
    } flag_guard{*this};
    try {
      switch (kind) {
        case Kind::kReady:
          break;  // decision filled at submission time
        case Kind::kOwner: {
          llm::Completion value = completion.get();
          finish_decision(decision, std::move(value));
          if (publish_on_resolve) {
            judge->publish(key, content_hash, decision);
            publish_on_resolve = false;
          }
          break;
        }
        case Kind::kFollower: {
          leader->resolve();
          std::lock_guard leader_lock(leader->mutex);
          if (leader->error != nullptr) {
            resolved = true;
            error = leader->error;
            return;
          }
          decision = leader->decision;
          decision.cached = true;
          judge->duplicate_misses_.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        case Kind::kPeerWait:
          decision = judge->wait_for(key, content_hash, request, seed);
          break;
      }
      resolved = true;
    } catch (...) {
      error = std::current_exception();
      resolved = true;
      if (kind == Kind::kOwner && publish_on_resolve) {
        judge->abandon(key);
        publish_on_resolve = false;
      }
    }
  }
};

bool JudgeFuture::ready() const {
  // Never touches state_->mutex: a concurrent get() holds it across its
  // blocking wait, and ready() must stay non-blocking. `kind` and the
  // submission-time fields are immutable once the future is handed out;
  // resolution is observed through the atomic mirror.
  if (state_ == nullptr) return false;
  if (state_->resolved_flag.load(std::memory_order_acquire)) return true;
  switch (state_->kind) {
    case State::Kind::kReady:
      return true;
    case State::Kind::kOwner:
      // get() still finalizes (parse + publish), but nothing blocks once
      // the underlying pass has flushed.
      return state_->completion.valid() && state_->completion.ready();
    case State::Kind::kFollower: {
      const State& leader = *state_->leader;
      return leader.resolved_flag.load(std::memory_order_acquire) ||
             (leader.completion.valid() && leader.completion.ready());
    }
    case State::Kind::kPeerWait:
      // True once the owning caller has published the key: get() then
      // copies the cached decision without waiting. (If the owner
      // abandons instead, this stays false and get() recomputes.)
      return state_->judge->published(state_->key, state_->content_hash);
  }
  return false;
}

bool JudgeFuture::waits_on_peer() const {
  return state_ != nullptr && state_->kind == State::Kind::kPeerWait;
}

JudgeDecision JudgeFuture::get() const {
  if (state_ == nullptr) {
    throw std::logic_error("JudgeFuture::get on an empty future");
  }
  state_->resolve();
  std::lock_guard lock(state_->mutex);
  if (state_->error != nullptr) std::rethrow_exception(state_->error);
  return state_->decision;
}

namespace {

std::shared_ptr<JudgeFuture::State> new_state(const Llmj* judge,
                                              std::uint64_t seed) {
  auto state = std::make_shared<JudgeFuture::State>();
  state->judge = judge;
  state->seed = seed;
  return state;
}

}  // namespace

// ---------------------------------------------------------------------------
// Llmj
// ---------------------------------------------------------------------------

Llmj::Llmj(std::shared_ptr<llm::ModelClient> client, llm::PromptStyle style,
           JudgeCacheConfig cache)
    : client_(std::move(client)), style_(style), cache_config_(cache) {
  if (client_ == nullptr) {
    throw std::invalid_argument("Llmj: client must not be null");
  }
  if (cache_config_.capacity == 0) cache_config_.enabled = false;
  if (cache_config_.enabled) {
    const std::size_t shard_count =
        pow2_at_least(cache_config_.shards == 0 ? 1 : cache_config_.shards);
    shard_mask_ = shard_count - 1;
    shard_capacity_ =
        (cache_config_.capacity + shard_count - 1) / shard_count;
    shards_.reserve(shard_count);
    for (std::size_t i = 0; i < shard_count; ++i) {
      shards_.push_back(std::make_unique<CacheShard>());
    }
  }
}

std::uint64_t Llmj::cache_key(std::uint64_t content_hash,
                              const frontend::SourceFile& file,
                              const toolchain::CompileResult* compile,
                              const toolchain::ExecutionRecord* exec,
                              std::uint64_t seed) const noexcept {
  // Everything the prompt and the deterministic model draw depend on:
  // file content + flavor select the prompt body and criteria block, the
  // compile/exec observables fill the agent tool-info block, and (style,
  // seed) select the protocol and the judgment draw.
  std::uint64_t h = content_hash;
  h = hash_mix(h, static_cast<std::uint64_t>(file.flavor));
  h = hash_mix(h, static_cast<std::uint64_t>(style_));
  h = hash_mix(h, seed);
  if (compile != nullptr) {
    h = hash_mix(h, 0xC0117117ULL);
    h = hash_mix(h, static_cast<std::uint64_t>(compile->success));
    h = hash_mix(h, static_cast<std::uint64_t>(
                   static_cast<std::int64_t>(compile->return_code)));
    h = hash_mix(h, support::fnv1a64(compile->stderr_text));
    h = hash_mix(h, support::fnv1a64(compile->stdout_text));
  }
  if (exec != nullptr) {
    h = hash_mix(h, 0xE8EC0DEULL);
    h = hash_mix(h, static_cast<std::uint64_t>(exec->ran));
    h = hash_mix(h, static_cast<std::uint64_t>(
                   static_cast<std::int64_t>(exec->return_code)));
    h = hash_mix(h, support::fnv1a64(exec->stderr_text));
    h = hash_mix(h, support::fnv1a64(exec->stdout_text));
  }
  return h;
}

Llmj::Probe Llmj::probe_or_claim(std::uint64_t key,
                                 std::uint64_t content_hash,
                                 JudgeDecision& out) const {
  CacheShard& shard = *shards_[key & shard_mask_];
  support::MutexLock lock(shard.mutex);
  const auto it = shard.entries.find(key);
  if (it != shard.entries.end() && it->second.content_hash == content_hash) {
    out = it->second.decision;
    out.cached = true;
    out.persisted = it->second.persisted;
    if (it->second.persisted) {
      persisted_hits_.fetch_add(1, std::memory_order_relaxed);
    }
    return Probe::kHit;
  }
  if (shard.inflight.count(key) != 0) return Probe::kBusy;
  shard.inflight.insert(key);
  return Probe::kClaimed;
}

void Llmj::publish(std::uint64_t key, std::uint64_t content_hash,
                   const JudgeDecision& decision, bool from_store) const {
  // Write through before the memo insert, so an entry the memo evicts is
  // already in the store for the next miss to read back.
  if (!from_store && cache_config_.store != nullptr) {
    cache_config_.store->put(kStoreNamespace, key, content_hash,
                             encode_decision(style_, decision));
  }
  CacheShard& shard = *shards_[key & shard_mask_];
  {
    support::MutexLock lock(shard.mutex);
    shard.inflight.erase(key);
    if (shard.entries
            .emplace(key, CacheEntry{content_hash, decision, from_store})
            .second) {
      shard.order.push_back(key);
      while (shard.entries.size() > shard_capacity_) {
        shard.entries.erase(shard.order.front());
        shard.order.pop_front();
        evictions_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  shard.done.notify_all();
}

bool Llmj::read_through(std::uint64_t key, std::uint64_t content_hash,
                        const JudgeRequest& request,
                        JudgeDecision& out) const {
  if (cache_config_.store == nullptr) return false;
  const auto fields =
      cache_config_.store->get(kStoreNamespace, key, content_hash);
  // Records of other prompt styles (decode checks the style field) and
  // corrupt records degrade to a miss, never a wrong verdict.
  if (!fields || !decode_decision(*fields, style_, out)) return false;
  out.prompt =
      build_prompt(style_, *request.file, request.compile, request.exec);
  publish(key, content_hash, out, /*from_store=*/true);
  out.cached = true;
  out.persisted = true;
  hits_.fetch_add(1, std::memory_order_relaxed);
  persisted_hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool Llmj::published(std::uint64_t key, std::uint64_t content_hash) const {
  CacheShard& shard = *shards_[key & shard_mask_];
  support::MutexLock lock(shard.mutex);
  const auto it = shard.entries.find(key);
  return it != shard.entries.end() && it->second.content_hash == content_hash;
}

void Llmj::abandon(std::uint64_t key) const {
  CacheShard& shard = *shards_[key & shard_mask_];
  {
    support::MutexLock lock(shard.mutex);
    shard.inflight.erase(key);
  }
  shard.done.notify_all();
}

JudgeDecision Llmj::wait_for(std::uint64_t key, std::uint64_t content_hash,
                             const JudgeRequest& request,
                             std::uint64_t seed) const {
  CacheShard& shard = *shards_[key & shard_mask_];
  {
    support::UniqueLock lock(shard.mutex);
    while (!(shard.entries.count(key) != 0 ||
             shard.inflight.count(key) == 0)) {
      shard.done.wait(lock);
    }
    const auto it = shard.entries.find(key);
    if (it != shard.entries.end() &&
        it->second.content_hash == content_hash) {
      duplicate_misses_.fetch_add(1, std::memory_order_relaxed);
      JudgeDecision decision = it->second.decision;
      decision.cached = true;
      decision.persisted = it->second.persisted;
      return decision;
    }
    // The computing caller failed (or the entry belongs to a colliding
    // key): take over as the new owner of this key.
    shard.inflight.insert(key);
  }
  // From here the owner state's destructor or resolve() abandons the claim
  // on any failure, so the key never stays in flight.
  JudgeFuture::State owner;
  owner.judge = this;
  owner.seed = seed;
  owner.key = key;
  owner.content_hash = content_hash;
  if (claim_miss(request, owner)) {
    owner.completion =
        client_->submit(owner.decision.prompt, params_with_seed(seed));
  }
  owner.resolve();
  if (owner.error != nullptr) std::rethrow_exception(owner.error);
  return owner.decision;
}

bool Llmj::claim_miss(const JudgeRequest& request,
                      JudgeFuture::State& state) const {
  state.kind = JudgeFuture::State::Kind::kOwner;
  state.publish_on_resolve = true;
  // From here on the state's destructor abandons the claim if it never
  // resolves — a throw below (or a dropped future) can't strand anyone
  // waiting on the key.
  if (read_through(state.key, state.content_hash, request, state.decision)) {
    state.kind = JudgeFuture::State::Kind::kReady;
    state.publish_on_resolve = false;
    state.resolved = true;
    return false;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  state.decision.prompt =
      build_prompt(style_, *request.file, request.compile, request.exec);
  return true;
}

bool Llmj::classify(const JudgeRequest& request,
                    const std::shared_ptr<JudgeFuture::State>& state_ptr,
                    Leaders* leaders) const {
  using Kind = JudgeFuture::State::Kind;
  JudgeFuture::State& state = *state_ptr;
  if (!cache_config_.enabled) {
    // Paper accounting: every item, duplicates included, is submitted.
    state.kind = Kind::kOwner;
    state.decision.prompt =
        build_prompt(style_, *request.file, request.compile, request.exec);
    return true;
  }
  state.content_hash = support::fnv1a64(request.file->content);
  state.key = cache_key(state.content_hash, *request.file, request.compile,
                        request.exec, state.seed);
  // A second copy of a key this batch claimed follows the first instead
  // of deadlocking on its own in-flight marker.
  if (leaders != nullptr) {
    const auto leader = leaders->find(state.key);
    if (leader != leaders->end()) {
      state.kind = Kind::kFollower;
      state.leader = leader->second;
      return false;
    }
  }
  switch (probe_or_claim(state.key, state.content_hash, state.decision)) {
    case Probe::kHit:
      hits_.fetch_add(1, std::memory_order_relaxed);
      state.kind = Kind::kReady;
      state.resolved = true;
      return false;
    case Probe::kBusy:
      state.kind = Kind::kPeerWait;
      state.request = request;
      return false;
    case Probe::kClaimed:
      break;
  }
  // A key the store served is published, so a later copy in this batch
  // hits the memo instead of following this item.
  if (!claim_miss(request, state)) return false;
  if (leaders != nullptr) leaders->emplace(state.key, state_ptr);
  return true;
}

JudgeFuture Llmj::evaluate_async(const JudgeRequest& request,
                                 std::uint64_t seed) const {
  auto state = new_state(this, seed);
  if (classify(request, state, nullptr)) {
    state->completion =
        client_->submit(state->decision.prompt, params_with_seed(seed));
  }
  return JudgeFuture(std::move(state));
}

std::vector<JudgeFuture> Llmj::evaluate_async_many(
    const std::vector<JudgeRequest>& batch, std::uint64_t seed) const {
  std::vector<JudgeFuture> futures;
  futures.reserve(batch.size());
  if (batch.empty()) return futures;

  // Classify every item. If anything below throws, the states' destructors
  // abandon every claimed key, so other threads cannot wait on this batch
  // forever.
  std::vector<std::shared_ptr<JudgeFuture::State>> states;
  states.reserve(batch.size());
  Leaders leaders;
  std::vector<std::size_t> submitted;
  std::vector<std::string> prompts;
  for (const JudgeRequest& request : batch) {
    states.push_back(new_state(this, seed));
    if (classify(request, states.back(), &leaders)) {
      submitted.push_back(states.size() - 1);
      prompts.push_back(states.back()->decision.prompt);
    }
  }

  // Submit them as one batch-API group: with a zero wait window they flush
  // as one forward pass; with a nonzero window the batcher may coalesce
  // them with other callers' requests into larger cross-worker passes.
  if (!prompts.empty()) {
    auto completions = client_->submit_many(prompts, params_with_seed(seed));
    for (std::size_t m = 0; m < submitted.size(); ++m) {
      states[submitted[m]]->completion = std::move(completions[m]);
    }
  }

  for (auto& state : states) futures.push_back(JudgeFuture(std::move(state)));
  return futures;
}

void Llmj::judge_chunk(const std::vector<JudgeRequest>& chunk,
                       std::size_t group_size, std::uint64_t seed,
                       const ChunkCallback& done, obs::Tracer* tracer,
                       std::uint64_t parent_span) const {
  // Trace one resolved item, then hand it to the caller.
  const auto report = [&](std::size_t index, std::uint64_t submit_us,
                          const JudgeDecision* decision,
                          const llm::ModelError* error) {
    obs::ObsSpan span(tracer, obs::SpanKind::kJudge, chunk[index].trace_id,
                      parent_span);
    span.set_start_us(submit_us);
    if (decision == nullptr) {
      span.set_arg(-1);
    } else {
      span.set_arg(static_cast<std::int64_t>(decision->verdict));
      if (!decision->cached) {
        span.set_gpu_seconds(decision->completion.latency_seconds);
        span.set_flow(decision->completion.trace_flow);
      }
    }
    span.end();
    done(index, decision, error);
  };
  const auto resolve = [&](std::size_t index, const JudgeFuture& future,
                           std::uint64_t submit_us) {
    JudgeDecision decision;
    try {
      decision = future.get();
    } catch (...) {
      const llm::ModelError error = as_model_error(std::current_exception());
      report(index, submit_us, nullptr, &error);
      return;
    }
    report(index, submit_us, &decision, nullptr);
  };

  struct Pending {
    std::size_t index = 0;
    JudgeFuture future;
    std::uint64_t submit_us = 0;
  };
  std::vector<Pending> pending;
  std::vector<JudgeRequest> group;
  const std::size_t step = group_size == 0 ? chunk.size() : group_size;
  for (std::size_t start = 0; start < chunk.size(); start += step) {
    const std::size_t end = std::min(chunk.size(), start + step);
    const std::uint64_t submit_us = tracer != nullptr ? support::now_us() : 0;
    std::vector<JudgeFuture> futures;
    try {
      if (group_size == 1) {
        futures.push_back(evaluate_async(chunk[start], seed));
      } else {
        group.assign(chunk.begin() + static_cast<std::ptrdiff_t>(start),
                     chunk.begin() + static_cast<std::ptrdiff_t>(end));
        futures = evaluate_async_many(group, seed);
      }
    } catch (...) {
      const llm::ModelError error = as_model_error(std::current_exception());
      for (std::size_t i = start; i < end; ++i) {
        report(i, submit_us, nullptr, &error);
      }
      continue;
    }
    for (std::size_t i = start; i < end; ++i) {
      JudgeFuture& future = futures[i - start];
      if (future.ready()) {
        resolve(i, future, submit_us);
      } else {
        pending.push_back(Pending{i, std::move(future), submit_us});
      }
    }
  }
  // Owned futures first, duplicates of other callers' in-flight keys
  // second: the owners publish before anyone waits on them.
  for (const bool peer_pass : {false, true}) {
    for (const Pending& entry : pending) {
      if (entry.future.waits_on_peer() == peer_pass) {
        resolve(entry.index, entry.future, entry.submit_us);
      }
    }
  }
}

JudgeDecision Llmj::evaluate(const frontend::SourceFile& file,
                             const toolchain::CompileResult* compile,
                             const toolchain::ExecutionRecord* exec,
                             std::uint64_t seed) const {
  return evaluate_async(JudgeRequest{&file, compile, exec}, seed).get();
}

std::vector<JudgeDecision> Llmj::evaluate_many(
    const std::vector<JudgeRequest>& batch, std::uint64_t seed) const {
  std::vector<JudgeDecision> decisions(batch.size());
  std::optional<llm::ModelError> failure;
  judge_chunk(batch, 0, seed,
              [&](std::size_t index, const JudgeDecision* decision,
                  const llm::ModelError* error) {
                if (decision != nullptr) {
                  decisions[index] = *decision;
                } else if (!failure) {
                  failure = *error;
                }
              });
  if (failure) throw *failure;
  return decisions;
}

JudgeCacheStats Llmj::cache_stats() const noexcept {
  JudgeCacheStats stats;
#define LLM4VV_LOAD(name) stats.name = name##_.load(std::memory_order_relaxed);
  LLM4VV_JUDGE_CACHE_STATS(LLM4VV_LOAD)
#undef LLM4VV_LOAD
  return stats;
}

void Llmj::register_metrics(obs::Registry& registry,
                            const std::string& prefix) const {
#define LLM4VV_PROBE(name)                               \
  registry.register_probe(prefix + "." #name, [this] {   \
    return static_cast<double>(cache_stats().name);      \
  });
  LLM4VV_JUDGE_CACHE_STATS(LLM4VV_PROBE)
#undef LLM4VV_PROBE
}

void Llmj::clear_cache() {
  for (const auto& shard : shards_) {
    {
      support::MutexLock lock(shard->mutex);
      shard->entries.clear();
      shard->order.clear();
      // Reset in-flight markers too: a waiter parked on a key whose owner
      // publishes into the cleared map (or abandons) would otherwise race a
      // clear that happened between its probe and its wait. After the
      // reset, woken waiters find neither entry nor marker and simply
      // become owners themselves — a recompute, never a stranding. The
      // displaced owner's publish() re-inserts a correct (identical)
      // decision, which is harmless.
      shard->inflight.clear();
    }
    shard->done.notify_all();
  }
}

}  // namespace llm4vv::judge
