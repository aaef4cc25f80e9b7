#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/artifact_store.hpp"
#include "judge/prompt.hpp"
#include "judge/verdict.hpp"
#include "llm/client.hpp"
#include "support/thread_annotations.hpp"

namespace llm4vv::judge {

class Llmj;

/// One judged file: prompt, completion, parsed verdict.
struct JudgeDecision {
  Verdict verdict = Verdict::kUnparseable;
  bool says_valid = false;      ///< verdict with the invalid fallback
  std::string prompt;
  llm::Completion completion;
  /// True when this decision was served from the memoization cache (no
  /// prompt assembly, no model call, no simulated GPU time spent).
  bool cached = false;
  /// True when the artifact-store tier served this decision: the memo
  /// missed and the store held it, or the memo entry serving it was filled
  /// by such a read. The model call was paid by an earlier process run, or
  /// by this one before the memo evicted the entry. Implies `cached`.
  bool persisted = false;
};

/// Configuration of the judge's decision memoization cache. Probed and
/// mutated suites frequently contain byte-identical files (a mutation that
/// does not apply leaves the file unchanged), and decisions are fully
/// deterministic in (file, outcomes, style, seed), so repeats can skip the
/// prompt assembly and the model call entirely.
struct JudgeCacheConfig {
  bool enabled = true;
  /// Maximum cached decisions across all shards; oldest-first eviction.
  /// Entries hold the full decision (prompt + completion text, so cached
  /// results are byte-identical to uncached ones), typically a few KB
  /// each — size the capacity with that footprint in mind.
  std::size_t capacity = 1024;
  /// Shard count (rounded up to a power of two, minimum 1). Sharding keeps
  /// concurrent judge workers from serializing on one cache mutex.
  std::size_t shards = 8;
  /// Optional second tier behind the memo. When set, a memo miss reads
  /// through to the store's "judge" record for the key (its own prompt
  /// style only; the prompt is rebuilt, so decisions stay byte-identical,
  /// with no model call and no simulated GPU time), and every freshly
  /// computed decision is written through to the store when it is
  /// published. Call store->save() to put the records on disk. The store's
  /// fingerprint (corpus/model/seed) gates staleness: a mismatch
  /// cold-starts the file, never serves a wrong verdict. Null (the
  /// default) keeps the cache process-local. Ignored when the memo is
  /// disabled.
  std::shared_ptr<cache::ArtifactStore> store;
};

/// Every counter of the memoization cache, declared once (see
/// LLM4VV_CLIENT_STATS for the idiom). X(name) generates the
/// JudgeCacheStats member, Llmj's atomic `name_` and its load in
/// cache_stats(), the probe in Llmj::register_metrics and the check in
/// tests/obs_consistency_test.cpp. What each counts:
///
///   hits — items served from the cache; resolved at submission time,
///     without touching the batcher.
///   misses — items that assembled a prompt and queried the model.
///   evictions — entries dropped by the FIFO capacity bound.
///   duplicate_misses — items that missed the cache but were served by
///     piggybacking on a computation already in flight: a concurrent
///     worker judging the same key, or an earlier copy of the key inside
///     the same batch. Before in-flight dedup these were thundering-herd
///     misses that each paid a full simulated GPU call.
///   persisted_hits — subset of hits served by the artifact-store tier
///     (see JudgeDecision::persisted): a memo miss the store answered, or
///     a hit on the memo entry such a read filled.
#define LLM4VV_JUDGE_CACHE_STATS(X)                                  \
  X(hits)                                                            \
  X(misses)                                                          \
  X(evictions)                                                       \
  X(duplicate_misses)                                                \
  X(persisted_hits)

/// Counters of the memoization cache (monotonic over the Llmj's lifetime).
/// hits + misses + duplicate_misses equals the number of items served
/// while the cache was enabled.
struct JudgeCacheStats {
#define LLM4VV_STAT_MEMBER(name) std::uint64_t name = 0;
  LLM4VV_JUDGE_CACHE_STATS(LLM4VV_STAT_MEMBER)
#undef LLM4VV_STAT_MEMBER
};

/// One item of a batched or asynchronous evaluation. Agent styles require
/// non-null compile/exec records, exactly like evaluate(). The referenced
/// file/compile/exec objects must stay alive until the matching decision
/// (or JudgeFuture) is resolved.
struct JudgeRequest {
  const frontend::SourceFile* file = nullptr;
  const toolchain::CompileResult* compile = nullptr;
  const toolchain::ExecutionRecord* exec = nullptr;
  /// Trace id of the kJudge span Llmj::judge_chunk records for this item
  /// (the pipeline's input index + 1, the server's job ordinal).
  std::uint64_t trace_id = 0;
};

/// Handle on one asynchronously judged request.
///
/// Cache hits resolve at submission time; misses resolve when the model
/// client's adaptive batcher flushes them; duplicates of in-flight work
/// resolve when the owning caller publishes. get() finalizes the decision
/// (parsing the verdict and, for claimed misses, publishing into the memo
/// cache) and is idempotent. Llmj::judge_chunk resolves its own futures in
/// the safe order; only a caller holding raw futures must mind
/// waits_on_peer().
///
/// Lifetime: the future must not outlive the Llmj that issued it (the
/// shared state points back into the judge's cache shards). Dropping an
/// unresolved future is safe and deterministic — a claimed key is
/// abandoned so no other caller can be left waiting on it forever, and the
/// underlying model submission fails cleanly if its client is destroyed.
class JudgeFuture {
 public:
  JudgeFuture() = default;

  bool valid() const noexcept { return state_ != nullptr; }
  /// True when get() will not block: the decision is resolved, the
  /// underlying model pass has flushed (get() then only finalizes), or —
  /// for a duplicate of another caller's in-flight work — that owner has
  /// published. Itself non-blocking, even against a concurrent get().
  bool ready() const;
  /// True when this future waits on a computation owned by another caller
  /// (a duplicate of in-flight work). Drain such futures AFTER every
  /// future you own — Llmj::judge_chunk does — so two batches holding
  /// duplicates of each other's claimed keys resolve the owned work first
  /// instead of deadlocking.
  bool waits_on_peer() const;
  /// Block until resolved and return the decision. Rethrows whatever the
  /// underlying submission failed with. Idempotent and thread-safe.
  JudgeDecision get() const;

  struct State;

 private:
  friend class Llmj;
  explicit JudgeFuture(std::shared_ptr<State> state)
      : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

/// The LLM-as-a-Judge orchestrator. One instance per prompt style:
///  - kDirectAnalysis  -> the paper's Part One non-agent judge
///  - kAgentDirect     -> LLMJ 1
///  - kAgentIndirect   -> LLMJ 2
///
/// For agent styles the caller supplies the compile/execute records (the
/// "tools" of Figure 1); the judge assembles the prompt, queries the model
/// client, and parses the FINAL JUDGEMENT protocol. Thread-safe.
///
/// judge_chunk() is the one path that judges a group of files — the
/// pipeline's judge stage, the server and evaluate_many() all go through
/// it. It is built on the asynchronous pair evaluate_async() /
/// evaluate_async_many(), which share one per-item classifier; evaluate()
/// is a submit-and-wait wrapper over evaluate_async(). Every entry point
/// makes byte-identical decisions.
class Llmj {
 public:
  /// Per-item outcome handler of judge_chunk(), called on the calling
  /// thread with the item's index in the chunk and exactly one of its
  /// decision and the error the judge gave up with: the resilience layer's
  /// ModelError (kind and attempts preserved), or any other failure as a
  /// ModelError of kind kOther with no attempts.
  using ChunkCallback =
      std::function<void(std::size_t index, const JudgeDecision* decision,
                         const llm::ModelError* error)>;

  Llmj(std::shared_ptr<llm::ModelClient> client, llm::PromptStyle style,
       JudgeCacheConfig cache = {});

  /// Judge a file (blocking wrapper over evaluate_async). Agent styles
  /// require non-null compile/exec records.
  JudgeDecision evaluate(const frontend::SourceFile& file,
                         const toolchain::CompileResult* compile = nullptr,
                         const toolchain::ExecutionRecord* exec = nullptr,
                         std::uint64_t seed = 0) const;

  /// Judge a batch of files in one submission group (blocking wrapper over
  /// judge_chunk). Decisions come back in request order and are
  /// byte-for-byte what evaluate() would have produced per item (only the
  /// latency accounting differs, via the batched pass pricing). With the
  /// cache disabled every item is submitted — including duplicates —
  /// preserving the paper's one-request-per-file accounting. Throws the
  /// first error the chunk reported, after every item has resolved.
  std::vector<JudgeDecision> evaluate_many(
      const std::vector<JudgeRequest>& batch, std::uint64_t seed = 0) const;

  /// Judge a chunk of requests on the calling thread. `group_size` 1
  /// submits each request on its own (evaluate_async: plain submissions,
  /// never counted in ClientStats::batches); any other value submits
  /// evaluate_async_many groups of that size, 0 meaning the whole chunk as
  /// one group. Every future already ready() right after its group's
  /// submission resolves at once, so at window 0 each group resolves and
  /// publishes before the next is probed; resolving a ready future neither
  /// waits on the batcher nor submits, so no pass forms differently. After
  /// the last group the rest drain, owned futures before waits_on_peer()
  /// ones, so callers holding duplicates of each other's claims cannot
  /// deadlock. With a tracer, each item gets one kJudge span
  /// (JudgeRequest::trace_id, parent `parent_span`) from its group's
  /// submission to its resolution: arg the verdict or -1 on error, plus
  /// the simulated GPU seconds and the serving flush's flow id when
  /// uncached. `done` then runs once per item, in resolution order; a
  /// submission that throws fails every item of its group.
  void judge_chunk(const std::vector<JudgeRequest>& chunk,
                   std::size_t group_size, std::uint64_t seed,
                   const ChunkCallback& done, obs::Tracer* tracer = nullptr,
                   std::uint64_t parent_span = 0) const;

  /// Judge a file asynchronously. A cache hit resolves immediately; a miss
  /// is submitted to the model client's adaptive batcher (sequential
  /// accounting: a lone submission is priced exactly like the blocking
  /// call); a duplicate of in-flight work resolves when its owner
  /// publishes. The request's referents must outlive the future.
  JudgeFuture evaluate_async(const JudgeRequest& request,
                             std::uint64_t seed = 0) const;

  /// Judge a batch asynchronously. The batch is partitioned into cache
  /// hits (resolved immediately), in-batch duplicates (resolved from their
  /// leader), duplicates of in-flight work (resolved at publication), and
  /// genuine misses — which are handed to the client as one submit_many
  /// group, so the adaptive batcher can coalesce them with other callers'
  /// misses into shared forward passes. Futures come back in request
  /// order. A caller draining them itself must get() the
  /// non-waits_on_peer() futures first; judge_chunk() does this.
  std::vector<JudgeFuture> evaluate_async_many(
      const std::vector<JudgeRequest>& batch, std::uint64_t seed = 0) const;

  llm::PromptStyle style() const noexcept { return style_; }
  const char* name() const noexcept {
    return llm::prompt_style_name(style_);
  }

  /// The model client this judge submits through (for batcher telemetry:
  /// the pipeline snapshots its stats around a run).
  const llm::ModelClient& client() const noexcept { return *client_; }

  /// Snapshot of the memoization counters.
  JudgeCacheStats cache_stats() const noexcept;

  /// Register the memoization counters into a metrics registry as
  /// scrape-time probes under `prefix`, one per LLM4VV_JUDGE_CACHE_STATS
  /// entry ("<prefix>.hits", ...). Probes read cache_stats(): the registry
  /// stores nothing. The judge must outlive the registration.
  void register_metrics(obs::Registry& registry,
                        const std::string& prefix) const;

  /// Drop all memoized decisions (counters are kept). The store tier is
  /// untouched and keeps serving: a cleared key that the store holds is
  /// read back on its next miss. Also resets the in-flight dedup sets and
  /// wakes their waiters, so a clear issued during concurrent evaluation
  /// can never strand a thread waiting on a key whose computation it will
  /// no longer observe; a waiter woken this way simply recomputes.
  /// Non-const: this is a genuine mutation, not a logically-const read
  /// through the `mutable` shards.
  void clear_cache();

  /// No-op kept for source compatibility: every decision is written
  /// through to the store when it is published, so there is nothing left
  /// to snapshot. Returns 0.
  std::size_t persist_cache() const { return 0; }

 private:
  friend class JudgeFuture;
  friend struct JudgeFuture::State;

  /// One cached decision plus the file-content hash it was computed for.
  /// The content hash is re-checked on every hit: the map key is a 64-bit
  /// mix of all inputs, and this second independent hash turns an
  /// astronomically unlikely key collision into a detected miss instead of
  /// a silently wrong verdict.
  struct CacheEntry {
    std::uint64_t content_hash = 0;
    JudgeDecision decision;
    bool persisted = false;  ///< filled by a read from the artifact store
  };

  /// One cache shard: its own lock, map, FIFO eviction order, and the set
  /// of keys currently being computed (in-flight dedup). `done` is
  /// signalled whenever an in-flight key is published or abandoned.
  struct CacheShard {
    support::Mutex mutex;
    support::CondVar done;
    std::unordered_map<std::uint64_t, CacheEntry> entries GUARDED_BY(mutex);
    std::deque<std::uint64_t> order GUARDED_BY(mutex);
    std::unordered_set<std::uint64_t> inflight GUARDED_BY(mutex);
  };

  /// Outcome of probing a key: served from the cache, claimed by this
  /// caller (it must compute and then publish/abandon), or busy because
  /// another caller is already computing it.
  enum class Probe { kHit, kClaimed, kBusy };

  std::uint64_t cache_key(std::uint64_t content_hash,
                          const frontend::SourceFile& file,
                          const toolchain::CompileResult* compile,
                          const toolchain::ExecutionRecord* exec,
                          std::uint64_t seed) const noexcept;

  /// In-batch claims of evaluate_async_many: key → the state that owns it.
  using Leaders =
      std::unordered_map<std::uint64_t, std::shared_ptr<JudgeFuture::State>>;

  /// The per-item classifier both evaluate_async entry points share. Fills
  /// `state` as a memo hit, a copy of a key this batch already claimed
  /// (`leaders`, null for a lone request), a peer wait on another caller's
  /// claim, or a claimed key for claim_miss(); with the memo off, always
  /// an owner. True when the caller must submit state.decision.prompt.
  bool classify(const JudgeRequest& request,
                const std::shared_ptr<JudgeFuture::State>& state,
                Leaders* leaders) const;
  /// The claimed-key branch, shared by classify() and wait_for()'s
  /// takeover: serve the key from the store (the state resolves at once),
  /// else count a miss and build the prompt. True when the caller must
  /// submit state.decision.prompt.
  bool claim_miss(const JudgeRequest& request, JudgeFuture::State& state) const;

  Probe probe_or_claim(std::uint64_t key, std::uint64_t content_hash,
                       JudgeDecision& out) const;
  /// True when the key has a published cache entry (readiness probe for
  /// peer-wait futures; takes only the shard lock, never blocks).
  bool published(std::uint64_t key, std::uint64_t content_hash) const;
  /// Memoize a claimed key's decision and release the claim. A fresh
  /// decision is written through to the store first; one read from the
  /// store (`from_store`) is only memoized.
  void publish(std::uint64_t key, std::uint64_t content_hash,
               const JudgeDecision& decision, bool from_store = false) const;
  /// Second tier of a claimed memo miss: when the store holds a decodable
  /// record for the key, fill `out` (rebuilding its prompt from `request`),
  /// publish it and count a persisted hit. False leaves the claim with the
  /// caller. Call outside the shard lock.
  bool read_through(std::uint64_t key, std::uint64_t content_hash,
                    const JudgeRequest& request, JudgeDecision& out) const;
  void abandon(std::uint64_t key) const;
  JudgeDecision wait_for(std::uint64_t key, std::uint64_t content_hash,
                         const JudgeRequest& request,
                         std::uint64_t seed) const;

  std::shared_ptr<llm::ModelClient> client_;
  llm::PromptStyle style_;

  JudgeCacheConfig cache_config_;
  std::size_t shard_mask_ = 0;
  std::size_t shard_capacity_ = 0;
  mutable std::vector<std::unique_ptr<CacheShard>> shards_;
#define LLM4VV_STAT_ATOMIC(name) mutable std::atomic<std::uint64_t> name##_{0};
  LLM4VV_JUDGE_CACHE_STATS(LLM4VV_STAT_ATOMIC)
#undef LLM4VV_STAT_ATOMIC
};

}  // namespace llm4vv::judge
