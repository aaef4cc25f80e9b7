#pragma once

#include <memory>
#include <string>
#include <vector>

#include "judge/judge.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "toolchain/compiler.hpp"
#include "toolchain/executor.hpp"

namespace llm4vv::pipeline {

/// Pipeline operating modes (Section III-C):
///  - kFilterEarly: a file that fails a stage is not passed downstream —
///    "a file that fails an earlier stage of the pipeline does not need to
///    be passed to the next stage". This is the production configuration.
///  - kRecordAll: every file flows through all three stages and every
///    stage's outcome is recorded — the configuration the paper used for
///    its experiments, so pipeline verdicts can be computed retroactively
///    while also measuring the judges on every file.
enum class PipelineMode { kFilterEarly, kRecordAll };

/// Worker/queue configuration of the three stages.
struct PipelineConfig {
  PipelineMode mode = PipelineMode::kRecordAll;
  std::size_t compile_workers = 1;
  std::size_t execute_workers = 1;
  /// Parallelism of the LLM stage ("if there are enough available GPU
  /// resources"); bounded by the ModelClient's concurrency anyway.
  std::size_t judge_workers = 1;
  std::size_t queue_capacity = 128;
  std::uint64_t judge_seed = 0;
  /// Items per submission group when a judge worker hands its popped
  /// chunk to Llmj::judge_chunk: cache misses inside a group enter the
  /// model client's adaptive batcher together as one batch-API call, and
  /// — with the batcher's wait window pinned to 0 — go to the model as one
  /// batched forward pass that amortizes prefill. With a nonzero window
  /// the batcher may further coalesce groups from different judge workers
  /// into shared cross-worker passes. 1 submits each item on its own (a
  /// plain submission, so ClientStats::batches stays 0): at window 0 that
  /// is the paper's one-call-per-file accounting, which the core/
  /// experiments pin to keep their simulated GPU totals seed-exact. 0 is
  /// invalid: the pipeline constructor rejects it instead of silently
  /// misbehaving. Effective group sizes are also bounded by how many items
  /// a queue pop returns, so a group can hold fewer items than this on a
  /// draining queue.
  std::size_t judge_batch_size = 8;
  /// Items a worker moves per queue round-trip (pop_up_to / push_all).
  /// Batching amortizes the queue lock over several items; kept small so
  /// one worker cannot starve its siblings of a nearly-empty queue. 1
  /// hands items through one at a time — the sparse-arrival shape the
  /// adaptive batcher's wait window is designed for (and what
  /// BM_PipelineAdaptiveBatch measures). 0 is clamped to 1.
  std::size_t stage_batch = 16;
  /// Lock-striped shards per inter-stage queue (see support::MpmcQueue):
  /// workers hash to a home shard and steal from siblings, so high worker
  /// counts stop serializing on one queue mutex. 0 (the default) sizes
  /// automatically — one shard per worker of the widest stage, capped at
  /// min(hardware threads, 8): striping beyond the hardware's parallelism
  /// is pure scan overhead. Sharding never changes per-file results
  /// (records are indexed, not ordered); 1 restores the strict-FIFO
  /// single-mutex queue.
  std::size_t queue_shards = 0;
  /// Optional metrics registry. When set, run() mounts the judge's client
  /// and cache statistics and the inter-stage queues as run-scoped probes
  /// under "pipeline.*". At the end of the run it adds the run's totals to
  /// the permanent LLM4VV_PIPELINE_COUNTERS, snapshots the whole registry
  /// into PipelineResult::metrics, and unmounts the run-scoped probes.
  /// Null (the default) keeps the pipeline metrics-free.
  std::shared_ptr<obs::Registry> registry;
  /// Optional span tracer. When set, run() emits one run span plus
  /// per-file compile / queue-wait / execute / judge spans (trace id =
  /// input index + 1) into the tracer's per-thread rings; judge spans carry
  /// the serving batcher flush's flow id so exports can link batches to
  /// their member requests. Null (the default) disables tracing with fixed
  /// overhead: every span site is a single branch on the null sink.
  std::shared_ptr<obs::Tracer> trace;
};

/// Everything recorded about one file's trip through the pipeline.
struct PipelineRecord {
  std::size_t index = 0;        ///< position in the input vector
  bool compiled = false;        ///< compile stage verdict
  int compile_rc = -1;
  bool executed = false;        ///< reached the execute stage and exited 0
  int exec_rc = -1;
  bool judged = false;          ///< reached the judge stage
  judge::Verdict verdict = judge::Verdict::kUnparseable;
  bool judge_says_valid = false;
  /// The pipeline's final verdict: compiled && exited 0 && judged valid.
  bool pipeline_says_valid = false;
  /// Simulated GPU seconds spent judging this file (0 when filtered or when
  /// the judge served the decision from its memoization cache).
  double judge_gpu_seconds = 0.0;
  /// True when a downstream queue was closed before this item could be
  /// handed over: the item was processed by earlier stages but never
  /// reached the later ones. Never set during a normal run; it records
  /// lost work instead of dropping it silently.
  bool dropped = false;
  /// True when the judge stage answered from its memoization cache.
  bool judge_cached = false;
  /// True when the artifact-store tier behind the judge memo served the
  /// decision (see JudgeDecision::persisted; implies judge_cached).
  bool judge_persisted = false;
  /// True when the compile stage was served from the compile cache (the
  /// front-end never ran for this file in this call).
  bool compile_cached = false;
  /// True when the judge stage gave up on this file: the model call failed
  /// past the client's retry budget (or was shed / timed out). The record
  /// stays in the results with the failure's kind and attempt count below
  /// — graceful degradation, never a silent drop. `judged` stays false.
  bool judge_error = false;
  /// Why the judge gave up (valid only when judge_error).
  llm::FailureKind judge_error_kind = llm::FailureKind::kOther;
  /// Forward passes the client spent on this record's judge decision: 1 on
  /// a clean first try, >1 when retries were needed (success or failure),
  /// 0 when no pass ran (cache hit, filtered, shed, or still queued at
  /// expiry).
  std::uint32_t judge_attempts = 0;
};

/// Per-stage counters.
struct StageStats {
  std::size_t processed = 0;  ///< items the stage actually worked on
  std::size_t rejected = 0;   ///< items the stage failed
  double busy_seconds = 0.0;  ///< summed worker time in the stage
};

/// The pipeline's registry counters, declared once: X(name, member) names
/// the counter "pipeline.<name>" and the PipelineResult member holding one
/// run's value. run() adds each run's values to these permanent counters
/// just before its end-of-run snapshot, so a registry shared by several
/// runs totals them all. tests/obs_consistency_test.cpp expands the same
/// list.
#define LLM4VV_PIPELINE_COUNTERS(X)                                \
  X("files", records.size())                                       \
  X("dropped", dropped_items)                                      \
  X("compile.processed", compile_stage.processed)                  \
  X("compile.rejected", compile_stage.rejected)                    \
  X("compile.cache_hits", compile_cache_hits)                      \
  X("compile.persisted_hits", compile_persisted_hits)              \
  X("execute.processed", execute_stage.processed)                  \
  X("execute.rejected", execute_stage.rejected)                    \
  X("execute.fused_instructions", execute_fused_instructions)      \
  X("judge.processed", judge_stage.processed)                      \
  X("judge.rejected", judge_stage.rejected)                        \
  X("judge.cache_hits", judge_cache_hits)                          \
  X("judge.cache_misses", judge_cache_misses)                      \
  X("judge.persisted_hits", judge_persisted_hits)                  \
  X("judge.errors", judge_errors)

/// Result of one pipeline run.
struct PipelineResult {
  std::vector<PipelineRecord> records;  ///< input order
  StageStats compile_stage;
  StageStats execute_stage;
  StageStats judge_stage;
  double wall_seconds = 0.0;
  /// GPU seconds the LLM stage consumed; in kFilterEarly mode this is what
  /// early filtering saves relative to kRecordAll. Cache hits consume none.
  double judge_gpu_seconds = 0.0;
  /// Judge decisions served from the memoization cache during this run.
  std::uint64_t judge_cache_hits = 0;
  /// Judge decisions that actually assembled a prompt and hit the model.
  std::uint64_t judge_cache_misses = 0;
  /// Items refused by a closed queue (sum of PipelineRecord::dropped).
  std::size_t dropped_items = 0;
  /// The judge's model-client statistics over this run: the client's
  /// stats at the end of the run since() those at its start. Counters and
  /// histograms are this run's (forward passes as the batcher formed them,
  /// flush reasons, retries, timeouts, sheds, breaker opens); the peaks
  /// max_batch and pending_high_water are client-lifetime values. The
  /// window assumes the client serves no unrelated traffic during the run
  /// — true for every in-tree caller, where runs on a shared client are
  /// sequential. judge_client.batch_occupancy() is the headline occupancy.
  llm::ClientStats judge_client;
  /// Judge cache hits served by the persistent artifact-store tier
  /// (subset of judge_cache_hits): the savings a warm start delivers, as
  /// opposed to in-process memoization.
  std::uint64_t judge_persisted_hits = 0;
  /// Compile-stage results served from the driver's compile cache (the
  /// front-end was skipped), and the subset the persistent store tier
  /// served rather than the in-process memo.
  std::uint64_t compile_cache_hits = 0;
  std::uint64_t compile_persisted_hits = 0;
  /// VM dispatch core the execute stage ran with ("table" or "reference";
  /// see vm::dispatch_mode_name).
  std::string execute_dispatch;
  /// Superinstruction sites the VM decoder rewrote, summed over every
  /// module the execute stage ran (0 under the reference core), and the
  /// largest distinct-pattern count any single module hit.
  std::uint64_t execute_fused_instructions = 0;
  std::uint32_t execute_fusion_patterns = 0;
  /// Lock-striped shards each inter-stage queue ran with this run.
  std::size_t queue_shards = 0;
  /// Pops served by a non-home shard across the three inter-stage queues —
  /// how often workers had to steal instead of hitting their own shard.
  std::uint64_t queue_steals = 0;
  /// Records whose judge stage gave up (sum of PipelineRecord::judge_error;
  /// zero with faults and retries off).
  std::size_t judge_errors = 0;
  /// Registry snapshot taken at the end of the run, while the run-scoped
  /// probes (client, judge cache, queues) were still registered. Empty when
  /// PipelineConfig::registry was null.
  obs::MetricsSnapshot metrics;
};

/// The staged validation pipeline of Figure 2: bounded queues between a
/// compile stage, an execute stage, and an agent-based LLMJ stage, each
/// served by its own worker pool (CP.mess: stages share nothing and
/// communicate only through the queues).
class ValidationPipeline {
 public:
  /// Throws std::invalid_argument on a null judge or a config with
  /// judge_batch_size == 0 (use 1 for per-item submission).
  ValidationPipeline(toolchain::CompilerDriver compiler,
                     toolchain::Executor executor,
                     std::shared_ptr<const judge::Llmj> judge,
                     PipelineConfig config = {});

  /// Push a batch of files through the pipeline and wait for completion.
  PipelineResult run(const std::vector<frontend::SourceFile>& files) const;

  const PipelineConfig& config() const noexcept { return config_; }

 private:
  toolchain::CompilerDriver compiler_;
  toolchain::Executor executor_;
  std::shared_ptr<const judge::Llmj> judge_;
  PipelineConfig config_;
};

}  // namespace llm4vv::pipeline
