#include "pipeline/validation_pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>

#include "support/mpmc_queue.hpp"
#include "support/stopwatch.hpp"

namespace llm4vv::pipeline {

namespace {

/// Work unit flowing between stages. The compile artifacts ride along so
/// the judge stage can quote them in the agent prompt.
struct WorkItem {
  std::size_t index = 0;
  toolchain::CompileResult compile;
  toolchain::ExecutionRecord exec;
  /// When this item was pushed into the downstream queue (support::now_us),
  /// stamped only while a tracer is attached; 0 otherwise. The consumer
  /// turns it into a backdated queue-wait span ending when processing of
  /// the item starts.
  std::uint64_t queued_us = 0;
};

/// Everything one judge worker accumulates locally and merges at join.
struct JudgeLocal {
  StageStats stats;
  double gpu_seconds = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched_prompts = 0;
  std::uint64_t max_batch = 0;
  std::uint64_t persisted_hits = 0;
  std::uint64_t errors = 0;
};

/// Compile workers likewise accumulate cache counters locally.
struct CompileLocal {
  StageStats stats;
  std::uint64_t cache_hits = 0;
  std::uint64_t persisted_hits = 0;
};

/// Execute workers accumulate the VM decoder's superinstruction telemetry
/// beside their stage stats: total fused sites across the modules they ran,
/// and the largest distinct-pattern count any single module hit.
struct ExecuteLocal {
  StageStats stats;
  std::uint64_t fused_instructions = 0;
  std::uint32_t fusion_patterns = 0;
};

void merge_into(StageStats& total, const StageStats& part) {
  total.processed += part.processed;
  total.rejected += part.rejected;
  total.busy_seconds += part.busy_seconds;
}

/// Owned pipeline counters, fetched once per run: handle lookup is by name
/// under the registry mutex — too costly per item, free per run. With no
/// registry every handle stays null, so each inc() on the hot path is a
/// single branch. Names mirror the legacy PipelineResult fields one-to-one
/// (tests/obs_consistency_test.cpp asserts the totals stay equal).
struct PipelineMetrics {
  obs::Counter files;
  obs::Counter dropped;
  obs::Counter compile_processed;
  obs::Counter compile_rejected;
  obs::Counter compile_cache_hits;
  obs::Counter compile_persisted_hits;
  obs::Counter execute_processed;
  obs::Counter execute_rejected;
  obs::Counter execute_fused_instructions;
  obs::Counter judge_processed;
  obs::Counter judge_rejected;
  obs::Counter judge_cache_hits;
  obs::Counter judge_cache_misses;
  obs::Counter judge_persisted_hits;
  obs::Counter judge_errors;
  /// Items per popped judge chunk — how full the stage-3 pops ran.
  obs::Histogram judge_chunk;
};

PipelineMetrics fetch_metrics(obs::Registry* registry) {
  PipelineMetrics m;
  if (registry == nullptr) return m;
  m.files = registry->counter("pipeline.files");
  m.dropped = registry->counter("pipeline.dropped");
  m.compile_processed = registry->counter("pipeline.compile.processed");
  m.compile_rejected = registry->counter("pipeline.compile.rejected");
  m.compile_cache_hits = registry->counter("pipeline.compile.cache_hits");
  m.compile_persisted_hits =
      registry->counter("pipeline.compile.persisted_hits");
  m.execute_processed = registry->counter("pipeline.execute.processed");
  m.execute_rejected = registry->counter("pipeline.execute.rejected");
  m.execute_fused_instructions =
      registry->counter("pipeline.execute.fused_instructions");
  m.judge_processed = registry->counter("pipeline.judge.processed");
  m.judge_rejected = registry->counter("pipeline.judge.rejected");
  m.judge_cache_hits = registry->counter("pipeline.judge.cache_hits");
  m.judge_cache_misses = registry->counter("pipeline.judge.cache_misses");
  m.judge_persisted_hits = registry->counter("pipeline.judge.persisted_hits");
  m.judge_errors = registry->counter("pipeline.judge.errors");
  m.judge_chunk = registry->histogram("pipeline.judge.chunk_size",
                                      {1, 2, 4, 8, 16, 32, 64});
  return m;
}

}  // namespace

ValidationPipeline::ValidationPipeline(
    toolchain::CompilerDriver compiler, toolchain::Executor executor,
    std::shared_ptr<const judge::Llmj> judge, PipelineConfig config)
    : compiler_(std::move(compiler)),
      executor_(executor),
      judge_(std::move(judge)),
      config_(config) {
  if (judge_ == nullptr) {
    throw std::invalid_argument("ValidationPipeline: judge must not be null");
  }
  if (config_.judge_batch_size == 0) {
    throw std::invalid_argument(
        "ValidationPipeline: PipelineConfig::judge_batch_size must be >= 1 "
        "(1 = sequential per-item judging); 0 is not a valid batch size");
  }
  if (config_.compile_workers == 0) config_.compile_workers = 1;
  if (config_.execute_workers == 0) config_.execute_workers = 1;
  if (config_.judge_workers == 0) config_.judge_workers = 1;
  if (config_.stage_batch == 0) config_.stage_batch = 1;
}

PipelineResult ValidationPipeline::run(
    const std::vector<frontend::SourceFile>& files) const {
  PipelineResult result;
  result.records.resize(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    result.records[i].index = i;
  }
  if (files.empty()) return result;

  obs::Registry* const registry = config_.registry.get();
  obs::Tracer* const tracer = config_.trace.get();
  const PipelineMetrics metrics = fetch_metrics(registry);
  metrics.files.inc(files.size());
  // Run-scoped probes: the judge's client and memo-cache counters
  // re-register under "pipeline.*" for this run (the queues join below,
  // once they exist) and are unregistered after the end-of-run snapshot,
  // so a registry that outlives this pipeline never holds callbacks into
  // dead objects.
  if (registry != nullptr) {
    judge_->client().register_metrics(*registry, "pipeline.client");
    judge_->register_metrics(*registry, "pipeline.judge_cache");
  }

  const bool filter = config_.mode == PipelineMode::kFilterEarly;
  const std::size_t kStageBatch = config_.stage_batch;

  // Queue sharding: auto (0) stripes one shard per worker of the widest
  // stage, capped at 8 — enough to stop the queue mutex from serializing
  // workers without scattering a small run across mostly-empty shards —
  // and never beyond the hardware's parallelism: without concurrent
  // lock-holders, striping is pure scan overhead (measured ~15-30% on a
  // 1-core host in BM_PipelineExecuteScale).
  std::size_t shards = config_.queue_shards;
  if (shards == 0) {
    shards = std::max({config_.compile_workers, config_.execute_workers,
                       config_.judge_workers});
    const std::size_t hw = std::max<std::size_t>(
        1, std::thread::hardware_concurrency());
    shards = std::min({shards, hw, std::size_t{8}});
  }
  result.execute_dispatch = vm::dispatch_mode_name(executor_.dispatch_mode());
  result.queue_shards = shards;

  // Snapshot the judge client's batcher counters so the run can report the
  // forward passes actually formed on its behalf (assumes the client is
  // not concurrently serving unrelated traffic — true for every in-tree
  // call site, where runs on a shared client are sequential).
  const llm::ClientStats client_before = judge_->client().stats();

  support::MpmcQueue<std::size_t> compile_queue(config_.queue_capacity,
                                                shards);
  support::MpmcQueue<WorkItem> execute_queue(config_.queue_capacity, shards);
  support::MpmcQueue<WorkItem> judge_queue(config_.queue_capacity, shards);
  if (registry != nullptr) {
    compile_queue.register_metrics(*registry, "pipeline.queue.compile");
    execute_queue.register_metrics(*registry, "pipeline.queue.execute");
    judge_queue.register_metrics(*registry, "pipeline.queue.judge");
  }

  // Per-worker accumulators: each worker owns one slot and writes it once
  // at exit, so the hot loop touches no shared counter and takes no lock
  // (the old StageCounter mutex and gpu_mutex are gone). With no mutex
  // there is nothing here for the thread-safety analysis to check; the
  // cross-thread handoffs all ride on the annotated MpmcQueue, and the
  // join() barrier below publishes the locals.
  std::vector<CompileLocal> compile_locals(config_.compile_workers);
  std::vector<ExecuteLocal> execute_locals(config_.execute_workers);
  std::vector<JudgeLocal> judge_locals(config_.judge_workers);

  std::atomic<std::size_t> compile_live{config_.compile_workers};
  std::atomic<std::size_t> execute_live{config_.execute_workers};

  support::Stopwatch wall;
  // One span covers the whole run; per-file stage spans parent to it so a
  // Chrome trace groups cleanly per run even when a process runs several.
  obs::ObsSpan run_span(tracer, obs::SpanKind::kRun, 0);
  run_span.set_arg(static_cast<std::int64_t>(files.size()));
  const std::uint64_t run_span_id = run_span.id();
  std::vector<std::thread> workers;
  workers.reserve(config_.compile_workers + config_.execute_workers +
                  config_.judge_workers);

  // Stage 1: compile.
  for (std::size_t w = 0; w < config_.compile_workers; ++w) {
    workers.emplace_back([&, w] {
      CompileLocal local;
      std::vector<std::size_t> batch;
      std::vector<WorkItem> outgoing;
      batch.reserve(kStageBatch);
      outgoing.reserve(kStageBatch);
      for (;;) {
        batch.clear();
        if (compile_queue.pop_up_to(kStageBatch, batch) == 0) break;
        outgoing.clear();
        for (const std::size_t index : batch) {
          support::Stopwatch timer;
          obs::ObsSpan span(tracer, obs::SpanKind::kCompile, index + 1,
                            run_span_id);
          WorkItem item;
          item.index = index;
          item.compile = compiler_.compile(files[index]);
          span.set_arg(item.compile.success ? 1 : 0);
          span.end();
          PipelineRecord& record = result.records[index];
          record.compiled = item.compile.success;
          record.compile_rc = item.compile.return_code;
          record.compile_cached = item.compile.cached;
          if (item.compile.cached) ++local.cache_hits;
          if (item.compile.persisted) ++local.persisted_hits;
          ++local.stats.processed;
          if (!item.compile.success) ++local.stats.rejected;
          metrics.compile_processed.inc();
          if (item.compile.cached) metrics.compile_cache_hits.inc();
          if (item.compile.persisted) metrics.compile_persisted_hits.inc();
          if (!item.compile.success) metrics.compile_rejected.inc();
          local.stats.busy_seconds += timer.seconds();
          if (filter && !item.compile.success) continue;
          if (tracer != nullptr) item.queued_us = support::now_us();
          outgoing.push_back(std::move(item));
        }
        const std::size_t pushed = execute_queue.push_all(outgoing);
        for (std::size_t j = pushed; j < outgoing.size(); ++j) {
          result.records[outgoing[j].index].dropped = true;
          metrics.dropped.inc();
        }
      }
      compile_locals[w] = local;
      if (compile_live.fetch_sub(1) == 1) execute_queue.close();
    });
  }

  // Stage 2: execute.
  for (std::size_t w = 0; w < config_.execute_workers; ++w) {
    workers.emplace_back([&, w] {
      ExecuteLocal local;
      std::vector<WorkItem> batch;
      std::vector<WorkItem> outgoing;
      batch.reserve(kStageBatch);
      outgoing.reserve(kStageBatch);
      for (;;) {
        batch.clear();
        if (execute_queue.pop_up_to(kStageBatch, batch) == 0) break;
        outgoing.clear();
        for (WorkItem& item : batch) {
          if (tracer != nullptr && item.queued_us != 0) {
            // Residency in the execute queue: enqueue to processing start.
            obs::ObsSpan wait(tracer, obs::SpanKind::kQueueWait,
                              item.index + 1, run_span_id);
            wait.set_start_us(item.queued_us);
            wait.set_arg(1);
          }
          support::Stopwatch timer;
          obs::ObsSpan span(tracer, obs::SpanKind::kExecute, item.index + 1,
                            run_span_id);
          item.exec = executor_.run(item.compile.module);
          span.set_arg(item.exec.passed() ? 1 : 0);
          span.end();
          PipelineRecord& record = result.records[item.index];
          record.executed = item.exec.passed();
          record.exec_rc = item.exec.return_code;
          ++local.stats.processed;
          if (!item.exec.passed()) ++local.stats.rejected;
          metrics.execute_processed.inc();
          if (!item.exec.passed()) metrics.execute_rejected.inc();
          if (item.exec.fused_instructions > 0) {
            local.fused_instructions += item.exec.fused_instructions;
            local.fusion_patterns =
                std::max(local.fusion_patterns, item.exec.fusion_patterns);
            metrics.execute_fused_instructions.inc(
                item.exec.fused_instructions);
          }
          local.stats.busy_seconds += timer.seconds();
          if (filter && !item.exec.passed()) continue;
          if (tracer != nullptr) item.queued_us = support::now_us();
          outgoing.push_back(std::move(item));
        }
        const std::size_t pushed = judge_queue.push_all(outgoing);
        for (std::size_t j = pushed; j < outgoing.size(); ++j) {
          result.records[outgoing[j].index].dropped = true;
          metrics.dropped.inc();
        }
      }
      execute_locals[w] = local;
      if (execute_live.fetch_sub(1) == 1) judge_queue.close();
    });
  }

  // Stage 3: agent-based LLMJ, submit-then-drain. With judge_batch_size >
  // 1 the worker slices each popped chunk into submission groups and
  // submits every group asynchronously before draining any future: cache
  // misses enter the client's adaptive batcher together, and while this
  // worker blocks on its first decision other workers keep submitting —
  // so with a nonzero batcher window, cross-worker batches form naturally
  // instead of being limited to per-worker chunks.
  const std::size_t judge_batch = config_.judge_batch_size;
  for (std::size_t w = 0; w < config_.judge_workers; ++w) {
    workers.emplace_back([&, w] {
      JudgeLocal local;
      const auto record_decision = [&](const WorkItem& item,
                                       const judge::JudgeDecision& decision) {
        PipelineRecord& record = result.records[item.index];
        record.judged = true;
        record.verdict = decision.verdict;
        record.judge_says_valid = decision.says_valid;
        record.judge_cached = decision.cached;
        record.judge_persisted = decision.persisted;
        ++local.stats.processed;
        if (!decision.says_valid) ++local.stats.rejected;
        if (decision.persisted) ++local.persisted_hits;
        metrics.judge_processed.inc();
        if (!decision.says_valid) metrics.judge_rejected.inc();
        if (decision.persisted) metrics.judge_persisted_hits.inc();
        if (decision.cached) {
          ++local.cache_hits;
          metrics.judge_cache_hits.inc();
        } else {
          ++local.cache_misses;
          metrics.judge_cache_misses.inc();
          record.judge_attempts = decision.completion.attempts;
          record.judge_gpu_seconds = decision.completion.latency_seconds;
          local.gpu_seconds += decision.completion.latency_seconds;
        }
      };
      // Graceful degradation: a judge failure that survived the client's
      // retry budget becomes a recorded outcome — kind and attempt count
      // preserved — instead of a dropped record or a worker-killing throw.
      const auto record_error = [&](const WorkItem& item,
                                    const std::exception_ptr& error) {
        PipelineRecord& record = result.records[item.index];
        record.judge_error = true;
        try {
          std::rethrow_exception(error);
        } catch (const llm::ModelError& e) {
          record.judge_error_kind = e.kind();
          record.judge_attempts = e.attempts();
        } catch (...) {
          record.judge_error_kind = llm::FailureKind::kOther;
        }
        ++local.stats.processed;
        ++local.errors;
        metrics.judge_processed.inc();
        metrics.judge_errors.inc();
      };
      /// One submitted-but-not-drained chunk item.
      struct PendingJudge {
        const WorkItem* item = nullptr;
        judge::JudgeFuture future;
        judge::JudgeDecision decision;
        std::exception_ptr error;  ///< the judge gave up on this item
        std::size_t group = 0;  ///< submission-group id within the chunk
        std::uint64_t submit_us = 0;  ///< judge-span start (tracing only)
      };
      // Judge span: submission to drain, stamped when the future resolves.
      // Uncached decisions carry the simulated GPU cost and the flow id of
      // the serving batcher flush, so exporters can link each request back
      // to the forward pass that served it.
      const auto trace_judge = [&](const PendingJudge& entry) {
        if (tracer == nullptr) return;
        obs::ObsSpan span(tracer, obs::SpanKind::kJudge,
                          entry.item->index + 1, run_span_id);
        span.set_start_us(entry.submit_us);
        if (entry.error != nullptr) {
          span.set_arg(-1);
        } else {
          span.set_arg(static_cast<std::int64_t>(entry.decision.verdict));
          if (!entry.decision.cached) {
            span.set_gpu_seconds(entry.decision.completion.latency_seconds);
            span.set_flow(entry.decision.completion.trace_flow);
          }
        }
      };
      std::vector<WorkItem> batch;
      std::vector<judge::JudgeRequest> requests;
      std::vector<PendingJudge> pending;
      batch.reserve(kStageBatch);
      requests.reserve(judge_batch);
      pending.reserve(kStageBatch);
      for (;;) {
        batch.clear();
        if (judge_queue.pop_up_to(kStageBatch, batch) == 0) break;
        metrics.judge_chunk.observe(batch.size());
        if (tracer != nullptr) {
          // Residency in the judge queue: enqueue to chunk pickup.
          for (const WorkItem& item : batch) {
            if (item.queued_us == 0) continue;
            obs::ObsSpan wait(tracer, obs::SpanKind::kQueueWait,
                              item.index + 1, run_span_id);
            wait.set_start_us(item.queued_us);
            wait.set_arg(2);
          }
        }
        if (judge_batch <= 1) {
          // Sequential per-item path: the paper's one-call-per-file
          // accounting (each call is its own immediate flush when the
          // batcher window is pinned to 0).
          for (const WorkItem& item : batch) {
            support::Stopwatch timer;
            obs::ObsSpan span(tracer, obs::SpanKind::kJudge, item.index + 1,
                              run_span_id);
            try {
              const judge::JudgeDecision decision =
                  judge_->evaluate(files[item.index], &item.compile,
                                   &item.exec, config_.judge_seed);
              span.set_arg(static_cast<std::int64_t>(decision.verdict));
              if (!decision.cached) {
                span.set_gpu_seconds(decision.completion.latency_seconds);
                span.set_flow(decision.completion.trace_flow);
              }
              span.end();
              local.stats.busy_seconds += timer.seconds();
              record_decision(item, decision);
            } catch (...) {
              span.set_arg(-1);
              span.end();
              local.stats.busy_seconds += timer.seconds();
              record_error(item, std::current_exception());
            }
          }
          continue;
        }
        support::Stopwatch timer;
        // Submit every group of the chunk first...
        pending.clear();
        std::size_t groups = 0;
        for (std::size_t start = 0; start < batch.size();
             start += judge_batch, ++groups) {
          const std::size_t end =
              std::min(batch.size(), start + judge_batch);
          requests.clear();
          for (std::size_t i = start; i < end; ++i) {
            requests.push_back(judge::JudgeRequest{
                &files[batch[i].index], &batch[i].compile, &batch[i].exec});
          }
          const std::uint64_t group_submit_us =
              tracer != nullptr ? support::now_us() : 0;
          auto futures =
              judge_->evaluate_async_many(requests, config_.judge_seed);
          for (std::size_t i = start; i < end; ++i) {
            PendingJudge entry;
            entry.item = &batch[i];
            entry.future = std::move(futures[i - start]);
            entry.group = groups;
            entry.submit_us = group_submit_us;
            pending.push_back(std::move(entry));
          }
        }
        // ...then drain: futures this worker owns first, duplicates of
        // other workers' in-flight keys second — the owners publish before
        // anyone waits, so two workers holding duplicates of each other's
        // claims cannot deadlock.
        for (PendingJudge& entry : pending) {
          if (!entry.future.waits_on_peer()) {
            try {
              entry.decision = entry.future.get();
            } catch (...) {
              entry.error = std::current_exception();
            }
            trace_judge(entry);
          }
        }
        for (PendingJudge& entry : pending) {
          if (entry.future.waits_on_peer()) {
            try {
              entry.decision = entry.future.get();
            } catch (...) {
              entry.error = std::current_exception();
            }
            trace_judge(entry);
          }
        }
        local.stats.busy_seconds += timer.seconds();
        // Per-group accounting of the popped-chunk view: count only
        // decisions whose model call rode the batch submission API —
        // cache hits, dedup copies, and rare sequential fallbacks (a
        // waiter taking over an abandoned key) are not batched prompts.
        // The forward-pass truth comes from the client's flush counters,
        // snapshotted around the whole run.
        for (std::size_t g = 0; g < groups; ++g) {
          std::uint64_t submitted = 0;
          for (const PendingJudge& entry : pending) {
            if (entry.group == g && entry.decision.batched) ++submitted;
          }
          if (submitted > 0) {
            ++local.batches;
            local.batched_prompts += submitted;
            local.max_batch = std::max(local.max_batch, submitted);
          }
        }
        for (const PendingJudge& entry : pending) {
          if (entry.error != nullptr) {
            record_error(*entry.item, entry.error);
          } else {
            record_decision(*entry.item, entry.decision);
          }
        }
      }
      judge_locals[w] = local;
    });
  }

  // Feed the first stage in bulk, then signal end-of-input. push_all blocks
  // on back-pressure, so arbitrarily large batches are safe here.
  {
    std::vector<std::size_t> indices(files.size());
    for (std::size_t i = 0; i < files.size(); ++i) indices[i] = i;
    compile_queue.push_all(indices);
    compile_queue.close();
  }

  for (auto& worker : workers) worker.join();

  for (auto& record : result.records) {
    record.pipeline_says_valid =
        record.compiled && record.executed && record.judged &&
        record.judge_says_valid;
    if (record.dropped) ++result.dropped_items;
  }
  for (const auto& local : compile_locals) {
    merge_into(result.compile_stage, local.stats);
    result.compile_cache_hits += local.cache_hits;
    result.compile_persisted_hits += local.persisted_hits;
  }
  for (const auto& local : execute_locals) {
    merge_into(result.execute_stage, local.stats);
    result.execute_fused_instructions += local.fused_instructions;
    result.execute_fusion_patterns =
        std::max(result.execute_fusion_patterns, local.fusion_patterns);
  }
  for (const auto& local : judge_locals) {
    merge_into(result.judge_stage, local.stats);
    result.judge_gpu_seconds += local.gpu_seconds;
    result.judge_cache_hits += local.cache_hits;
    result.judge_cache_misses += local.cache_misses;
    result.judge_batches += local.batches;
    result.judge_batched_prompts += local.batched_prompts;
    result.judge_max_batch = std::max(result.judge_max_batch, local.max_batch);
    result.judge_persisted_hits += local.persisted_hits;
    result.judge_errors += local.errors;
  }
  // Batcher truth: occupancy and flush telemetry come from the client's
  // counters, windowed over this run — batches are counted as the model
  // actually formed them, not as the judge workers' popped chunks happened
  // to slice them (a pass coalescing several workers' groups counts once,
  // at its true size).
  const llm::ClientStats client_after = judge_->client().stats();
  result.judge_formed_batches =
      client_after.formed_batches - client_before.formed_batches;
  result.judge_flush_immediate =
      client_after.flush_immediate - client_before.flush_immediate;
  result.judge_flush_full =
      client_after.flush_full - client_before.flush_full;
  result.judge_flush_window =
      client_after.flush_window - client_before.flush_window;
  for (std::size_t b = 0; b < llm::ClientStats::kOccupancyBuckets; ++b) {
    result.judge_occupancy_hist[b] =
        client_after.occupancy_hist[b] - client_before.occupancy_hist[b];
  }
  result.judge_queue_depth_peak = client_after.pending_high_water;
  result.judge_retries = client_after.retries - client_before.retries;
  result.judge_timeouts = client_after.timeouts - client_before.timeouts;
  result.judge_shed = client_after.pending_shed - client_before.pending_shed;
  result.breaker_opens =
      client_after.breaker_opens - client_before.breaker_opens;
  for (std::size_t b = 0; b < llm::ClientStats::kRetryLatencyBuckets; ++b) {
    result.judge_retry_latency_hist[b] =
        client_after.retry_latency_hist[b] -
        client_before.retry_latency_hist[b];
  }
  result.queue_steals =
      compile_queue.steals() + execute_queue.steals() + judge_queue.steals();
  const std::uint64_t formed_batched =
      client_after.batches - client_before.batches;
  const std::uint64_t formed_prompts =
      client_after.batched_prompts - client_before.batched_prompts;
  if (formed_batched > 0) {
    result.judge_batch_occupancy = static_cast<double>(formed_prompts) /
                                   static_cast<double>(formed_batched);
  }
  run_span.set_gpu_seconds(result.judge_gpu_seconds);
  run_span.end();
  // Snapshot while the run-scoped probes (client, judge cache, queues) are
  // still live, then drop them: the queues die with this frame, and the
  // client/cache probes must not outlive the pipeline into a longer-lived
  // registry.
  if (registry != nullptr) {
    result.metrics = registry->snapshot();
    registry->unregister_prefix("pipeline.client.");
    registry->unregister_prefix("pipeline.judge_cache.");
    registry->unregister_prefix("pipeline.queue.");
  }
  result.wall_seconds = wall.seconds();
  return result;
}

}  // namespace llm4vv::pipeline
