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
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
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
        "(1 = per-item submission); 0 is not a valid batch size");
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

  // The start of the judge client's window (PipelineResult::judge_client).
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
          local.stats.busy_seconds += timer.seconds();
          if (filter && !item.compile.success) continue;
          if (tracer != nullptr) item.queued_us = support::now_us();
          outgoing.push_back(std::move(item));
        }
        const std::size_t pushed = execute_queue.push_all(outgoing);
        for (std::size_t j = pushed; j < outgoing.size(); ++j) {
          result.records[outgoing[j].index].dropped = true;
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
          if (item.exec.fused_instructions > 0) {
            local.fused_instructions += item.exec.fused_instructions;
            local.fusion_patterns =
                std::max(local.fusion_patterns, item.exec.fusion_patterns);
          }
          local.stats.busy_seconds += timer.seconds();
          if (filter && !item.exec.passed()) continue;
          if (tracer != nullptr) item.queued_us = support::now_us();
          outgoing.push_back(std::move(item));
        }
        const std::size_t pushed = judge_queue.push_all(outgoing);
        for (std::size_t j = pushed; j < outgoing.size(); ++j) {
          result.records[outgoing[j].index].dropped = true;
        }
      }
      execute_locals[w] = local;
      if (execute_live.fetch_sub(1) == 1) judge_queue.close();
    });
  }

  // Stage 3: agent-based LLMJ. Each popped chunk goes through
  // Llmj::judge_chunk in groups of judge_batch_size: every group is
  // submitted before the worker waits on any decision, so with a nonzero
  // batcher window the misses of several workers coalesce into shared
  // passes.
  for (std::size_t w = 0; w < config_.judge_workers; ++w) {
    workers.emplace_back([&, w] {
      JudgeLocal local;
      std::vector<WorkItem> batch;
      std::vector<judge::JudgeRequest> requests;
      batch.reserve(kStageBatch);
      requests.reserve(kStageBatch);
      const judge::Llmj::ChunkCallback record_outcome =
          [&](std::size_t i, const judge::JudgeDecision* decision,
              const llm::ModelError* error) {
            PipelineRecord& record = result.records[batch[i].index];
            ++local.stats.processed;
            if (error != nullptr) {
              // Graceful degradation: a judge failure that survived the
              // client's retry budget becomes a recorded outcome — kind and
              // attempt count preserved — instead of a dropped record or a
              // worker-killing throw.
              record.judge_error = true;
              record.judge_error_kind = error->kind();
              record.judge_attempts = error->attempts();
              ++local.errors;
              return;
            }
            record.judged = true;
            record.verdict = decision->verdict;
            record.judge_says_valid = decision->says_valid;
            record.judge_cached = decision->cached;
            record.judge_persisted = decision->persisted;
            if (!decision->says_valid) ++local.stats.rejected;
            if (decision->persisted) ++local.persisted_hits;
            if (decision->cached) {
              ++local.cache_hits;
            } else {
              ++local.cache_misses;
              record.judge_attempts = decision->completion.attempts;
              record.judge_gpu_seconds = decision->completion.latency_seconds;
            }
          };
      for (;;) {
        batch.clear();
        if (judge_queue.pop_up_to(kStageBatch, batch) == 0) break;
        requests.clear();
        for (const WorkItem& item : batch) {
          if (tracer != nullptr && item.queued_us != 0) {
            // Residency in the judge queue: enqueue to chunk pickup.
            obs::ObsSpan wait(tracer, obs::SpanKind::kQueueWait,
                              item.index + 1, run_span_id);
            wait.set_start_us(item.queued_us);
            wait.set_arg(2);
          }
          requests.push_back(judge::JudgeRequest{
              &files[item.index], &item.compile, &item.exec, item.index + 1});
        }
        support::Stopwatch timer;
        judge_->judge_chunk(requests, config_.judge_batch_size,
                            config_.judge_seed, record_outcome, tracer,
                            run_span_id);
        local.stats.busy_seconds += timer.seconds();
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

  // GPU seconds are summed here, in file order, not per judge worker:
  // floating-point addition is not associative, and the split of records
  // between workers varies from run to run.
  for (auto& record : result.records) {
    record.pipeline_says_valid =
        record.compiled && record.executed && record.judged &&
        record.judge_says_valid;
    if (record.dropped) ++result.dropped_items;
    result.judge_gpu_seconds += record.judge_gpu_seconds;
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
    result.judge_cache_hits += local.cache_hits;
    result.judge_cache_misses += local.cache_misses;
    result.judge_persisted_hits += local.persisted_hits;
    result.judge_errors += local.errors;
  }
  // Batcher truth: passes count as the client formed them, so a pass
  // coalescing several workers' groups counts once, at its true size.
  result.judge_client = judge_->client().stats().since(client_before);
  result.queue_steals =
      compile_queue.steals() + execute_queue.steals() + judge_queue.steals();
  run_span.set_gpu_seconds(result.judge_gpu_seconds);
  run_span.end();
  // Publish this run's totals, snapshot while the run-scoped probes
  // (client, judge cache, queues) are still live, then drop them: the
  // queues die with this frame, and the client/cache probes must not
  // outlive the pipeline into a longer-lived registry.
  if (registry != nullptr) {
#define LLM4VV_PUBLISH(name, member) \
  registry->counter("pipeline." name).inc(result.member);
    LLM4VV_PIPELINE_COUNTERS(LLM4VV_PUBLISH)
#undef LLM4VV_PUBLISH
    result.metrics = registry->snapshot();
    registry->unregister_prefix("pipeline.client.");
    registry->unregister_prefix("pipeline.judge_cache.");
    registry->unregister_prefix("pipeline.queue.");
  }
  result.wall_seconds = wall.seconds();
  return result;
}

}  // namespace llm4vv::pipeline
