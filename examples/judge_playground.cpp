// Judge playground: one file, all three judge configurations, with the
// full prompt/completion transcripts — the quickest way to see what the
// LLM-as-a-Judge layer actually does.
//
// Build & run:  ./build/examples/judge_playground
//
// Persistent caching (the PR 3 artifact store) is exercisable from here:
//   --cache-file <path>   back the judges with a content-addressed store
//                         loaded from <path> (warm hits skip the simulated
//                         model calls entirely)
//   --cache-save          save the store, which holds every decision the
//                         judges wrote through, back to the file on exit
//                         (atomic write-temp-then-rename)
// Run twice with both flags: the first run computes and saves, the second
// reports every verdict as a persisted cache hit.
//
// The model client's adaptive batcher (the PR 4 async submission API) is
// drivable from here too:
//   --batch-max <N>        flush as soon as N requests are pending (0 = no
//                          cap, the default)
//   --batch-window-us <T>  let a pending request wait up to T microseconds
//                          for the batch to fill (0 = flush immediately,
//                          the paper-mode default)
// With a nonzero window the three judges' submissions for each file
// coalesce into one batched forward pass — watch the batcher summary on
// stderr report fuller flushes and cheaper simulated passes.
//
// The resilience layer (PR 6) is drivable from here as well. Fault
// injection (seeded, deterministic — same flags, same faults):
//   --fault-transient <p>  per-(prompt, attempt) transient failure rate
//   --fault-permanent <p>  per-prompt permanent failure rate
//   --fault-slow <p>       slow-trickle rate (latency x --fault-slow-factor)
//   --fault-slow-factor <f>  latency multiplier for slow faults (default 8)
//   --fault-seed <s>       reseed the fault plan
// And the client's answer to it:
//   --retry-attempts <n>   total forward-pass attempts per request (1 = no
//                          retries, the paper-mode default)
//   --retry-backoff-us <t> base exponential backoff between attempts
//   --retry-deadline-us <t> per-request wall-clock deadline (0 = none)
//   --breaker              enable the circuit breaker
//   --max-pending <n>      bound the batcher's pending queue (0 = unbounded)
//   --overflow-block       block submitters at the bound instead of
//                          shedding (needs --batch-window-us > 0)
// Try:  judge_playground --fault-transient 0.5 --retry-attempts 4
// and watch judges ride through faults (completions are byte-identical to
// a fault-free run); drop --retry-attempts and the same faults surface as
// judge errors in the summary instead of crashing the playground.
//
// Observability (the PR 8 obs/ subsystem, docs/OBSERVABILITY.md):
//   --trace-out <path>     export a Chrome trace-event JSON of the run
//                          (judge spans plus the client's flush / retry /
//                          backoff spans). `-` writes the JSON to stdout
//                          and moves the human report to stderr, so
//                          `--trace-out=- | tools/check_trace.py -` pipes
//                          clean JSON.
//   --trace-jsonl <path>   same spans as a JSONL log (one object per line)
//   --metrics-dump         dump the metrics registry (client, judges, and
//                          store re-registered as probes) to stderr in
//                          Prometheus text format at exit
// Telemetry summaries (batcher, resilience, metrics) always go to stderr;
// stdout stays the demo's report — or pure trace JSON under --trace-out=-.
#include <cstdio>

#include "core/llm4vv.hpp"
#include "examples/obs_flags.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "support/cli.hpp"
#include "support/strings.hpp"

int main(int argc, char** argv) {
  using namespace llm4vv;

  const support::CliArgs args(argc, argv);
  const std::string cache_file = args.get("cache-file", "");
  const bool cache_save = args.has("cache-save");
  const auto obs_flags = examples::ObsFlags::parse(args);
  const bool metrics_dump = obs_flags.metrics_dump();
  // Human report: stdout normally, stderr when the trace JSON owns stdout.
  std::FILE* const report = obs_flags.report();
  llm::BatcherConfig batcher;
  batcher.max_batch =
      static_cast<std::size_t>(args.get_int("batch-max", 0));
  batcher.window_us =
      static_cast<std::uint64_t>(args.get_int("batch-window-us", 0));
  batcher.max_pending =
      static_cast<std::size_t>(args.get_int("max-pending", 0));
  batcher.overflow = args.has("overflow-block") ? llm::OverflowPolicy::kBlock
                                                : llm::OverflowPolicy::kShed;

  llm::FaultPlanConfig fault_config;
  fault_config.transient_rate = args.get_double("fault-transient", 0.0);
  fault_config.permanent_rate = args.get_double("fault-permanent", 0.0);
  fault_config.slow_rate = args.get_double("fault-slow", 0.0);
  fault_config.slow_latency_factor =
      args.get_double("fault-slow-factor", fault_config.slow_latency_factor);
  fault_config.seed = static_cast<std::uint64_t>(args.get_int(
      "fault-seed", static_cast<std::int64_t>(fault_config.seed)));
  const bool faults_on = fault_config.transient_rate > 0.0 ||
                         fault_config.permanent_rate > 0.0 ||
                         fault_config.slow_rate > 0.0;

  llm::RetryPolicy retry;
  retry.max_attempts =
      static_cast<std::uint32_t>(args.get_int("retry-attempts", 1));
  retry.base_backoff_us = static_cast<std::uint64_t>(
      args.get_int("retry-backoff-us",
                   static_cast<std::int64_t>(retry.base_backoff_us)));
  retry.deadline_us =
      static_cast<std::uint64_t>(args.get_int("retry-deadline-us", 0));

  llm::CircuitBreakerConfig breaker;
  breaker.enabled = args.has("breaker");

  // A valid OpenMP target test, then a mutated (invalid) twin.
  const auto valid = corpus::generate_one("sum_reduction",
                                          frontend::Flavor::kOpenMP,
                                          frontend::Language::kC, 5);
  support::Rng rng(17);
  const auto mutated_content = probing::apply_mutation(
      valid.file.content, valid.file.language,
      probing::IssueType::kUndeclaredVariable, {}, rng);
  frontend::SourceFile invalid = valid.file;
  invalid.content = mutated_content.value_or(valid.file.content);

  const toolchain::CompilerDriver driver(toolchain::clang_persona());
  const toolchain::Executor executor;
  // Keep a transcript ring so we can print the conversations afterwards.
  llm::CoderModelConfig model_config;
  std::shared_ptr<const llm::FaultPlan> fault_plan;
  if (faults_on) {
    fault_plan = std::make_shared<const llm::FaultPlan>(fault_config);
    model_config.faults = fault_plan;
    std::fprintf(report,
                 "faults: transient %.0f%%, permanent %.0f%%, slow %.0f%% "
                 "(x%.1f latency), seed 0x%llx; retries: %u attempt(s)%s%s\n\n",
                 fault_config.transient_rate * 100,
                 fault_config.permanent_rate * 100,
                 fault_config.slow_rate * 100,
                 fault_config.slow_latency_factor,
                 static_cast<unsigned long long>(fault_config.seed),
                 retry.max_attempts,
                 retry.deadline_us > 0 ? ", deadline set" : "",
                 breaker.enabled ? ", breaker on" : "");
  }
  auto model = std::make_shared<const llm::SimulatedCoderModel>(model_config);
  auto client = std::make_shared<llm::ModelClient>(model, 3,
                                                   /*transcripts=*/16,
                                                   batcher, retry, breaker);

  const std::shared_ptr<obs::Tracer>& tracer = obs_flags.tracer();
  if (tracer != nullptr) client->set_tracer(tracer);
  obs::Registry registry;
  if (metrics_dump) client->register_metrics(registry, "llm.client");

  // One store shared by all three judges; records are keyed by prompt
  // style, so they never cross-serve. The fingerprint pins the model —
  // swap the model and the old file cold-starts instead of lying.
  std::shared_ptr<cache::ArtifactStore> store;
  if (!cache_file.empty()) {
    cache::ArtifactStoreConfig store_config;
    store_config.path = cache_file;
    store_config.fingerprint =
        cache::StoreFingerprint{"judge-playground", client->model_name(), 0};
    store = std::make_shared<cache::ArtifactStore>(store_config);
    const auto& load = store->load_report();
    if (load.cold_start) {
      std::fprintf(report, "cache: %s cold-started (%s)\n\n",
                   cache_file.c_str(), load.cold_start_reason.c_str());
    } else {
      std::fprintf(report,
                   "cache: %s loaded %zu records (%zu corrupt records "
                   "skipped)\n\n",
                   cache_file.c_str(), load.loaded, load.corrupt_records);
    }
    if (metrics_dump) store->register_metrics(registry, "cache.store");
  }

  judge::JudgeCacheConfig judge_cache;
  judge_cache.store = store;
  std::vector<std::shared_ptr<const judge::Llmj>> judges;
  for (const auto style :
       {llm::PromptStyle::kDirectAnalysis, llm::PromptStyle::kAgentDirect,
        llm::PromptStyle::kAgentIndirect}) {
    judges.push_back(
        std::make_shared<const judge::Llmj>(client, style, judge_cache));
  }
  if (metrics_dump) {
    for (const auto& llmj : judges) {
      llmj->register_metrics(registry,
                             std::string("judge.") + llmj->name());
    }
  }

  std::uint64_t file_no = 0;
  for (const frontend::SourceFile* file : {&valid.file,
                                           const_cast<const frontend::SourceFile*>(&invalid)}) {
    ++file_no;
    const bool is_valid = file == &valid.file;
    std::fprintf(report, "=== %s file: %s ===\n",
                 is_valid ? "VALID" : "MUTATED (undeclared variable)",
                 file->name.c_str());
    const auto compiled = driver.compile(*file);
    const auto ran = executor.run(compiled.module);
    std::fprintf(report, "tools: compiler rc=%d, program rc=%d\n",
                 compiled.return_code, ran.ran ? ran.return_code : -1);
    // Submit all three judges asynchronously before draining: with a
    // nonzero --batch-window-us their misses coalesce into one batched
    // forward pass (with the default window of 0 each is its own
    // immediate flush, exactly like the old blocking loop).
    std::vector<judge::JudgeFuture> futures;
    for (const auto& llmj : judges) {
      const auto request =
          llmj->style() == llm::PromptStyle::kDirectAnalysis
              ? judge::JudgeRequest{file}
              : judge::JudgeRequest{file, &compiled, &ran};
      futures.push_back(llmj->evaluate_async(request));
    }
    for (std::size_t j = 0; j < judges.size(); ++j) {
      obs::ObsSpan span(tracer.get(), obs::SpanKind::kJudge, file_no);
      try {
        const auto decision = futures[j].get();
        span.set_arg(static_cast<std::int64_t>(decision.verdict));
        if (!decision.cached) {
          span.set_gpu_seconds(decision.completion.latency_seconds);
          span.set_flow(decision.completion.trace_flow);
        }
        span.end();
        std::fprintf(report,
                     "  %-16s -> %-9s (%zu prompt + %zu completion tokens, "
                     "%.1f s simulated%s%s)\n",
                     judges[j]->name(), judge::verdict_name(decision.verdict),
                     decision.completion.prompt_tokens,
                     decision.completion.completion_tokens,
                     decision.completion.latency_seconds,
                     decision.persisted ? ", persisted cache hit"
                     : decision.cached ? ", cache hit"
                                       : "",
                     decision.completion.attempts > 1 ? ", retried" : "");
      } catch (const llm::ModelError& e) {
        // Graceful degradation, exactly like the pipeline's judge stage:
        // a failed judge is a recorded outcome, not a crash.
        span.set_arg(-1);
        span.end();
        std::fprintf(report,
                     "  %-16s -> JUDGE ERROR (%s after %u attempt(s): %s)\n",
                     judges[j]->name(), llm::failure_kind_name(e.kind()),
                     e.attempts(), e.what());
      }
    }
    std::fprintf(report, "\n");
  }

  // Show one full conversation: the last agent-indirect exchange. (On a
  // fully warm cache no model call happened, so there may be none.)
  const auto transcripts = client->transcripts();
  if (!transcripts.empty()) {
    const auto& last = transcripts.back();
    std::fprintf(report, "--- last prompt (first 18 lines) ---\n");
    const auto lines = support::split_lines(last.prompt);
    for (std::size_t i = 0; i < lines.size() && i < 18; ++i) {
      std::fprintf(report, "| %s\n", lines[i].c_str());
    }
    std::fprintf(report, "--- completion ---\n%s\n",
                 last.completion.text.c_str());
  } else {
    std::fprintf(report,
                 "--- no model calls: every verdict came from the "
                 "persistent cache ---\n");
  }

  // Adaptive-batcher summary: how the submissions above were actually
  // flushed into forward passes. Telemetry goes to stderr so stdout stays
  // pipeable (the demo report, or pure trace JSON under --trace-out=-).
  {
    const auto stats = client->stats();
    std::fprintf(stderr,
                 "\nbatcher (max_batch=%zu, window=%llu us): "
                 "%llu passes (%llu immediate, %llu full, %llu window, "
                 "%llu idle), "
                 "%llu batched prompts, peak queue depth %zu\n",
                 batcher.max_batch,
                 static_cast<unsigned long long>(batcher.window_us),
                 static_cast<unsigned long long>(stats.formed_batches),
                 static_cast<unsigned long long>(stats.flush_immediate),
                 static_cast<unsigned long long>(stats.flush_full),
                 static_cast<unsigned long long>(stats.flush_window),
                 static_cast<unsigned long long>(stats.flush_idle),
                 static_cast<unsigned long long>(stats.batched_prompts),
                 stats.pending_high_water);
    std::fprintf(stderr, "occupancy histogram:");
    for (std::size_t b = 0; b < llm::ClientStats::kOccupancyBuckets; ++b) {
      if (stats.occupancy_hist[b] == 0) continue;
      std::fprintf(stderr, " [%s]=%llu",
                   llm::ClientStats::occupancy_bucket_label(b),
                   static_cast<unsigned long long>(stats.occupancy_hist[b]));
    }
    std::fprintf(stderr, "\n");

    // Resilience summary: only interesting when faults / retries /
    // backpressure / the breaker were actually in play.
    if (faults_on || retry.max_attempts > 1 || breaker.enabled ||
        batcher.max_pending > 0) {
      std::fprintf(stderr,
                   "resilience: %llu served, %llu failed "
                   "(%llu timeouts, %llu shed), %llu retries, "
                   "%llu batch splits, %llu breaker opens "
                   "(%llu fast rejections)\n",
                   static_cast<unsigned long long>(stats.requests),
                   static_cast<unsigned long long>(stats.failed_requests),
                   static_cast<unsigned long long>(stats.timeouts),
                   static_cast<unsigned long long>(stats.pending_shed),
                   static_cast<unsigned long long>(stats.retries),
                   static_cast<unsigned long long>(stats.batch_splits),
                   static_cast<unsigned long long>(stats.breaker_opens),
                   static_cast<unsigned long long>(stats.breaker_rejected));
      if (fault_plan != nullptr) {
        const auto fault_stats = fault_plan->stats();
        std::fprintf(stderr,
                     "fault plan drew: %llu transient, %llu permanent, "
                     "%llu slow\n",
                     static_cast<unsigned long long>(fault_stats.transient),
                     static_cast<unsigned long long>(fault_stats.permanent),
                     static_cast<unsigned long long>(fault_stats.slow));
      }
      std::fprintf(stderr, "retry latency histogram:");
      bool any = false;
      for (std::size_t b = 0; b < llm::ClientStats::kRetryLatencyBuckets;
           ++b) {
        if (stats.retry_latency_hist[b] == 0) continue;
        any = true;
        std::fprintf(
            stderr, " [%s]=%llu",
            llm::ClientStats::retry_latency_bucket_label(b),
            static_cast<unsigned long long>(stats.retry_latency_hist[b]));
      }
      std::fprintf(stderr, any ? "\n" : " (no retried requests)\n");
    }
  }

  if (store != nullptr && cache_save) {
    // The judges wrote every decision through to the store as they made
    // it; saving puts the store's records on disk.
    if (store->save()) {
      std::fprintf(report, "\ncache: persisted %zu records to %s\n",
                   store->size(), cache_file.c_str());
    } else {
      std::fprintf(report, "\ncache: SAVE FAILED: %s\n",
                   store->last_error().c_str());
      return 1;
    }
  }

  if (!obs_flags.finish(&registry)) return 1;
  return 0;
}
