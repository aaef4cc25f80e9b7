// The three pipeline workloads (paper-record-all, triage-filter,
// warm-rerun), their shared measurement loop, the sequential paper-mode
// oracle and the single-thread replay that splits compile and judge time
// into their parts.

#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "cache/artifact_store.hpp"
#include "cache/compile_cache.hpp"
#include "core/experiments.hpp"
#include "corpus/generator.hpp"
#include "directive/validator.hpp"
#include "frontend/lexer.hpp"
#include "frontend/parser.hpp"
#include "frontend/sema.hpp"
#include "judge/judge.hpp"
#include "judge/prompt.hpp"
#include "llm/coder_model.hpp"
#include "llm/perception.hpp"
#include "llm/tokenizer.hpp"
#include "obs/trace.hpp"
#include "pipeline/validation_pipeline.hpp"
#include "probing/prober.hpp"
#include "support/rng.hpp"
#include "vm/lower.hpp"
#include "layers.hpp"
#include "stats.hpp"
#include "workload_common.hpp"

namespace e2ebench {

using namespace llm4vv;
using frontend::Flavor;
using llm::PromptStyle;

namespace {

/// Passes run at least during warm-up, and measured at least.
constexpr int kWarmupPasses = 2;
constexpr std::size_t kMinPasses = 10;

/// One measured pass of a pipeline workload.
struct PassSample {
  double setup_s = 0.0;
  double wall_s = 0.0;   ///< timed region
  double cpu_s = 0.0;    ///< process user+sys over the timed region
  double files = 0.0;    ///< input files that reached a final verdict
  double gpu_s = 0.0;    ///< simulated GPU seconds the judge spent
  double bottleneck_s = 0.0;  ///< busiest stage's busy time, summed over legs
};

using PassFn = std::function<PassSample()>;

}  // namespace

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"files_per_s", "1/s"},       {"sim_gpu_s_per_file", "sim_s"},
      {"cpu_ms_per_file", "ms"},    {"p50_ms", "ms"},
      {"max_rate_per_s", "1/s"},    {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"frontend.lex_us", "us"},
      {"frontend.parse_us", "us"},
      {"frontend.sema_us", "us"},
      {"directive.validate_us", "us"},
      {"vm.lower_us", "us"},
      {"vm.execute_us", "us"},
      {"vm.steps_per_file", "count"},
      {"vm.msteps_per_s", "Msteps/s"},
      {"toolchain.compile_us", "us"},
      {"toolchain.compile_reject_share", "ratio"},
      {"toolchain.exec_fail_share", "ratio"},
      {"judge.prompt_us", "us"},
      {"judge.prompt_tokens", "count"},
      {"judge.verdict_us", "us"},
      {"judge.self_us", "us"},
      {"judge.cache_hit_rate", "ratio"},
      {"llm.perceive_us", "us"},
      {"llm.count_tokens_us", "us"},
      {"llm.generate_us", "us"},
      {"llm.calls_per_file", "count"},
      {"llm.batch_occupancy", "count"},
      {"llm.batch_wait_us", "us"},
      {"pipeline.compile_busy_share", "ratio"},
      {"pipeline.execute_busy_share", "ratio"},
      {"pipeline.judge_busy_share", "ratio"},
      {"pipeline.queue_wait_us", "us"},
      {"pipeline.unattributed_share", "ratio"},
      {"cache.load_ms", "ms"},
      {"cache.save_ms", "ms"},
      {"cache.judge_persisted_hit_rate", "ratio"},
      {"cache.compile_hit_rate", "ratio"},
      {"cache.store_mb", "MB"},
      {"serve.server_us", "us"},
      {"serve.queue_wait_us", "us"},
      {"serve.transport_us", "us"},
      {"serve.shed_share", "ratio"},
      {"serve.generator_lag_ms", "ms"},
      {"obs.tracing_overhead_share", "ratio"},
  };
  return kMetrics;
}

// ---------------------------------------------------------------------------
// Inputs and oracle
// ---------------------------------------------------------------------------

namespace {

core::ExperimentOptions experiment_options(std::uint64_t seed) {
  // Seed 0 is the paper's own Part Two suites; other seeds re-draw the
  // corpus and the probing with the same per-class counts.
  core::ExperimentOptions options;
  options.corpus_seed += seed * 0x9E3779B97F4A7C15ULL;
  options.probe_seed_offset = seed;
  return options;
}

}  // namespace

Group part_two_group(Flavor flavor, std::uint64_t seed) {
  Group group;
  group.persona = flavor == Flavor::kOpenACC ? toolchain::nvc_persona()
                                             : toolchain::clang_persona();
  const auto suite = core::build_part_two_suite(flavor, experiment_options(seed));
  for (const auto& probed : suite.files) group.files.push_back(probed.file);
  return group;
}

namespace {

/// Sequential paper mode: record-all, one worker per stage,
/// judge_batch_size 1, batcher window 0, judge and compile caches off.
std::vector<Expected> oracle(const Group& group, PromptStyle style,
                             std::uint64_t judge_seed) {
  auto client = core::make_simulated_client(1);
  judge::JudgeCacheConfig cache;
  cache.enabled = false;
  auto judge = std::make_shared<const judge::Llmj>(client, style, cache);
  pipeline::PipelineConfig config;
  config.mode = pipeline::PipelineMode::kRecordAll;
  config.judge_batch_size = 1;
  config.judge_seed = judge_seed;
  const pipeline::ValidationPipeline pipe(toolchain::CompilerDriver(group.persona),
                                          toolchain::Executor(), judge, config);
  const auto result = pipe.run(group.files);
  std::vector<Expected> expected(result.records.size());
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    const auto& record = result.records[i];
    expected[i] = Expected{record.compiled, record.compile_rc, record.exec_rc,
                           record.executed, record.verdict,
                           record.judge_gpu_seconds};
  }
  return expected;
}

/// Per-file comparison of a pipeline run with the oracle.
void compare(const pipeline::PipelineResult& run,
             const std::vector<Expected>& expected, bool filter_early,
             const std::string& label, Result& out) {
  if (run.records.size() != expected.size()) {
    out.mismatch(label + ": record count differs from the oracle");
    return;
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto& record = run.records[i];
    const Expected& want = expected[i];
    const bool should_execute = !filter_early || want.compiled;
    const bool should_judge = !filter_early || want.passed;
    std::string what;
    if (record.dropped) what = "dropped";
    else if (record.judge_error) what = "judge error";
    else if (record.compiled != want.compiled || record.compile_rc != want.compile_rc)
      what = "compile outcome";
    else if (should_execute && record.exec_rc != want.exec_rc) what = "exec rc";
    else if (record.judged != should_judge) what = "judged or not";
    else if (should_judge && record.verdict != want.verdict) what = "verdict";
    if (!what.empty()) out.mismatch(label + " file " + std::to_string(i) + ": " + what);
  }
}

double judge_gpu_in_order(const pipeline::PipelineResult& run) {
  double total = 0.0;
  for (const auto& record : run.records) total += record.judge_gpu_seconds;
  return total;
}

// ---------------------------------------------------------------------------
// Measurement loop
// ---------------------------------------------------------------------------

/// Warm up, then run passes until opts.seconds of them have been measured.
std::vector<PassSample> measure_passes(const Options& opts, const PassFn& pass) {
  std::vector<PassSample> passes;
  // Warm-up: the first passes of a process run slow (page faults, lazy
  // statics such as the tokenizer trie, allocator growth).
  const double warm = now_us();
  for (int i = 0; i < kWarmupPasses || (now_us() - warm) / 1e6 < kWarmupSeconds; ++i) {
    pass();
  }
  const double start = now_us();
  while (passes.size() < kMinPasses || (now_us() - start) / 1e6 < opts.seconds) {
    passes.push_back(pass());
  }
  return passes;
}

/// End-to-end metrics of a pipeline workload from its passes.
void add_pipeline_end_to_end(const std::vector<PassSample>& passes, Result& out) {
  std::vector<double> rate, gpu, cpu, wall_ms, capacity, setup;
  for (const PassSample& p : passes) {
    rate.push_back(p.files / p.wall_s);
    gpu.push_back(p.gpu_s / p.files);
    cpu.push_back(p.cpu_s * 1e3 / p.files);
    wall_ms.push_back(p.wall_s * 1e3);
    capacity.push_back(p.files / p.bottleneck_s);
    setup.push_back(p.setup_s);
    out.attempted += static_cast<std::uint64_t>(p.files);
  }
  out.add("files_per_s", median(rate), "1/s");
  out.add("sim_gpu_s_per_file", median(gpu), "sim_s");
  out.add("cpu_ms_per_file", median(cpu), "ms");
  out.add("p50_ms", median(wall_ms), "ms");
  out.add("max_rate_per_s", median(capacity), "1/s");
  out.add("setup_s", median(setup), "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  char line[256];
  std::snprintf(line, sizeof(line),
                "passes: %zu; p50_ms is the median pass latency\n", passes.size());
  out.report += line;
  std::snprintf(line, sizeof(line),
                "  pass wall ms: min %.3f p25 %.3f p50 %.3f p75 %.3f max %.3f; "
                "cpu ms/file: min %.4f p50 %.4f max %.4f\n",
                percentile_rank(wall_ms, 0), percentile_rank(wall_ms, 25),
                median(wall_ms), percentile_rank(wall_ms, 75),
                percentile_rank(wall_ms, 100), percentile_rank(cpu, 0), median(cpu),
                percentile_rank(cpu, 100));
  out.report += line;
}

}  // namespace

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics
// ---------------------------------------------------------------------------

Replay replay(const Group& group, const std::vector<PromptStyle>& styles,
              bool filter_early, std::uint64_t judge_seed, SpanLog& log) {
  Replay r;
  const toolchain::CompilerDriver compiler(group.persona);
  const toolchain::Executor executor;
  const llm::SimulatedCoderModel model;
  const llm::Tokenizer& tokenizer = llm::default_tokenizer();
  frontend::ParserOptions popts;
  popts.pragma_takes_statement = directive::pragma_takes_statement;
  directive::ValidatorOptions vopts;
  vopts.flavor = group.persona.flavor;
  vopts.supported_version = group.persona.supported_version;
  vm::LowerOptions lopts;
  lopts.flavor = group.persona.flavor;
  llm::GenerationParams params;
  params.seed = judge_seed;
  for (std::size_t i = 0; i < group.files.size(); ++i) {
    const frontend::SourceFile& file = group.files[i];
    const std::uint64_t trace = i + 1;
    frontend::DiagnosticEngine diags;
    frontend::LexOutput lexed;
    frontend::Program program;
    {
      Scope s(&log, "frontend", "frontend.lex", trace);
      lexed = frontend::lex(file.content, diags);
    }
    {
      Scope s(&log, "frontend", "frontend.parse", trace);
      program = frontend::parse(lexed.tokens, diags, popts);
    }
    if (!diags.has_errors()) {
      Scope s(&log, "frontend", "frontend.sema", trace);
      frontend::analyze(program, diags);
    }
    if (!diags.has_errors()) {
      Scope s(&log, "directive", "directive.validate", trace);
      directive::validate_program(program, vopts, diags);
    }
    if (!diags.has_errors()) {
      Scope s(&log, "vm", "vm.lower", trace);
      const vm::Module module = vm::lower(program, lopts);
      (void)module;
    }
    toolchain::CompileResult compile;
    {
      // The whole CompilerDriver::compile call (diagnostics, quirk check)
      // on top of the parts above; the prompt needs its CompileResult.
      Scope s(&log, "toolchain", "toolchain.compile", trace);
      compile = compiler.compile(file);
    }
    if (filter_early && !compile.success) continue;
    toolchain::ExecutionRecord exec;
    {
      Scope s(&log, "vm", "vm.execute", trace);
      exec = executor.run(compile.module);
    }
    if (exec.ran) {
      ++r.executes;
      r.steps += exec.steps;
    }
    if (filter_early && !exec.passed()) continue;
    for (const PromptStyle style : styles) {
      std::string prompt;
      {
        Scope s(&log, "judge", "judge.prompt", trace);
        prompt = judge::build_prompt(style, file, &compile, &exec);
      }
      {
        Scope s(&log, "llm", "llm.perceive", trace);
        const auto perception = llm::perceive(prompt);
        (void)perception;
      }
      llm::Completion completion;
      {
        Scope s(&log, "llm", "llm.generate", trace);
        completion = model.generate(prompt, params);
      }
      {
        Scope s(&log, "llm", "llm.count_tokens", trace);
        tokenizer.count_tokens(prompt);
        tokenizer.count_tokens(completion.text);
      }
      {
        Scope s(&log, "judge", "judge.verdict", trace);
        judge::parse_verdict(completion.text);
      }
    }
  }
  return r;
}

std::string dominance_line(const LayerTable& table,
                           const std::vector<std::string>& expected) {
  // An intended wait row (serve-open's batcher wait) competes with the
  // layers; other waits do not.
  std::vector<std::string> waits;
  for (const std::string& name : expected) {
    if (name.find('.') != std::string::npos) waits.push_back(name);
  }
  const std::string top = dominant(table, waits);
  const bool ok =
      std::find(expected.begin(), expected.end(), top) != expected.end();
  std::string want;
  for (const auto& name : expected) want += (want.empty() ? "" : "+") + name;
  return "dominant layer: " + top + " (intended: " + want + ") -> " +
         (ok ? "confirmed" : "MISMATCH: the intended mapping is wrong for this run") +
         "\n";
}

void add_per_layer(const TracedPass& traced, const std::vector<Replay>& replays,
                   const LayerTable& replay_table, double untraced_cost,
                   Result& out) {
  const LayerTable& table = traced.table;
  const double files = traced.files;
  double replay_executes = 0, steps = 0;
  for (const Replay& r : replays) {
    replay_executes += r.executes;
    steps += static_cast<double>(r.steps);
  }
  const auto per = [](double total, double count) {
    return count > 0 ? total / count : 0.0;
  };
  // Replay cost per call, scaled by how often the measured configuration
  // really made that call per input file (compile-cache misses, model
  // calls): the work the layer did per file in the real run.
  const auto replay_per_file = [&](const std::string& row, double calls_per_file) {
    return per(row_self_us(replay_table, row), row_calls(replay_table, row)) *
           calls_per_file;
  };
  const double compiles_per_file = traced.frontend_runs / files;
  const double model_calls_per_file = traced.model_prompts / files;
  out.add("frontend.lex_us", replay_per_file("frontend.lex", compiles_per_file), "us");
  out.add("frontend.parse_us", replay_per_file("frontend.parse", compiles_per_file), "us");
  out.add("frontend.sema_us", replay_per_file("frontend.sema", compiles_per_file), "us");
  out.add("directive.validate_us",
          replay_per_file("directive.validate", compiles_per_file), "us");
  out.add("vm.lower_us", replay_per_file("vm.lower", compiles_per_file), "us");
  out.add("vm.execute_us", row_self_us(table, "vm.execute") / files, "us");
  out.add("vm.steps_per_file", per(steps, replay_executes), "count");
  out.add("vm.msteps_per_s", per(steps, row_self_us(replay_table, "vm.execute")),
          "Msteps/s");
  out.add("toolchain.compile_us", row_self_us(table, "toolchain.compile") / files, "us");
  out.add("toolchain.compile_reject_share", traced.compile_reject_share, "ratio");
  out.add("toolchain.exec_fail_share", traced.exec_fail_share, "ratio");
  out.add("judge.prompt_us", replay_per_file("judge.prompt", model_calls_per_file), "us");
  out.add("judge.prompt_tokens", traced.prompt_tokens, "count");
  out.add("judge.verdict_us", replay_per_file("judge.verdict", model_calls_per_file), "us");
  out.add("judge.self_us", row_self_us(table, "judge.evaluate") / files, "us");
  out.add("judge.cache_hit_rate", traced.judge_hit_rate, "ratio");
  out.add("llm.perceive_us", replay_per_file("llm.perceive", model_calls_per_file), "us");
  out.add("llm.count_tokens_us",
          replay_per_file("llm.count_tokens", model_calls_per_file), "us");
  out.add("llm.generate_us",
          per(row_self_us(table, "llm.model"), row_calls(table, "llm.model")),
          "us");
  out.add("llm.calls_per_file", model_calls_per_file, "count");
  out.add("llm.batch_occupancy", traced.batch_occupancy, "count");
  out.add("llm.batch_wait_us",
          per(row_self_us(table, "llm.batch_wait"), row_calls(table, "llm.batch_wait")),
          "us");
  out.add("pipeline.compile_busy_share", traced.compile_busy_share, "ratio");
  out.add("pipeline.execute_busy_share", traced.execute_busy_share, "ratio");
  out.add("pipeline.judge_busy_share", traced.judge_busy_share, "ratio");
  out.add("pipeline.queue_wait_us",
          per(row_self_us(table, "pipeline.queue_wait"),
              row_calls(table, "pipeline.queue_wait")),
          "us");
  out.add("pipeline.unattributed_share",
          traced.serving ? 0.0 : table.unattributed_us / table.wall_us, "ratio");
  out.add("cache.load_ms", traced.cache_load_ms, "ms");
  out.add("cache.save_ms", traced.cache_save_ms, "ms");
  out.add("cache.judge_persisted_hit_rate", traced.judge_persisted_hit_rate, "ratio");
  out.add("cache.compile_hit_rate", traced.compile_hit_rate, "ratio");
  out.add("cache.store_mb", traced.store_mb, "MB");
  out.add("serve.server_us", traced.serve_server_us, "us");
  out.add("serve.queue_wait_us",
          per(row_self_us(table, "serve.queue_wait"), row_calls(table, "serve.queue_wait")),
          "us");
  out.add("serve.transport_us", traced.serve_transport_us, "us");
  out.add("serve.shed_share", traced.serve_shed_share, "ratio");
  out.add("serve.generator_lag_ms", traced.serve_generator_lag_ms, "ms");
  out.add("obs.tracing_overhead_share",
          untraced_cost > 0 ? traced.traced_cost / untraced_cost - 1.0 : 0.0,
          "ratio");
}

// ---------------------------------------------------------------------------
// Pipeline workloads
// ---------------------------------------------------------------------------

namespace {

/// One pipeline the pass runs: a group of files judged in one style.
struct Leg {
  const Group* group = nullptr;
  PromptStyle style = PromptStyle::kAgentDirect;
  std::vector<Expected> expected;
};

struct PipelineSetup {
  pipeline::PipelineMode mode = pipeline::PipelineMode::kRecordAll;
  std::size_t judge_batch_size = 1;
  llm::BatcherConfig batcher;
  bool judge_cache = false;
  /// Non-empty: judge and compile caches (default capacities) backed by an
  /// artifact store at this path, persisted and saved inside the timed
  /// region.
  std::string store_path;
  cache::StoreFingerprint fingerprint;
};

/// Objects one pass builds (its set-up) and then runs.
struct Rig {
  std::shared_ptr<TimedModel> timed;
  std::shared_ptr<llm::ModelClient> client;
  std::shared_ptr<cache::ArtifactStore> store;
  std::shared_ptr<cache::CompileCache> compile_cache;
  std::vector<std::shared_ptr<const judge::Llmj>> judges;
  std::vector<std::unique_ptr<pipeline::ValidationPipeline>> pipes;
};

std::shared_ptr<llm::ModelClient> make_client(const llm::BatcherConfig& batcher,
                                              SpanLog* log,
                                              std::shared_ptr<TimedModel>* timed) {
  std::shared_ptr<const llm::LanguageModel> model =
      std::make_shared<const llm::SimulatedCoderModel>();
  if (log != nullptr) {
    *timed = std::make_shared<TimedModel>(model, log);
    model = *timed;
  }
  return std::make_shared<llm::ModelClient>(model, 1, 0, batcher);
}

/// Build every pipeline a pass runs: the pass's set-up.
Rig build_rig(const std::vector<Leg>& legs, const PipelineSetup& setup,
              SpanLog* log, const std::shared_ptr<obs::Tracer>& tracer) {
  Rig rig;
  {
    Scope s(log, "llm", "llm.client_setup");
    rig.client = make_client(setup.batcher, log, &rig.timed);
    if (tracer) rig.client->set_tracer(tracer);
  }
  if (!setup.store_path.empty()) {
    {
      Scope s(log, "cache", "cache.store_open");
      cache::ArtifactStoreConfig config;
      config.path = setup.store_path;
      config.fingerprint = setup.fingerprint;
      rig.store = std::make_shared<cache::ArtifactStore>(config);
    }
    Scope s(log, "cache", "cache.compile_load");
    cache::CompileCacheConfig config;
    config.store = rig.store;
    rig.compile_cache = std::make_shared<cache::CompileCache>(
        config, toolchain::driver_fingerprint(legs.front().group->persona));
  }
  for (const Leg& leg : legs) {
    judge::JudgeCacheConfig cache;
    cache.enabled = setup.judge_cache;
    cache.store = rig.store;
    {
      // With a store the constructor warm-loads the persisted decisions.
      Scope s(log, rig.store ? "cache" : "judge",
              rig.store ? "cache.judge_load" : "judge.setup");
      rig.judges.push_back(
          std::make_shared<const judge::Llmj>(rig.client, leg.style, cache));
    }
    pipeline::PipelineConfig config;
    config.mode = setup.mode;
    config.judge_batch_size = setup.judge_batch_size;
    config.trace = tracer;
    Scope s(log, "pipeline", "pipeline.setup");
    rig.pipes.push_back(std::make_unique<pipeline::ValidationPipeline>(
        toolchain::CompilerDriver(leg.group->persona, rig.compile_cache),
        toolchain::Executor(), rig.judges.back(), config));
  }
  return rig;
}

/// Persist both caches into the store and save it (warm-rerun's timed
/// region ends with this).
void persist_rig(const Rig& rig, SpanLog* log) {
  if (!rig.store) return;
  {
    Scope s(log, "cache", "cache.judge_persist");
    for (const auto& judge : rig.judges) judge->persist_cache();
  }
  {
    Scope s(log, "cache", "cache.compile_persist");
    rig.compile_cache->persist();
  }
  Scope s(log, "cache", "cache.save");
  if (!rig.store->save()) {
    throw std::runtime_error("artifact store save failed: " + rig.store->last_error());
  }
}

/// Run every leg of a pass; returns the pass's sample and checks each
/// record against the oracle (outside the timed region).
PassSample run_legs(Rig& rig, const std::vector<Leg>& legs, bool filter_early,
                    double setup_s, SpanLog* log, Result& out,
                    std::vector<pipeline::PipelineResult>* keep) {
  std::vector<pipeline::PipelineResult> results;
  results.reserve(legs.size());
  const double cpu0 = cpu_seconds();
  const double start = now_us();
  for (std::size_t i = 0; i < legs.size(); ++i) {
    Scope s(log, "pipeline", "pipeline.call");
    results.push_back(rig.pipes[i]->run(legs[i].group->files));
  }
  persist_rig(rig, log);
  const double wall_s = (now_us() - start) / 1e6;
  const double cpu_s = cpu_seconds() - cpu0;
  PassSample sample;
  sample.setup_s = setup_s;
  sample.wall_s = wall_s;
  sample.cpu_s = cpu_s;
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const auto& r = results[i];
    sample.gpu_s += judge_gpu_in_order(r);
    sample.bottleneck_s += std::max({r.compile_stage.busy_seconds,
                                     r.execute_stage.busy_seconds,
                                     r.judge_stage.busy_seconds});
    compare(r, legs[i].expected, filter_early,
            std::string(llm::prompt_style_name(legs[i].style)) + " " +
                frontend::flavor_name(legs[i].group->persona.flavor),
            out);
  }
  if (keep != nullptr) *keep = std::move(results);
  return sample;
}

/// Input files per pass (a leg per style counts its files once per style
/// only for the groups it judges; a file is one input however many judges
/// see it).
double distinct_files(const std::vector<Leg>& legs) {
  std::vector<const Group*> seen;
  double files = 0;
  for (const Leg& leg : legs) {
    if (std::find(seen.begin(), seen.end(), leg.group) != seen.end()) continue;
    seen.push_back(leg.group);
    files += static_cast<double>(leg.group->files.size());
  }
  return files;
}

void fill_traced_counts(const std::vector<pipeline::PipelineResult>& results,
                        const Rig& rig, TracedPass& traced) {
  double compile_done = 0, compile_rej = 0, exec_done = 0, exec_rej = 0;
  double compile_busy = 0, execute_busy = 0, judge_busy = 0, wall = 0;
  double hits = 0, persisted = 0, compile_hits = 0, lookups = 0;
  for (const auto& r : results) {
    compile_done += r.compile_stage.processed;
    compile_rej += r.compile_stage.rejected;
    exec_done += r.execute_stage.processed;
    exec_rej += r.execute_stage.rejected;
    compile_busy += r.compile_stage.busy_seconds;
    execute_busy += r.execute_stage.busy_seconds;
    judge_busy += r.judge_stage.busy_seconds;
    wall += r.wall_seconds;
    hits += static_cast<double>(r.judge_cache_hits);
    lookups += static_cast<double>(r.judge_stage.processed);
    persisted += static_cast<double>(r.judge_persisted_hits);
    compile_hits += static_cast<double>(r.compile_cache_hits);
  }
  const auto share = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  traced.compile_reject_share = share(compile_rej, compile_done);
  traced.exec_fail_share = share(exec_rej, exec_done);
  traced.compile_busy_share = share(compile_busy, wall);
  traced.execute_busy_share = share(execute_busy, wall);
  traced.judge_busy_share = share(judge_busy, wall);
  traced.frontend_runs = compile_done - compile_hits;
  traced.judge_hit_rate = share(hits, lookups);
  traced.judge_persisted_hit_rate = share(persisted, lookups);
  traced.compile_hit_rate = share(compile_hits, compile_done);
  const llm::ClientStats stats = rig.client->stats();
  traced.model_prompts = static_cast<double>(stats.requests);
  traced.prompt_tokens = share(static_cast<double>(stats.prompt_tokens),
                               static_cast<double>(stats.requests));
  traced.batch_occupancy = share(static_cast<double>(stats.requests),
                                 static_cast<double>(stats.formed_batches));
}

/// Build the merged span list of a traced pipeline pass and its table.
LayerTable pipeline_table(std::vector<Span> spans, const obs::Tracer& tracer,
                          Interval wall, const std::string& dump_path) {
  std::vector<Span> program = from_program(tracer.collect(), false, kProgramIdOffset);
  spans.insert(spans.end(), std::make_move_iterator(program.begin()),
               std::make_move_iterator(program.end()));
  for (Span& span : spans) span.container |= span.row == "pipeline.call";
  link_contained(spans, "pipeline.call", "pipeline.run");
  link_contained(spans, "llm.flush", "llm.model");
  link_same_thread(spans);
  write_spans(spans, dump_path);
  return layer_table(spans, wall);
}

struct PipelineWorkload {
  std::vector<Group> groups;
  std::vector<Leg> legs;
  PipelineSetup setup;
  std::vector<std::string> dominant;
  /// Untimed, before each pass's set-up (warm-rerun restores its store).
  std::function<void()> before_pass;
  /// When set, every pass's simulated GPU total must equal this exactly.
  std::optional<double> exact_gpu_s;
};

Result run_pipeline_workload(const Options& opts, PipelineWorkload& w) {
  Result out;
  const bool filter = w.setup.mode == pipeline::PipelineMode::kFilterEarly;
  const double files = distinct_files(w.legs);
  const auto pass = [&](SpanLog* log, const std::shared_ptr<obs::Tracer>& tracer,
                        std::vector<pipeline::PipelineResult>* keep,
                        Rig* rig_out) {
    if (w.before_pass) w.before_pass();
    const double t0 = now_us();
    Rig rig = build_rig(w.legs, w.setup, log, tracer);
    const double setup_s = (now_us() - t0) / 1e6;
    PassSample sample = run_legs(rig, w.legs, filter, setup_s, log, out, keep);
    sample.files = files;
    if (w.exact_gpu_s && sample.gpu_s != *w.exact_gpu_s) {
      out.mismatch("simulated GPU total differs from the oracle's");
    }
    if (rig_out != nullptr) *rig_out = std::move(rig);
    return sample;
  };
  const PassFn untraced = [&] { return pass(nullptr, nullptr, nullptr, nullptr); };
  if (!opts.trace) {
    add_pipeline_end_to_end(measure_passes(opts, untraced), out);
    return out;
  }
  // Traced run: untraced passes for the overhead baseline, then one traced
  // pass and the single-thread replay.
  Options baseline = opts;
  baseline.seconds = std::min(opts.seconds / 3.0, 3.0);
  std::vector<double> walls;
  for (const PassSample& p : measure_passes(baseline, untraced)) {
    walls.push_back(p.wall_s);
    out.attempted += static_cast<std::uint64_t>(files);
  }
  SpanLog log;
  auto tracer = std::make_shared<obs::Tracer>(1 << 18);
  std::vector<pipeline::PipelineResult> results;
  Rig rig;
  const double t0 = now_us();
  const PassSample traced_sample = pass(&log, tracer, &results, &rig);
  const double t1 = now_us();
  TracedPass traced;
  traced.files = files;
  traced.traced_cost = traced_sample.wall_s;
  fill_traced_counts(results, rig, traced);
  std::filesystem::create_directories(opts.work_dir);
  traced.table = pipeline_table(log.take(), *tracer, {t0, t1},
                                opts.work_dir + "/" + opts.workload + "-spans.jsonl");
  traced.cache_load_ms = (row_self_us(traced.table, "cache.store_open") +
                          row_self_us(traced.table, "cache.compile_load") +
                          row_self_us(traced.table, "cache.judge_load")) / 1e3;
  traced.cache_save_ms = (row_self_us(traced.table, "cache.judge_persist") +
                          row_self_us(traced.table, "cache.compile_persist") +
                          row_self_us(traced.table, "cache.save")) / 1e3;
  if (!w.setup.store_path.empty()) {
    traced.store_mb =
        static_cast<double>(std::filesystem::file_size(w.setup.store_path)) / 1e6;
  }
  std::vector<Replay> replays;
  SpanLog replay_log;
  std::map<const Group*, std::vector<PromptStyle>> styles;
  for (const Leg& leg : w.legs) styles[leg.group].push_back(leg.style);
  const double r0 = now_us();
  for (const auto& [group, group_styles] : styles) {
    replays.push_back(replay(*group, group_styles, filter, 0, replay_log));
  }
  const double r1 = now_us();
  std::vector<Span> replay_spans = replay_log.take();
  const LayerTable replay_table = layer_table(replay_spans, {r0, r1});
  add_per_layer(traced, replays, replay_table, median(walls), out);
  out.report += render_table(traced.table, "traced pass (" + opts.workload + ")");
  out.report += dominance_line(traced.table, w.dominant);
  out.report += render_table(replay_table, "single-thread replay");
  char line[200];
  std::snprintf(line, sizeof(line),
                "tracing overhead: traced pass %.3f ms vs untraced median %.3f ms "
                "over %zu passes\n",
                traced_sample.wall_s * 1e3, median(walls) * 1e3, walls.size());
  out.report += line;
  write_spans(replay_spans, opts.work_dir + "/" + opts.workload + "-replay-spans.jsonl");
  out.attempted += static_cast<std::uint64_t>(files);
  return out;
}

}  // namespace

Result paper_record_all(const Options& opts) {
  PipelineWorkload w;
  w.groups.push_back(part_two_group(Flavor::kOpenACC, opts.seed));
  w.groups.push_back(part_two_group(Flavor::kOpenMP, opts.seed));
  for (const Group& group : w.groups) {
    for (const PromptStyle style : {PromptStyle::kAgentDirect, PromptStyle::kAgentIndirect}) {
      w.legs.push_back(Leg{&group, style, oracle(group, style, 0)});
    }
  }
  w.setup.mode = pipeline::PipelineMode::kRecordAll;
  w.setup.judge_batch_size = 1;
  w.setup.judge_cache = false;
  w.dominant = {"judge", "llm"};
  // The simulated GPU total must equal the oracle's exactly: this
  // configuration is paper mode, so nothing may change what is priced.
  // Summed the way a pass sums it: per leg in file order, then over legs.
  double oracle_gpu = 0.0;
  for (const Leg& leg : w.legs) {
    double leg_gpu = 0.0;
    for (const Expected& e : leg.expected) leg_gpu += e.gpu_seconds;
    oracle_gpu += leg_gpu;
  }
  w.exact_gpu_s = oracle_gpu;
  Result out = run_pipeline_workload(opts, w);
  char line[160];
  std::snprintf(line, sizeof(line), "oracle simulated GPU total: %.6f s over %.0f files\n",
                oracle_gpu, distinct_files(w.legs));
  out.report += line;
  return out;
}

namespace {

Group triage_group(std::uint64_t seed) {
  // Raw generated candidates: equal counts of the six probing classes (so
  // five in six are invalid) plus 20% byte-identical repeats.
  constexpr std::size_t kPerClass = 300;
  const auto options = experiment_options(seed);
  corpus::GeneratorConfig gen;
  gen.flavor = Flavor::kOpenACC;
  gen.count = 6 * kPerClass + 64;
  gen.seed = options.corpus_seed;
  gen.max_version = 45;
  gen.cpp_share = 0.35;
  probing::ProbingConfig probe = probing::part_two_acc_config();
  probe.issue_counts = {kPerClass, kPerClass, kPerClass, kPerClass, kPerClass, kPerClass};
  probe.seed += seed;
  const auto suite = probing::probe_suite(corpus::generate_suite(gen), probe);
  Group group;
  group.persona = toolchain::nvc_persona();
  for (const auto& probed : suite.files) group.files.push_back(probed.file);
  support::Rng rng(0x7121A6E5ULL ^ seed);
  const std::size_t originals = group.files.size();
  for (std::size_t k = 0; k < originals / 5; ++k) {
    const auto copy = group.files[rng.next_below(originals)];
    const auto at = rng.next_below(group.files.size() + 1);
    group.files.insert(group.files.begin() + static_cast<std::ptrdiff_t>(at), copy);
  }
  return group;
}

}  // namespace

Result triage_filter(const Options& opts) {
  PipelineWorkload w;
  w.groups.push_back(triage_group(opts.seed));
  w.legs.push_back(Leg{&w.groups[0], PromptStyle::kAgentDirect,
                       oracle(w.groups[0], PromptStyle::kAgentDirect, 0)});
  w.setup.mode = pipeline::PipelineMode::kFilterEarly;
  w.setup.judge_batch_size = 8;
  w.setup.batcher.max_batch = 8;
  w.setup.batcher.window_us = 200;
  w.setup.judge_cache = true;
  w.dominant = {"toolchain", "frontend"};
  return run_pipeline_workload(opts, w);
}

Result warm_rerun(const Options& opts) {
  // The previous version of the suite, and the current one: a seeded 10%
  // of the files edited.
  const Group previous = part_two_group(Flavor::kOpenACC, opts.seed);
  PipelineWorkload w;
  w.groups.push_back(previous);
  Group& current = w.groups.front();
  support::Rng rng(0xED17ULL ^ opts.seed);
  std::vector<std::size_t> order(current.files.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  const std::size_t edits = current.files.size() / 10;
  for (std::size_t k = 0; k < edits; ++k) {
    auto& file = current.files[order[k]];
    file.content = "// revised: review round 2\n" + file.content;
  }
  w.legs.push_back(Leg{&current, PromptStyle::kAgentDirect,
                       oracle(current, PromptStyle::kAgentDirect, 0)});
  w.setup.mode = pipeline::PipelineMode::kRecordAll;
  w.setup.judge_batch_size = 1;
  w.setup.judge_cache = true;  // default memo capacity (1024 entries)
  std::filesystem::create_directories(opts.work_dir);
  w.setup.store_path = opts.work_dir + "/warm-rerun.store";
  w.setup.fingerprint.corpus = "part-two-openacc/seed=" + std::to_string(opts.seed);
  w.setup.fingerprint.model = llm::SimulatedCoderModel().name();
  w.dominant = {"cache", "vm"};

  // Untimed: validate the previous version once, with the same caches, and
  // keep the store file it saved; every pass starts from it.
  namespace fs = std::filesystem;
  const std::string snapshot = w.setup.store_path + ".previous";
  fs::remove(w.setup.store_path);
  fs::remove(snapshot);
  {
    Group old_group = previous;
    const std::vector<Leg> old_legs = {Leg{&old_group, PromptStyle::kAgentDirect, {}}};
    Rig rig = build_rig(old_legs, w.setup, nullptr, nullptr);
    rig.pipes.front()->run(old_group.files);
    persist_rig(rig, nullptr);
  }
  if (!fs::exists(w.setup.store_path) || fs::file_size(w.setup.store_path) == 0) {
    throw std::runtime_error("warm-rerun: no store was written");
  }
  fs::rename(w.setup.store_path, snapshot);
  // Each pass opens a hard link to the saved file, as a rerun finds the
  // file an earlier run saved, long since written. Rewriting its bytes
  // before every pass instead left them in writeback, and the pass's own
  // save (a rename over that file) then took 7 ms instead of 2 ms on ext4.
  w.before_pass = [&] {
    fs::remove(w.setup.store_path);
    std::error_code no_link;
    fs::create_hard_link(snapshot, w.setup.store_path, no_link);
    if (no_link) fs::copy_file(snapshot, w.setup.store_path);
  };
  Result out = run_pipeline_workload(opts, w);
  fs::remove(w.setup.store_path);
  fs::remove(snapshot);
  return out;
}

}  // namespace e2ebench
