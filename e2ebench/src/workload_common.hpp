#pragma once

// Internals shared by the workload sources (not used by main.cpp).

#include <cstdint>
#include <string>
#include <vector>

#include "frontend/source.hpp"
#include "judge/verdict.hpp"
#include "layers.hpp"
#include "toolchain/compiler.hpp"
#include "workloads.hpp"

namespace e2ebench {

/// A set of files that share one compiler persona.
struct Group {
  llm4vv::toolchain::CompilerConfig persona;
  std::vector<llm4vv::frontend::SourceFile> files;
};

/// What the sequential paper-mode oracle says about one file under one
/// judge style: compile outcome, exec rc and verdict, plus the simulated
/// GPU seconds the judge call cost.
struct Expected {
  bool compiled = false;
  int compile_rc = -1;
  int exec_rc = -1;
  bool passed = false;
  llm4vv::judge::Verdict verdict = llm4vv::judge::Verdict::kUnparseable;
  double gpu_seconds = 0.0;
};

/// Process-wide measurements.
double peak_rss_mb();
double cpu_seconds();  ///< user + sys of this process so far

/// Warm-up before measuring, in seconds (the first passes of a process,
/// and of a host that was idle, run slow).
inline constexpr double kWarmupSeconds = 2.0;
/// Program span ids are offset by this in the merged trace.
inline constexpr std::uint64_t kProgramIdOffset = std::uint64_t{1} << 40;

Group part_two_group(llm4vv::frontend::Flavor flavor, std::uint64_t seed);

/// Counts of one single-thread replay.
struct Replay {
  double executes = 0.0;  ///< modules run
  std::uint64_t steps = 0;
};

/// Re-run a group's files on one thread, one span per layer call.
Replay replay(const Group& group,
              const std::vector<llm4vv::llm::PromptStyle>& styles,
              bool filter_early, std::uint64_t judge_seed, SpanLog& log);

/// What the traced pass measured, besides its table.
struct TracedPass {
  LayerTable table;
  bool serving = false;
  double files = 0.0;          ///< input files (or jobs)
  /// What tracing overhead compares against the untraced runs: the
  /// traced pass's timed region in seconds (pipeline workloads), or CPU
  /// seconds per job (serve-open, whose open loop fixes the wall).
  double traced_cost = 0.0;
  double frontend_runs = 0.0;  ///< compiles that missed the compile cache
  double model_prompts = 0.0;
  double prompt_tokens = 0.0;
  double batch_occupancy = 0.0;
  double judge_hit_rate = 0.0;
  double compile_reject_share = 0.0;
  double exec_fail_share = 0.0;
  double compile_busy_share = 0.0;
  double execute_busy_share = 0.0;
  double judge_busy_share = 0.0;
  double cache_load_ms = 0.0;
  double cache_save_ms = 0.0;
  double judge_persisted_hit_rate = 0.0;
  double compile_hit_rate = 0.0;
  double store_mb = 0.0;
  double serve_server_us = 0.0;
  double serve_transport_us = 0.0;
  double serve_shed_share = 0.0;
  double serve_generator_lag_ms = 0.0;
};

/// Per-layer metrics of a traced run.
void add_per_layer(const TracedPass& traced, const std::vector<Replay>& replays,
                   const LayerTable& replay_table, double untraced_cost,
                   Result& out);

/// "dominant layer: X (intended: ...) -> confirmed | MISMATCH" line.
std::string dominance_line(const LayerTable& table,
                           const std::vector<std::string>& expected);

}  // namespace e2ebench
