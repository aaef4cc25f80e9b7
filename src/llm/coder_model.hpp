#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "llm/faults.hpp"
#include "llm/model.hpp"
#include "llm/perception.hpp"
#include "llm/profiles.hpp"
#include "support/thread_annotations.hpp"

namespace llm4vv::llm {

/// Configuration of the simulated inference stack.
struct CoderModelConfig {
  /// Global seed mixed into every judgment draw; changing it re-rolls the
  /// model's stochastic behaviour while keeping per-file determinism.
  std::uint64_t seed = 0xD5C0DE2ULL;
  /// Latency model for one simulated A100 node serving a 33B coder model.
  double prefill_tokens_per_second = 2500.0;
  double decode_tokens_per_second = 30.0;
  /// Context window; longer prompts are (virtually) truncated for the
  /// latency model, matching how the real harness clipped long files.
  std::size_t context_window = 16384;
  /// Batched serving (generate_batch): one forward pass prefills every
  /// prompt of the batch together, so the weight-streaming cost that
  /// dominates single-stream prefill is paid once per pass. Only this
  /// fraction of the non-largest prompts' prefill time still shows up in
  /// the pass latency (1.0 disables the amortization, 0.0 makes the extra
  /// prompts' prefill free). Decode proceeds in lockstep across the batch,
  /// so a pass decodes for max(completion_tokens) steps regardless of
  /// batch size. A batch of one is priced exactly like generate().
  double batch_prefill_fraction = 0.35;
  /// Optional deterministic fault schedule (see llm/faults.hpp). Null (the
  /// default) injects nothing — the model is infallible, exactly as before
  /// the resilience layer existed. When set, every generate()/
  /// generate_batch() call consults the plan per prompt: transient and
  /// permanent faults throw TransientModelError/PermanentModelError, slow
  /// faults inflate the affected completion's simulated latency by
  /// slow_latency_factor. Fault draws never touch the judgment RNG, so
  /// completions that are served stay byte-identical to a fault-free run.
  std::shared_ptr<const FaultPlan> faults;
};

/// Behavioural simulator of deepseek-coder-33b-instruct as a V&V judge.
///
/// generate() is pure and thread-safe: it perceives the prompt (style,
/// flavor, embedded code, quoted tool outputs — see perception.hpp), draws
/// a verdict from the calibrated JudgeProfile for that condition, renders a
/// step-by-step analysis ending in the paper's exact
/// `FINAL JUDGEMENT: ...` protocol (with a small calibrated rate of
/// protocol violations), and prices the call with the A100 latency model.
///
/// Determinism: the judgment RNG is seeded with
/// hash(prompt) ^ config.seed ^ params.seed, so a given file under a given
/// prompt style always receives the same verdict within an experiment —
/// mirroring greedy/low-temperature decoding — while different experiment
/// seeds give fresh draws for error bars.
///
/// Perception memo: the code evidence perceive() extracts (the seven flags
/// analyze_code() sets) depends only on the prompt's code block and its
/// flavor, and every judge of a file sees the same code (the paper's
/// LLMJ 1 and LLMJ 2 each read every file). So the model keeps those flags
/// per (code hash, flavor), checked against the code length, in a bounded
/// memo sharded like the judge memo, for the model's lifetime. The model
/// stays a pure function of the prompt: a hit yields exactly the flags a
/// miss computes, so completions and their prices are byte-identical.
class SimulatedCoderModel final : public LanguageModel {
 public:
  /// Code blocks the perception memo holds (oldest evicted first, per
  /// shard): enough for the 1782-file OpenACC Part Two suite to survive
  /// from its LLMJ 1 pass to its LLMJ 2 pass.
  static constexpr std::size_t kPerceptionMemoCapacity = 4096;

  explicit SimulatedCoderModel(CoderModelConfig config = {});

  std::string name() const override;

  Completion generate(const std::string& prompt,
                      const GenerationParams& params) const override;

  /// Batched completion: per-prompt text and token counts are byte-identical
  /// to generate(), but the pass is priced with the batched latency model
  /// (prefill amortized across the batch, lockstep decode) and that pass
  /// cost is attributed to the completions proportionally to their
  /// sequential cost, so summing latency_seconds over the batch gives the
  /// pass latency.
  std::vector<Completion> generate_batch(
      const std::vector<std::string>& prompts,
      const GenerationParams& params) const override;

  /// The probability this model would judge the perceived prompt invalid
  /// (exposed for calibration tests).
  double invalid_probability(const PromptPerception& perception) const;

 private:
  /// Deterministic completion text + token counts (latency left at zero).
  Completion render(const std::string& prompt,
                    const GenerationParams& params) const;
  /// Sequential latency of one completion: full prefill + own decode.
  double sequential_latency(const Completion& completion) const;
  /// The fault plan's decision for one prompt at params.attempt (kNone
  /// when no plan is configured).
  FaultKind fault_for(const std::string& prompt,
                      const GenerationParams& params) const;
  /// perceive(prompt), with the code evidence served from the memo when
  /// the code block was analyzed before (analysis runs outside the lock).
  PromptPerception perceive_memoized(const std::string& prompt) const;

  static constexpr std::size_t kPerceptionMemoShards = 8;

  /// analyze_code()'s flags for one code block, one bit each, and the
  /// block's length: a second check independent of the hash key.
  struct CodeFacts {
    std::size_t code_length = 0;
    std::uint8_t flags = 0;
  };
  /// One memo shard. Nothing is allocated until the first insert, so an
  /// idle model costs no more to build than before the memo existed.
  struct FactsShard {
    support::Mutex mutex;
    std::unordered_map<std::uint64_t, CodeFacts> entries GUARDED_BY(mutex);
    /// Keys in insertion order; once full, a ring whose slot `oldest` is
    /// evicted and reused by the next insert.
    std::vector<std::uint64_t> order GUARDED_BY(mutex);
    std::size_t oldest GUARDED_BY(mutex) = 0;
  };

  CoderModelConfig config_;
  mutable std::array<FactsShard, kPerceptionMemoShards> facts_;
};

}  // namespace llm4vv::llm
