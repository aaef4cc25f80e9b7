#pragma once

#include <memory>
#include <string>

#include "frontend/diagnostics.hpp"
#include "frontend/source.hpp"
#include "vm/bytecode.hpp"

namespace llm4vv::cache {
class CompileCache;  // cache/compile_cache.hpp stores CompileResults
}

namespace llm4vv::toolchain {

/// Which real compiler's behaviour (diagnostic style, spec version support,
/// feature quirks) the driver imitates. The paper used NVIDIA HPC SDK `nvc`
/// for OpenACC and LLVM `clang` for OpenMP offloading.
struct CompilerConfig {
  frontend::Flavor flavor = frontend::Flavor::kOpenACC;
  /// Supported directive spec version in tenths (nvc: OpenACC 3.3 -> 33;
  /// clang: OpenMP 4.5 -> 45 — the paper capped its corpus at 4.5 because
  /// "many OpenMP offloading compilers do not support all OpenMP features
  /// introduced after version 4.5").
  int supported_version = 33;
  /// Persona name used in diagnostics ("nvc", "clang").
  std::string persona = "nvc";
  /// Probability that a *valid* file trips a feature-support quirk and is
  /// rejected anyway (deterministic per file content). This models the
  /// paper's observed "inconsistent feature support" compile losses on
  /// valid tests; see DESIGN.md §5 and profiles.cpp for the calibration.
  double strictness_reject_rate = 0.0;
  /// Seed mixed into the per-file quirk decision.
  std::uint64_t quirk_seed = 0x9e1ceULL;
};

/// Everything the rest of the system needs to know about one compilation:
/// the process-like observables (return code, streams) that feed the agent
/// prompts, plus the lowered module when compilation succeeded.
struct CompileResult {
  bool success = false;
  int return_code = 1;
  std::string stderr_text;
  std::string stdout_text;
  std::vector<frontend::Diagnostic> diagnostics;
  /// Lowered bytecode; null when compilation failed.
  std::shared_ptr<const vm::Module> module;
  /// True when the driver served this result from its compile cache (the
  /// front-end never ran for this call).
  bool cached = false;
  /// True when the compile cache's persistent artifact-store tier served
  /// this result (an earlier run, or this one before the memo evicted the
  /// entry, paid for the front-end).
  bool persisted = false;
};

/// Default personas matching the paper's setup.
CompilerConfig nvc_persona();
CompilerConfig clang_persona();

/// Stable 64-bit digest of everything in CompilerConfig that can change a
/// compile's outcome. The compile cache mixes it into its keys so caches
/// (and store files) shared between personas never cross-serve results;
/// exposed as a free function so the cache can be built before the driver.
std::uint64_t driver_fingerprint(const CompilerConfig& config) noexcept;

/// Digest of everything about a SourceFile that can change its compile:
/// content, language (parser selection), and name (baked into the rendered
/// diagnostics). This is the identity the compile cache memoizes on.
std::uint64_t file_identity_hash(const frontend::SourceFile& file) noexcept;

/// The simulated compiler driver: lex -> parse -> sema -> directive
/// validation -> lowering, with persona-styled diagnostics on stderr.
///
/// With a cache::CompileCache attached, byte-identical files skip the whole
/// front-end: results are memoized on (content hash, driver fingerprint)
/// and — when the cache is store-backed — survive across process runs.
class CompilerDriver {
 public:
  explicit CompilerDriver(CompilerConfig config);
  CompilerDriver(CompilerConfig config,
                 std::shared_ptr<cache::CompileCache> cache);

  /// Compile one source file. Thread-safe (const; the only shared state is
  /// the thread-safe compile cache).
  CompileResult compile(const frontend::SourceFile& file) const;

  const CompilerConfig& config() const noexcept { return config_; }
  const std::shared_ptr<cache::CompileCache>& cache() const noexcept {
    return cache_;
  }

  /// Digest of this driver's config; see the free driver_fingerprint().
  std::uint64_t fingerprint() const noexcept {
    return driver_fingerprint(config_);
  }

 private:
  CompileResult compile_uncached(const frontend::SourceFile& file) const;

  CompilerConfig config_;
  std::shared_ptr<cache::CompileCache> cache_;
};

}  // namespace llm4vv::toolchain
