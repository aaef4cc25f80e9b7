#pragma once

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "corpus/generator.hpp"
#include "directive/validator.hpp"
#include "frontend/fortran.hpp"
#include "frontend/lexer.hpp"
#include "frontend/parser.hpp"
#include "frontend/sema.hpp"
#include "llm/client.hpp"
#include "llm/coder_model.hpp"
#include "toolchain/compiler.hpp"
#include "toolchain/executor.hpp"
#include "vm/interp.hpp"
#include "vm/lower.hpp"

namespace llm4vv::testutil {

/// Wait for every future of one ModelClient::submit_many() group; the
/// completions come back in prompt order, and the first failed request's
/// error is rethrown.
inline std::vector<llm::Completion> get_all(
    const std::vector<llm::CompletionFuture>& futures) {
  std::vector<llm::Completion> completions;
  completions.reserve(futures.size());
  for (const llm::CompletionFuture& future : futures) {
    completions.push_back(future.get());
  }
  return completions;
}

/// Front-end a C/C++ source string (lex/parse/sema/validate); returns the
/// program and leaves diagnostics in `diags`.
inline frontend::Program analyze_source(
    const std::string& source, frontend::DiagnosticEngine& diags,
    frontend::Flavor flavor = frontend::Flavor::kOpenACC) {
  frontend::ParserOptions popts;
  popts.pragma_takes_statement = directive::pragma_takes_statement;
  const auto lexed = frontend::lex(source, diags);
  auto program = frontend::parse(lexed.tokens, diags, popts);
  if (!diags.has_errors()) {
    frontend::analyze(program, diags);
  }
  if (!diags.has_errors()) {
    directive::ValidatorOptions vopts;
    vopts.flavor = flavor;
    vopts.supported_version = 99;
    directive::validate_program(program, vopts, diags);
  }
  return program;
}

/// Compile and execute a C source string; throws on compile errors.
inline vm::ExecResult run_source(
    const std::string& source,
    frontend::Flavor flavor = frontend::Flavor::kOpenACC,
    const vm::ExecLimits& limits = {}) {
  frontend::DiagnosticEngine diags;
  auto program = analyze_source(source, diags, flavor);
  if (diags.has_errors()) {
    std::string message = "compile failed:";
    for (const auto& d : diags.diagnostics()) {
      message += " [line " + std::to_string(d.line) + "] " + d.message + ";";
    }
    throw std::runtime_error(message);
  }
  vm::LowerOptions lopts;
  lopts.flavor = flavor;
  const auto module = vm::lower(program, lopts);
  return vm::execute(module, limits);
}

/// A unique temp file per instance (pid + counter under the system temp
/// dir); the destructor removes it and its `.tmp` save sidecar. Shared by
/// the artifact-store and persistence test suites.
class TempFile {
 public:
  explicit TempFile(const char* tag) {
    static std::atomic<int> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("llm4vv_test_" + std::to_string(::getpid()) + "_" + tag + "_" +
              std::to_string(counter.fetch_add(1)) + ".jsonl"))
                .string();
  }
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    std::filesystem::remove(path_ + ".tmp", ec);
  }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;
  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// A simulated coder model whose generate() calls block at a gate until
/// the test releases it — the standard way to deterministically park
/// workers behind an in-flight model call (the base-class generate_batch
/// loops over generate, so batched flushes gate too). Shared by the judge
/// dedup, async-client, and async-judge test suites.
class GatedModel final : public llm::LanguageModel {
 public:
  std::string name() const override { return inner_.name(); }
  llm::Completion generate(const std::string& prompt,
                           const llm::GenerationParams& params)
      const override {
    {
      std::unique_lock lock(mutex_);
      ++entered_;
      entered_cv_.notify_all();
      release_cv_.wait(lock, [this] { return released_; });
    }
    return inner_.generate(prompt, params);
  }
  /// Block until at least `count` generate() calls have reached the gate.
  void wait_for_entry(int count = 1) const {
    std::unique_lock lock(mutex_);
    entered_cv_.wait(lock, [this, count] { return entered_ >= count; });
  }
  /// Open the gate for every present and future call.
  void release() const {
    {
      std::lock_guard lock(mutex_);
      released_ = true;
    }
    release_cv_.notify_all();
  }
  /// Calls that have reached the gate so far.
  int entered() const {
    std::lock_guard lock(mutex_);
    return entered_;
  }

 private:
  llm::SimulatedCoderModel inner_;
  mutable std::mutex mutex_;
  mutable std::condition_variable entered_cv_;
  mutable std::condition_variable release_cv_;
  mutable int entered_ = 0;
  mutable bool released_ = false;
};

/// The corpus-generator knobs every suite-driving test sets: flavor, size,
/// and seed in one place, so corpus tests stay consistent as the suite
/// grows (remaining GeneratorConfig fields keep their defaults and can be
/// adjusted on the returned value).
inline corpus::GeneratorConfig corpus_config(frontend::Flavor flavor,
                                             std::size_t count,
                                             std::uint64_t seed) {
  corpus::GeneratorConfig config;
  config.flavor = flavor;
  config.count = count;
  config.seed = seed;
  return config;
}

/// A strictness-free compiler driver for validity testing.
inline toolchain::CompilerDriver clean_driver(frontend::Flavor flavor) {
  toolchain::CompilerConfig config = flavor == frontend::Flavor::kOpenACC
                                         ? toolchain::nvc_persona()
                                         : toolchain::clang_persona();
  config.strictness_reject_rate = 0.0;
  return toolchain::CompilerDriver(config);
}

}  // namespace llm4vv::testutil
