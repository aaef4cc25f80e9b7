#pragma once

/// Umbrella header for the LLM4VV reproduction library.
///
/// Layering (each header can also be included individually):
///   support   - RNG, queues, thread pool, tables, JSONL, CLI
///   cache     - persistent content-addressed artifact store + clients
///   frontend  - C/C++/Fortran-lite lexer, parser, AST, sema, diagnostics
///   directive - OpenACC/OpenMP directive parsing, spec tables, validation
///   vm        - bytecode, lowering, interpreter, host/device memory model
///   corpus    - V&V test-suite generator + plain-code generator
///   toolchain - compiler personas (nvc/clang) and the executor
///   probing   - the paper's five mutation classes and the suite prober
///   llm       - tokenizer, LanguageModel interface, simulated judge model
///   judge     - prompt builders (Listings 1-4), verdict parsing, LLMJ
///   pipeline  - the staged compile/execute/judge validation pipeline
///   metrics   - accuracy/bias metrics and radar figures
///   core      - canonical experiments, paper reference data, reports

#include "cache/artifact_store.hpp"
#include "cache/compile_cache.hpp"
#include "core/experiments.hpp"
#include "core/paper_data.hpp"
#include "core/report.hpp"
#include "corpus/generator.hpp"
#include "judge/judge.hpp"
#include "llm/client.hpp"
#include "llm/coder_model.hpp"
#include "llm/faults.hpp"
#include "metrics/metrics.hpp"
#include "pipeline/validation_pipeline.hpp"
#include "probing/prober.hpp"
#include "toolchain/compiler.hpp"
#include "toolchain/executor.hpp"
