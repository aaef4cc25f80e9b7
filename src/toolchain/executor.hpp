#pragma once

#include "toolchain/compiler.hpp"
#include "vm/interp.hpp"

namespace llm4vv::toolchain {

/// Process-like view of one test execution, feeding the pipeline's second
/// stage and the agent prompts.
struct ExecutionRecord {
  bool ran = false;  ///< false when there was no module to run
  int return_code = -1;
  std::string stdout_text;
  std::string stderr_text;
  vm::TrapKind trap = vm::TrapKind::kNone;
  std::uint64_t steps = 0;
  /// Superinstruction sites the VM's decode-time fusion pass rewrote for
  /// this run (0 when the reference core ran) and the distinct patterns
  /// among them — see docs/ARCHITECTURE.md.
  std::uint64_t fused_instructions = 0;
  std::uint32_t fusion_patterns = 0;

  bool passed() const noexcept { return ran && return_code == 0; }
};

/// Runs compiled modules under the VM with execution budgets.
class Executor {
 public:
  /// `dispatch` selects the VM dispatch core: the fused table core by
  /// default, or the reference switch (semantically identical; see
  /// vm::execute).
  explicit Executor(vm::ExecLimits limits = {},
                    vm::DispatchMode dispatch = vm::DispatchMode::kTable)
      : limits_(limits), dispatch_(dispatch) {}

  /// Execute a compiled module; a null module yields ran=false.
  ExecutionRecord run(const std::shared_ptr<const vm::Module>& module) const;

  /// The dispatch core this executor runs modules with.
  vm::DispatchMode dispatch_mode() const noexcept { return dispatch_; }

 private:
  vm::ExecLimits limits_;
  vm::DispatchMode dispatch_;
};

}  // namespace llm4vv::toolchain
