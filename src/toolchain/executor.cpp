#include "toolchain/executor.hpp"

namespace llm4vv::toolchain {

ExecutionRecord Executor::run(
    const std::shared_ptr<const vm::Module>& module) const {
  ExecutionRecord record;
  if (module == nullptr) return record;
  const vm::ExecResult result = vm::execute(*module, limits_, dispatch_);
  record.ran = true;
  record.return_code = result.return_code;
  record.stdout_text = result.stdout_text;
  record.stderr_text = result.stderr_text;
  record.trap = result.trap;
  record.steps = result.steps;
  record.fused_instructions = result.fused_instructions;
  record.fusion_patterns = result.fusion_patterns;
  return record;
}

}  // namespace llm4vv::toolchain
