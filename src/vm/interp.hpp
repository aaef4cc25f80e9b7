#pragma once

#include <cstdint>
#include <string>

#include "vm/bytecode.hpp"
#include "vm/memory.hpp"

namespace llm4vv::vm {

/// Execution budgets — the analogue of ulimits/timeouts on a real cluster.
struct ExecLimits {
  std::uint64_t max_steps = 50'000'000;   ///< instruction budget
  std::size_t max_output = 1u << 16;      ///< stdout bytes
  std::size_t max_frames = 512;           ///< call depth
  std::uint64_t max_cells = 1u << 22;     ///< memory cells
};

/// Result of running a Module.
struct ExecResult {
  int return_code = 0;
  std::string stdout_text;
  std::string stderr_text;
  TrapKind trap = TrapKind::kNone;
  std::uint64_t steps = 0;
  /// Superinstruction sites the decode-time fusion pass rewrote (0 when
  /// fusion was off or the reference core ran — it never decodes).
  std::uint64_t fused_instructions = 0;
  /// Distinct fusion patterns among those sites.
  std::uint32_t fusion_patterns = 0;

  bool trapped() const noexcept { return trap != TrapKind::kNone; }
  bool ok() const noexcept { return !trapped() && return_code == 0; }
};

/// How the interpreter decodes and dispatches bytecode.
///
///  - kReference: the original per-instruction `switch` decode loop, kept
///    verbatim as the behavioural pin for differential testing (the same
///    role the tokenizer's `encode_reference` plays). The table core must
///    match it byte-for-byte: outputs, traps, return codes, and step
///    accounting.
///  - kTable: the execute stage's core. A pre-decode pass lowers the module
///    into flat per-chunk streams of handler indices + packed operands
///    (fusing superinstructions unless told not to), executed by a portable
///    function-pointer-table loop. It clears 1.5x the reference's
///    throughput, gated in CI (see docs/BENCHMARKS.md).
enum class DispatchMode { kReference, kTable };

/// Human-readable core name: "reference" or "table".
const char* dispatch_mode_name(DispatchMode mode) noexcept;

/// Introspection over the superinstruction pattern table (the VM_FUSE list
/// in interp_ops.inc), for tests and telemetry labels: how many patterns the
/// decoder knows, each one's name (e.g. "LoadSlotPushConstMul"), component
/// count (2 or 3), and component opcodes.
std::size_t fusion_pattern_count() noexcept;
const char* fusion_pattern_name(std::size_t pattern) noexcept;
std::size_t fusion_pattern_length(std::size_t pattern) noexcept;
Op fusion_pattern_component(std::size_t pattern, std::size_t index) noexcept;

/// Execute a lowered module: run the global-init chunk, then `main`.
/// Traps are converted into non-zero return codes with a runtime-style
/// stderr line (segfault-like traps -> 139; device-mapping failures -> 1,
/// like the OpenACC runtime's FATAL ERROR path; budget exhaustion -> 124,
/// like `timeout(1)`). `mode` picks the dispatch core and `fuse` whether
/// the table core's decode pass fuses superinstructions (the reference core
/// never decodes, so it ignores `fuse`). Every combination is semantically
/// identical — byte-for-byte outputs, traps, return codes, and step counts;
/// tests/vm_dispatch_test.cpp enforces it.
ExecResult execute(const Module& module, const ExecLimits& limits = {},
                   DispatchMode mode = DispatchMode::kTable, bool fuse = true);

/// The pinned switch interpreter (== execute(..., DispatchMode::kReference));
/// differential tests diff the table core against this.
ExecResult execute_reference(const Module& module,
                             const ExecLimits& limits = {});

}  // namespace llm4vv::vm
