#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "vm/value.hpp"

namespace llm4vv::vm {

/// Bytecode operations. The machine is a conventional value-stack VM with
/// per-call frames; device data movement is encoded as region ops whose
/// clause programs live in Module::regions.
enum class Op : std::uint8_t {
  kNop,
  kPushConst,    ///< a: index into Module::consts
  kLoadSlot,     ///< a: frame slot
  kStoreSlot,    ///< a: frame slot (pops)
  kLoadGlobal,   ///< a: global slot
  kStoreGlobal,  ///< a: global slot (pops)
  kAddrSlot,     ///< a: frame slot; pushes the slot's address
  kAddrGlobal,   ///< a: global slot; pushes the slot's address
  kLoadInd,      ///< pops address; pushes memory[address]
  kStoreInd,     ///< pops value, pops address; memory[address] = value
  kStoreIndKeep, ///< like kStoreInd but re-pushes the stored value
  kIndexAddr,    ///< pops index, pops base pointer; pushes base + index
  // Arithmetic (numeric-tag polymorphic; pointer arithmetic on kAdd/kSub).
  kAdd, kSub, kMul, kDiv, kMod,
  kNeg, kNot, kBitNot,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kBitAnd, kBitOr, kBitXor, kShl, kShr,
  kCastInt,      ///< numeric cast to integer
  kCastFloat,    ///< numeric cast to float
  kJump,         ///< a: absolute target
  kJumpIfFalse,  ///< a: absolute target (pops condition)
  kJumpIfTrue,   ///< a: absolute target (pops condition)
  kCall,         ///< a: function index, b: argc
  kCallBuiltin,  ///< a: builtin index,  b: argc
  kRet,          ///< pops the return value, unwinds the frame
  kPop,
  kDup,
  kSwap,         ///< swaps the two topmost stack values
  kAllocArray,   ///< a: frame slot, b: element-count (0 = pop count);
                 ///< allocates and stores the base pointer into the slot
  kAllocGlobalArray,  ///< a: global slot, b: element count
  kDevEnter,     ///< a: region index — enter a structured data/compute region
  kDevExit,      ///< a: region index — leave it (processes copy-backs)
  kDevAction,    ///< a: region index — unstructured enter/exit data or update
};

/// Number of opcodes — the size of the interpreter's dispatch tables (the
/// table core indexes its handler array by the raw opcode value).
inline constexpr std::size_t kOpCount =
    static_cast<std::size_t>(Op::kDevAction) + 1;

/// One instruction. `line` drives runtime error positions.
struct Instr {
  Op op = Op::kNop;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t line = 0;
};

/// Data-movement actions compiled from directive clauses.
enum class ClauseAction : std::uint8_t {
  kCopyin,       ///< allocate mirror + host->device copy (or ++refcount)
  kCopyout,      ///< allocate mirror; device->host copy on release
  kCopy,         ///< copyin + copyout
  kCreate,       ///< allocate uninitialized mirror
  kPresent,      ///< trap when not already mapped
  kDelete,       ///< drop mapping without copy-back
  kExitCopyout,  ///< `exit data copyout(...)`: device->host copy, then drop
  kUpdateHost,   ///< device->host copy (mapping unchanged)
  kUpdateDevice, ///< host->device copy (mapping unchanged)
  kNoOp,         ///< attach/detach & friends: no observable effect here
};

/// One compiled clause operation. The referenced variable is a slot holding
/// the array base pointer (whole-allocation mapping; array sections map
/// their full allocation — see DESIGN.md §5).
struct ClauseOp {
  ClauseAction action = ClauseAction::kNoOp;
  bool is_global = false;
  std::int32_t slot = 0;
  std::string var_name;  ///< for runtime error messages
};

/// Compiled form of one directive region.
struct Region {
  bool device_mode = false;  ///< true for offloaded compute constructs
  std::vector<ClauseOp> enter_ops;
  std::vector<ClauseOp> exit_ops;
  std::string directive;  ///< rendered name for error messages
  int line = 0;
};

/// One compiled function.
struct Chunk {
  std::string name;
  std::int32_t param_count = 0;
  std::int32_t slot_count = 0;   ///< params + locals
  std::vector<Instr> code;
};

/// A fully lowered program, ready for the interpreter.
struct Module {
  std::vector<Chunk> chunks;
  std::vector<Value> consts;
  std::vector<std::string> strings;
  std::vector<Region> regions;
  std::int32_t global_slot_count = 0;
  std::int32_t main_chunk = -1;
  /// Chunk executed before main to initialize globals (-1 when absent).
  std::int32_t init_chunk = -1;
};

/// Human-readable disassembly of one chunk (used by tests and debugging).
std::string disassemble(const Module& module, const Chunk& chunk);

/// Opcode mnemonic.
const char* op_name(Op op) noexcept;

}  // namespace llm4vv::vm
