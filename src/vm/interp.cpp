#include "vm/interp.hpp"

#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <vector>

#include "frontend/builtins.hpp"
#include "vm/runtime.hpp"

namespace llm4vv::vm {

namespace {

/// Thrown by the exit() builtin to unwind the whole machine.
struct ExitSignal {
  int code;
};

/// One pre-decoded instruction: a handler index (the raw opcode value —
/// static_asserted against the inc-file order below) plus the packed
/// operands, flat in one cache-friendly stream per chunk.
struct DecodedInstr {
  std::uint32_t handler = 0;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t line = 0;
};

/// Handler index of the end-of-chunk sentinel appended to every decoded
/// chunk. Executing it reproduces the reference loop's per-fetch bounds
/// check ("fell off the end of a chunk") without paying a compare on every
/// dispatch.
constexpr std::uint32_t kChunkEndHandler =
    static_cast<std::uint32_t>(kOpCount);

struct DecodedChunk {
  std::vector<DecodedInstr> code;  ///< original instructions + 2 sentinels
};

struct DecodedProgram {
  std::vector<DecodedChunk> chunks;
};

/// The inc file must list every opcode in exact Op-enum order, because the
/// decoded handler index is the raw opcode value.
constexpr Op kIncOrder[] = {
#define VM_OP(NAME, ...) Op::NAME,
#include "vm/interp_ops.inc"
#undef VM_OP
};
static_assert(sizeof(kIncOrder) / sizeof(kIncOrder[0]) == kOpCount,
              "interp_ops.inc must define every opcode exactly once");
static_assert(
    [] {
      for (std::size_t i = 0; i < kOpCount; ++i) {
        if (static_cast<std::size_t>(kIncOrder[i]) != i) return false;
      }
      return true;
    }(),
    "interp_ops.inc bodies must appear in Op-enum order");

constexpr bool is_jump(Op op) noexcept {
  return op == Op::kJump || op == Op::kJumpIfFalse || op == Op::kJumpIfTrue;
}

/// Maximum component count of a superinstruction (pairs and triples only;
/// the decoded operand slots of the components stay in the stream, so this
/// bounds pattern length, not stream layout).
constexpr std::size_t kMaxFusionLength = 3;

/// One entry of the superinstruction pattern table, built from the VM_FUSE
/// list in interp_ops.inc. The decoded handler index of a fused site is
/// kOpCount + 1 + (index into this table) — right after the opcode handlers
/// and the end-of-chunk sentinel.
struct FusionPattern {
  const char* name;
  std::uint32_t length;
  Op ops[kMaxFusionLength];
};

constexpr FusionPattern make_fusion_pattern(const char* name,
                                            std::initializer_list<Op> ops) {
  FusionPattern p{name, 0, {Op::kNop, Op::kNop, Op::kNop}};
  for (Op op : ops) p.ops[p.length++] = op;
  return p;
}

constexpr FusionPattern kFusionPatterns[] = {
#define VM_FUSE(NAME, ...) make_fusion_pattern(#NAME, {__VA_ARGS__}),
#include "vm/interp_ops.inc"
#undef VM_FUSE
};
constexpr std::size_t kFusionPatternCount =
    sizeof(kFusionPatterns) / sizeof(kFusionPatterns[0]);
constexpr std::uint32_t kFusedHandlerBase = kChunkEndHandler + 1;

static_assert(
    [] {
      for (const FusionPattern& p : kFusionPatterns) {
        if (p.length < 2 || p.length > kMaxFusionLength) return false;
        for (std::uint32_t i = 0; i < p.length; ++i) {
          const Op op = p.ops[i];
          // Frame re-sync / unwind / halt ops must stay fetch boundaries,
          // and a branch may only be the final component (the fused handler
          // pre-advances s.pc, so only the last slot may overwrite it).
          if (op == Op::kCall || op == Op::kCallBuiltin || op == Op::kRet ||
              op == Op::kDevEnter || op == Op::kDevExit ||
              op == Op::kDevAction) {
            return false;
          }
          if (is_jump(op) && i + 1 != p.length) return false;
        }
      }
      return true;
    }(),
    "VM_FUSE patterns must be branch-terminated straight-line pairs/triples");

static_assert(
    [] {
      for (std::size_t i = 1; i < kFusionPatternCount; ++i) {
        if (kFusionPatterns[i].length > kFusionPatterns[i - 1].length) {
          return false;
        }
      }
      return true;
    }(),
    "VM_FUSE patterns are matched first-hit: longer patterns must come first");

/// Decode-time fusion telemetry, surfaced through ExecResult.
struct FusionStats {
  std::uint64_t fused_instructions = 0;  ///< superinstruction sites rewritten
  std::uint32_t fusion_patterns = 0;     ///< distinct patterns among them
};

/// Decode-time superinstruction fusion over one chunk's decoded stream
/// (`out[0, size)`, sentinels not yet appended). Greedy first-hit scan over
/// the pattern table (longer patterns first, static_asserted above). Two
/// invariants keep a fused stream byte-identical to the unfused one:
///
///   - No fusion across jump targets: a pattern is refused when any
///     INTERIOR component (everything but the head) is a branch target.
///     Component slots keep their original handlers regardless — only the
///     head's handler index is rewritten — so decoded indices stay 1:1
///     with bytecode indices and every jump target stays valid.
///   - Heads may be targets: jumping to the head executes the whole fused
///     sequence, which is identical to executing its components.
///
/// Matching runs over decoded handler indices (== raw opcode values at this
/// point), so out-of-range opcodes that decoded to kNop can never alias a
/// pattern component.
void fuse_chunk(std::vector<DecodedInstr>& out, std::int32_t size,
                FusionStats& stats, bool* patterns_seen) {
  if (size < 2) return;
  std::vector<bool> is_target(static_cast<std::size_t>(size), false);
  for (std::int32_t i = 0; i < size; ++i) {
    const DecodedInstr& d = out[static_cast<std::size_t>(i)];
    if (is_jump(static_cast<Op>(d.handler)) && d.a >= 0 && d.a < size) {
      is_target[static_cast<std::size_t>(d.a)] = true;
    }
  }
  std::int32_t i = 0;
  while (i < size) {
    std::int32_t matched = 0;
    for (std::size_t p = 0; p < kFusionPatternCount; ++p) {
      const FusionPattern& pattern = kFusionPatterns[p];
      const std::int32_t len = static_cast<std::int32_t>(pattern.length);
      if (i + len > size) continue;
      bool ok = true;
      for (std::int32_t k = 0; k < len && ok; ++k) {
        if (out[static_cast<std::size_t>(i + k)].handler !=
            static_cast<std::uint32_t>(pattern.ops[k])) {
          ok = false;
        }
        if (k > 0 && is_target[static_cast<std::size_t>(i + k)]) ok = false;
      }
      if (!ok) continue;
      out[static_cast<std::size_t>(i)].handler =
          kFusedHandlerBase + static_cast<std::uint32_t>(p);
      ++stats.fused_instructions;
      if (!patterns_seen[p]) {
        patterns_seen[p] = true;
        ++stats.fusion_patterns;
      }
      matched = len;
      break;
    }
    i += matched != 0 ? matched : 1;
  }
}

/// Lower a module's bytecode into the flat handler-index streams the table
/// core executes. Wild jump targets are rebased onto end-of-chunk
/// sentinels so they trap exactly like the reference loop's fetch bounds
/// check, line rendering included: a target of exactly `size` renders at
/// the last instruction's line there (ip - 1 lands in range), while a
/// target beyond `size` renders with no line (ip - 1 lands out of range) —
/// so each chunk gets TWO sentinels, one per line behaviour. A negative
/// target — undefined behaviour in the reference — becomes the same
/// defined no-line trap. Out-of-range opcodes match no case in the
/// reference switch and are skipped there; they decode to the same no-op.
/// With `fuse`, the fusion pass above then rewrites superinstruction heads.
DecodedProgram decode(const Module& module, bool fuse, FusionStats* stats) {
  DecodedProgram program;
  FusionStats local_stats;
  bool patterns_seen[kFusionPatternCount] = {};
  program.chunks.resize(module.chunks.size());
  for (std::size_t c = 0; c < module.chunks.size(); ++c) {
    const std::vector<Instr>& code = module.chunks[c].code;
    std::vector<DecodedInstr>& out = program.chunks[c].code;
    const std::int32_t size = static_cast<std::int32_t>(code.size());
    out.reserve(code.size() + 2);
    for (const Instr& instr : code) {
      DecodedInstr d;
      std::uint32_t handler = static_cast<std::uint32_t>(instr.op);
      if (handler >= kOpCount) {
        handler = static_cast<std::uint32_t>(Op::kNop);
      }
      d.handler = handler;
      d.a = instr.a;
      d.b = instr.b;
      d.line = instr.line;
      if (is_jump(instr.op) && (d.a < 0 || d.a > size)) d.a = size + 1;
      out.push_back(d);
    }
    if (fuse) fuse_chunk(out, size, local_stats, patterns_seen);
    // Sentinel at index `size`: sequential fall-off and jump-to-size land
    // here; the reference renders those at the last instruction's line.
    DecodedInstr end;
    end.handler = kChunkEndHandler;
    end.line = code.empty() ? 0 : code.back().line;
    out.push_back(end);
    // Sentinel at `size + 1`: rebased wild jumps land here; the reference
    // renders those with no line (frame.ip - 1 is out of range).
    DecodedInstr wild;
    wild.handler = kChunkEndHandler;
    wild.line = 0;
    out.push_back(wild);
  }
  if (stats != nullptr) *stats = local_stats;
  return program;
}

}  // namespace

/// Interpreter state shared with the runtime library (see runtime.hpp).
///
/// Two dispatch cores share this machine: the reference `switch` loop (the
/// behavioural pin), and the function-pointer-table core over the
/// pre-decoded stream, whose handlers and superinstructions expand the
/// single-source interp_ops.inc bodies. Drift from the reference is caught
/// by the differential suite in tests/vm_dispatch_test.cpp.
class Machine final : public RuntimeHost {
 public:
  Machine(const Module& module, const ExecLimits& limits)
      : module_(module), limits_(limits), memory_(limits.max_cells) {}

  ExecResult run(DispatchMode mode, bool fuse) {
    FusionStats fusion_stats;
    if (mode != DispatchMode::kReference) {
      decoded_storage_ = decode(module_, fuse, &fusion_stats);
      decoded_ = &decoded_storage_;
    }
    ExecResult result;
    try {
      if (module_.init_chunk >= 0) {
        call_chunk(module_.init_chunk, 0);
        run_loop(mode);
      }
      if (module_.main_chunk < 0) {
        throw Trap{TrapKind::kInternal, "module has no main chunk"};
      }
      stack_.clear();
      call_chunk(module_.main_chunk, 0);
      run_loop(mode);
      const Value ret = pop();
      result.return_code = static_cast<int>(ret.as_int() & 0xff);
    } catch (const ExitSignal& signal) {
      result.return_code = signal.code & 0xff;
    } catch (const Trap& trap) {
      result.trap = trap.kind;
      result.stderr_text += render_trap(trap);
      result.return_code = trap_return_code(trap.kind);
    }
    result.stdout_text = std::move(stdout_);
    result.stderr_text = stderr_ + result.stderr_text;
    result.steps = steps_;
    result.fused_instructions = fusion_stats.fused_instructions;
    result.fusion_patterns = fusion_stats.fusion_patterns;
    return result;
  }

  // -- services used by the runtime library --------------------------------

  Memory& memory() override { return memory_; }
  bool device_mode() const override { return device_depth_ > 0; }

  const std::string& string_at(std::uint64_t index) const override {
    if (index >= module_.strings.size()) {
      throw Trap{TrapKind::kInternal, "bad string index"};
    }
    return module_.strings[index];
  }

  void write_stdout(const std::string& text) override {
    if (stdout_.size() + text.size() > limits_.max_output) {
      stdout_.append(text, 0, limits_.max_output - stdout_.size());
      throw Trap{TrapKind::kOutputLimit, "stdout budget exhausted"};
    }
    stdout_ += text;
  }

  void write_stderr(const std::string& text) override {
    // Same budget as stdout: a runaway generated test spamming fprintf must
    // not grow stderr_ without bound.
    if (stderr_.size() + text.size() > limits_.max_output) {
      stderr_.append(text, 0, limits_.max_output - stderr_.size());
      throw Trap{TrapKind::kOutputLimit, "stderr budget exhausted"};
    }
    stderr_ += text;
  }

  [[noreturn]] void exit_now(int code) override { throw ExitSignal{code}; }

  Value pop() override {
    if (stack_.empty()) {
      throw Trap{TrapKind::kInternal, "value stack underflow"};
    }
    Value v = stack_.back();
    stack_.pop_back();
    return v;
  }

  void push(Value v) override { stack_.push_back(v); }

  std::uint64_t& rand_state() override { return rand_state_; }

 private:
  struct Frame {
    std::int32_t chunk = 0;
    std::int32_t ip = 0;
    std::vector<Value> slots;
  };

  /// Per-loop cached execution state of the table core: the live frame,
  /// its decoded code stream, the instruction pointer, and register-
  /// friendly copies of the step budget. Re-synced after anything that
  /// changes the frame stack (call/ret). Unlike the reference loop, the
  /// table core does not write frame->ip per instruction — the kCall body
  /// saves the return address, and trap positions come from
  /// Machine::fast_ins_ (published per fetch) instead.
  struct ExecState {
    Frame* frame = nullptr;
    const DecodedInstr* code = nullptr;  ///< chunk base (jump targets)
    const DecodedInstr* pc = nullptr;    ///< next instruction to fetch
    const Value* consts = nullptr;
    std::uint64_t steps = 0;
    std::uint64_t max_steps = 0;
    bool halted = false;

    void sync(Machine& m) {
      frame = &m.frames_.back();
      code = m.decoded_->chunks[static_cast<std::size_t>(frame->chunk)]
                 .code.data();
      pc = code + frame->ip;
    }

    void enter(Machine& m) {
      consts = m.module_.consts.data();
      steps = m.steps_;
      max_steps = m.limits_.max_steps;
      sync(m);
    }
  };

  /// Publishes the table core's local step counter back into the machine on
  /// every exit path — including a trap unwinding to run()'s catch, which
  /// reads steps_ for the result.
  struct StepsSync {
    Machine& m;
    ExecState& s;
    ~StepsSync() { m.steps_ = s.steps; }
  };

  using Handler = void (*)(Machine&, ExecState&, const DecodedInstr*);

  void call_chunk(std::int32_t chunk_index, std::int32_t argc) {
    if (frames_.size() >= limits_.max_frames) {
      throw Trap{TrapKind::kStackOverflow, "call depth limit exceeded"};
    }
    const Chunk& chunk = module_.chunks[static_cast<std::size_t>(chunk_index)];
    Frame frame;
    frame.chunk = chunk_index;
    frame.slots.resize(static_cast<std::size_t>(chunk.slot_count));
    // Arguments were pushed left-to-right; pop right-to-left.
    for (std::int32_t i = argc - 1; i >= 0; --i) {
      if (i < chunk.param_count) {
        frame.slots[static_cast<std::size_t>(i)] = pop();
      } else {
        pop();  // excess argument (variadic user call): dropped
      }
    }
    frames_.push_back(std::move(frame));
  }

  int trap_return_code(TrapKind kind) const {
    switch (kind) {
      case TrapKind::kNotPresent: return 1;    // OpenACC runtime FATAL ERROR
      case TrapKind::kStepLimit:
      case TrapKind::kOutputLimit: return 124; // timeout-style
      case TrapKind::kBadAlloc: return 134;    // abort-style
      default: return 139;                     // SIGSEGV-style
    }
  }

  std::string render_trap(const Trap& trap) const {
    const int line = current_line();
    std::string out = "runtime error";
    if (line > 0) out += " at line " + std::to_string(line);
    out += ": " + trap.message + " [" + trap_kind_name(trap.kind) + "]\n";
    return out;
  }

  int current_line() const {
    // The table core publishes the executing instruction instead of writing
    // frame->ip back on every fetch; its decoded line is the reference
    // loop's code[frame.ip - 1].line.
    if (fast_ins_ != nullptr) return fast_ins_->line;
    if (frames_.empty()) return 0;
    const Frame& frame = frames_.back();
    const auto& code =
        module_.chunks[static_cast<std::size_t>(frame.chunk)].code;
    const std::size_t ip = static_cast<std::size_t>(
        frame.ip > 0 ? frame.ip - 1 : 0);
    if (ip < code.size()) return code[ip].line;
    return 0;
  }

  // -- arithmetic helpers ---------------------------------------------------

  static bool both_int(const Value& a, const Value& b) {
    return a.tag == ValueTag::kInt && b.tag == ValueTag::kInt;
  }

  Value add(const Value& a, const Value& b) {
    if (a.tag == ValueTag::kPointer) {
      return Value::from_pointer(a.ptr + static_cast<std::uint64_t>(b.as_int()));
    }
    if (b.tag == ValueTag::kPointer) {
      return Value::from_pointer(b.ptr + static_cast<std::uint64_t>(a.as_int()));
    }
    if (both_int(a, b)) return Value::from_int(a.i + b.i);
    return Value::from_float(a.as_float() + b.as_float());
  }

  Value sub(const Value& a, const Value& b) {
    if (a.tag == ValueTag::kPointer && b.tag == ValueTag::kPointer) {
      return Value::from_int(static_cast<std::int64_t>(a.ptr - b.ptr));
    }
    if (a.tag == ValueTag::kPointer) {
      return Value::from_pointer(a.ptr - static_cast<std::uint64_t>(b.as_int()));
    }
    if (both_int(a, b)) return Value::from_int(a.i - b.i);
    return Value::from_float(a.as_float() - b.as_float());
  }

  Value mul(const Value& a, const Value& b) {
    if (both_int(a, b)) return Value::from_int(a.i * b.i);
    return Value::from_float(a.as_float() * b.as_float());
  }

  Value div(const Value& a, const Value& b) {
    if (both_int(a, b)) {
      if (b.i == 0) throw Trap{TrapKind::kDivByZero, "integer division by zero"};
      return Value::from_int(a.i / b.i);
    }
    return Value::from_float(a.as_float() / b.as_float());
  }

  Value mod(const Value& a, const Value& b) {
    if (b.as_int() == 0) {
      throw Trap{TrapKind::kDivByZero, "integer remainder by zero"};
    }
    return Value::from_int(a.as_int() % b.as_int());
  }

  Value compare(Op op, const Value& a, const Value& b) {
    bool result = false;
    if (both_int(a, b)) {
      switch (op) {
        case Op::kEq: result = a.i == b.i; break;
        case Op::kNe: result = a.i != b.i; break;
        case Op::kLt: result = a.i < b.i; break;
        case Op::kLe: result = a.i <= b.i; break;
        case Op::kGt: result = a.i > b.i; break;
        default: result = a.i >= b.i; break;
      }
    } else if (a.tag == ValueTag::kPointer || b.tag == ValueTag::kPointer) {
      const auto pa = a.tag == ValueTag::kPointer
                          ? a.ptr
                          : static_cast<std::uint64_t>(a.as_int());
      const auto pb = b.tag == ValueTag::kPointer
                          ? b.ptr
                          : static_cast<std::uint64_t>(b.as_int());
      switch (op) {
        case Op::kEq: result = pa == pb; break;
        case Op::kNe: result = pa != pb; break;
        case Op::kLt: result = pa < pb; break;
        case Op::kLe: result = pa <= pb; break;
        case Op::kGt: result = pa > pb; break;
        default: result = pa >= pb; break;
      }
    } else {
      const double fa = a.as_float();
      const double fb = b.as_float();
      switch (op) {
        case Op::kEq: result = fa == fb; break;
        case Op::kNe: result = fa != fb; break;
        case Op::kLt: result = fa < fb; break;
        case Op::kLe: result = fa <= fb; break;
        case Op::kGt: result = fa > fb; break;
        default: result = fa >= fb; break;
      }
    }
    return Value::from_int(result ? 1 : 0);
  }

  // -- device regions -------------------------------------------------------

  void process_clause_ops(const std::vector<ClauseOp>& ops) {
    for (const auto& op : ops) {
      const Value base_val = op.is_global
                                 ? globals_[static_cast<std::size_t>(op.slot)]
                                 : frames_.back()
                                       .slots[static_cast<std::size_t>(op.slot)];
      const std::uint64_t base =
          base_val.tag == ValueTag::kPointer
              ? base_val.ptr
              : static_cast<std::uint64_t>(base_val.as_int());
      switch (op.action) {
        case ClauseAction::kCopyin:
          memory_.map_to_device(base, /*copy_to_device=*/true, op.var_name);
          break;
        case ClauseAction::kCreate:
        case ClauseAction::kCopyout:
          memory_.map_to_device(base, /*copy_to_device=*/false, op.var_name);
          break;
        case ClauseAction::kCopy:
          memory_.map_to_device(base, /*copy_to_device=*/true, op.var_name);
          break;
        case ClauseAction::kPresent:
          if (!memory_.is_present(base)) {
            throw Trap{TrapKind::kNotPresent,
                       "data in PRESENT clause was not found on device: " +
                           op.var_name};
          }
          break;
        case ClauseAction::kDelete:
          memory_.unmap_from_device(base, /*copy_back=*/false,
                                    /*force=*/false, op.var_name);
          break;
        case ClauseAction::kExitCopyout:
          memory_.unmap_from_device(base, /*copy_back=*/true,
                                    /*force=*/false, op.var_name);
          break;
        case ClauseAction::kUpdateHost:
          memory_.copy_mirror(base, /*to_host=*/true, op.var_name);
          break;
        case ClauseAction::kUpdateDevice:
          memory_.copy_mirror(base, /*to_host=*/false, op.var_name);
          break;
        case ClauseAction::kNoOp:
          break;
      }
    }
  }

  // -- dispatch cores -------------------------------------------------------

  void run_loop(DispatchMode mode) {
    if (mode == DispatchMode::kReference) {
      run_loop_reference();
      return;
    }
    run_loop_table();
    // Normal completion: stop trap rendering from reading a stale
    // instruction (a later trap outside any loop — e.g. an exhausted frame
    // budget on the main call — must render like the reference). A trap
    // unwinding past this keeps fast_ins_, which IS the trap position.
    fast_ins_ = nullptr;
  }

  /// Sentinel handler: the decoded stream's end-of-chunk marker. The fetch
  /// already charged a step; undo it so the trap is byte-identical to the
  /// reference loop's bounds check (which fires before step accounting).
  [[noreturn]] static void handler_chunk_end(Machine& m, ExecState& s,
                                             const DecodedInstr*) {
    (void)m;
    --s.steps;
    throw Trap{TrapKind::kInternal, "fell off the end of a chunk"};
  }

  /// Slow path of the fetch's step-budget check. A sentinel fetch must
  /// trap as end-of-chunk, not budget exhaustion — the reference loop
  /// checks bounds before charging the step.
  [[noreturn]] void step_trap(ExecState& s, const DecodedInstr* ins) {
    if (ins->handler == kChunkEndHandler) handler_chunk_end(*this, s, ins);
    throw Trap{TrapKind::kStepLimit, "instruction budget exhausted"};
  }

  // Handler definitions, one static function per opcode, expanded from the
  // single-source bodies in interp_ops.inc.
#define VM_OP(NAME, ...)                                \
  static void handler_##NAME(Machine& m, ExecState& s,  \
                             const DecodedInstr* ins) { \
    (void)m;                                            \
    (void)s;                                            \
    (void)ins;                                          \
    __VA_ARGS__                                         \
  }
#include "vm/interp_ops.inc"
#undef VM_OP

  /// Compile-time dispatch from a component opcode to its VM_OP handler —
  /// how a superinstruction reuses the exact single-source bodies above, so
  /// a fused sequence cannot drift from its unfused components. Resolves to
  /// one direct (inlinable) call.
  template <Op C>
  static void run_component(Machine& m, ExecState& s,
                            const DecodedInstr* ins) {
#define VM_OP(NAME, ...) \
  if constexpr (C == Op::NAME) return handler_##NAME(m, s, ins);
#include "vm/interp_ops.inc"
#undef VM_OP
  }

  /// Runs components 2..N of a fused sequence: each one publishes its
  /// position (so a trap unwinding from the body renders the component's
  /// line, not the head's), then replays the loop head's step charge —
  /// `++steps` with a budget check BEFORE the body, so a budget landing
  /// mid-sequence traps at exactly the component the reference loop would
  /// have been fetching, with the same final count.
  template <Op C, Op... Rest>
  static void run_fused_tail(Machine& m, ExecState& s,
                             const DecodedInstr* cur) {
    ++cur;
    m.fast_ins_ = cur;
    if (++s.steps > s.max_steps) [[unlikely]] {
      throw Trap{TrapKind::kStepLimit, "instruction budget exhausted"};
    }
    run_component<C>(m, s, cur);
    if constexpr (sizeof...(Rest) > 0) run_fused_tail<Rest...>(m, s, cur);
  }

  /// Superinstruction handler: one per VM_FUSE pattern, instantiated over
  /// the pattern's component opcodes. The loop head already fetched the
  /// head component and charged its step; s.pc is pre-advanced past the
  /// sequence so fall-through resumes after it (only a final-component
  /// branch may overwrite it — static_asserted at the pattern table).
  /// Trap-position accounting is eager: each component stores its position
  /// to fast_ins_ before running (a predictable store, measurably cheaper
  /// here than a try/catch keeping the position live across every call),
  /// and normal completion clears it so the loop catches fall back to the
  /// fetched instruction for non-fused traps.
  template <Op Head, Op... Rest>
#if defined(__GNUC__) || defined(__clang__)
  // Inline the component bodies into the superinstruction: with plain
  // calls the fused handler pays call setup per component and wins nothing
  // over the (well-predicted) dispatch loop; flattened, the compiler
  // combines the components' stack-pointer and pc bookkeeping into
  // straight-line code, which is where the fusion throughput comes from.
  __attribute__((flatten))
#endif
  static void handler_fused(Machine& m, ExecState& s,
                            const DecodedInstr* ins) {
    s.pc = ins + 1 + sizeof...(Rest);
    m.fast_ins_ = ins;
    run_component<Head>(m, s, ins);
    run_fused_tail<Rest...>(m, s, ins);
    m.fast_ins_ = nullptr;
  }

  static constexpr Handler kHandlers[] = {
#define VM_OP(NAME, ...) &Machine::handler_##NAME,
#include "vm/interp_ops.inc"
#undef VM_OP
      &Machine::handler_chunk_end,
#define VM_FUSE(NAME, ...) &Machine::handler_fused<__VA_ARGS__>,
#include "vm/interp_ops.inc"
#undef VM_FUSE
  };
  static_assert(sizeof(kHandlers) / sizeof(kHandlers[0]) ==
                    kOpCount + 1 + kFusionPatternCount,
                "one handler per opcode, the end-of-chunk sentinel, and one "
                "per superinstruction pattern");

  /// The fast core: pre-decoded stream + function-pointer table.
  void run_loop_table() {
    ExecState s;
    s.enter(*this);
    StepsSync sync_guard{*this, s};
    const DecodedInstr* ins = nullptr;
    try {
      for (;;) {
        ins = s.pc++;
        if (++s.steps > s.max_steps) [[unlikely]] step_trap(s, ins);
        kHandlers[ins->handler](*this, s, ins);
        if (s.halted) return;
      }
    } catch (...) {
      // Publish the trapping instruction for line rendering only on the
      // unwind path, keeping the fetch free of per-instruction stores. A
      // superinstruction that trapped mid-sequence already published the
      // precise component; fast_ins_ is null during normal execution.
      if (fast_ins_ == nullptr) fast_ins_ = ins;
      throw;
    }
  }

  /// The original per-instruction switch decode loop, kept verbatim as the
  /// behavioural reference for differential testing.
  void run_loop_reference() {
    while (!frames_.empty()) {
      Frame& frame = frames_.back();
      const Chunk& chunk =
          module_.chunks[static_cast<std::size_t>(frame.chunk)];
      if (frame.ip >= static_cast<std::int32_t>(chunk.code.size())) {
        throw Trap{TrapKind::kInternal, "fell off the end of a chunk"};
      }
      const Instr instr = chunk.code[static_cast<std::size_t>(frame.ip++)];
      if (++steps_ > limits_.max_steps) {
        throw Trap{TrapKind::kStepLimit, "instruction budget exhausted"};
      }
      switch (instr.op) {
        case Op::kNop:
          break;
        case Op::kPushConst:
          push(module_.consts[static_cast<std::size_t>(instr.a)]);
          break;
        case Op::kLoadSlot:
          push(frame.slots[static_cast<std::size_t>(instr.a)]);
          break;
        case Op::kStoreSlot:
          frame.slots[static_cast<std::size_t>(instr.a)] = pop();
          break;
        case Op::kLoadGlobal:
          push(globals_[static_cast<std::size_t>(instr.a)]);
          break;
        case Op::kStoreGlobal:
          globals_[static_cast<std::size_t>(instr.a)] = pop();
          break;
        case Op::kAddrSlot:
        case Op::kAddrGlobal:
          // Address-of scalars is outside the subset; lowering never emits
          // these (kept for bytecode completeness).
          push(Value::from_pointer(0));
          break;
        case Op::kLoadInd: {
          const Value addr = pop();
          push(memory_.load(pointer_of(addr), device_mode()));
          break;
        }
        case Op::kStoreInd: {
          const Value value = pop();
          const Value addr = pop();
          memory_.store(pointer_of(addr), value, device_mode());
          break;
        }
        case Op::kStoreIndKeep: {
          const Value value = pop();
          const Value addr = pop();
          memory_.store(pointer_of(addr), value, device_mode());
          push(value);
          break;
        }
        case Op::kIndexAddr: {
          const Value index = pop();
          const Value base = pop();
          const std::uint64_t p = pointer_of(base);
          if (p == 0) {
            throw Trap{TrapKind::kNullDeref,
                       "indexing a null or uninitialized pointer"};
          }
          push(Value::from_pointer(
              p + static_cast<std::uint64_t>(index.as_int())));
          break;
        }
        case Op::kAdd: { const Value b = pop(), a = pop(); push(add(a, b)); break; }
        case Op::kSub: { const Value b = pop(), a = pop(); push(sub(a, b)); break; }
        case Op::kMul: { const Value b = pop(), a = pop(); push(mul(a, b)); break; }
        case Op::kDiv: { const Value b = pop(), a = pop(); push(div(a, b)); break; }
        case Op::kMod: { const Value b = pop(), a = pop(); push(mod(a, b)); break; }
        case Op::kNeg: {
          const Value a = pop();
          if (a.tag == ValueTag::kInt) push(Value::from_int(-a.i));
          else push(Value::from_float(-a.as_float()));
          break;
        }
        case Op::kNot:
          push(Value::from_int(pop().truthy() ? 0 : 1));
          break;
        case Op::kBitNot:
          push(Value::from_int(~pop().as_int()));
          break;
        case Op::kEq: case Op::kNe: case Op::kLt:
        case Op::kLe: case Op::kGt: case Op::kGe: {
          const Value b = pop(), a = pop();
          push(compare(instr.op, a, b));
          break;
        }
        case Op::kBitAnd: { const Value b = pop(), a = pop(); push(Value::from_int(a.as_int() & b.as_int())); break; }
        case Op::kBitOr: { const Value b = pop(), a = pop(); push(Value::from_int(a.as_int() | b.as_int())); break; }
        case Op::kBitXor: { const Value b = pop(), a = pop(); push(Value::from_int(a.as_int() ^ b.as_int())); break; }
        case Op::kShl: { const Value b = pop(), a = pop(); push(Value::from_int(a.as_int() << (b.as_int() & 63))); break; }
        case Op::kShr: { const Value b = pop(), a = pop(); push(Value::from_int(a.as_int() >> (b.as_int() & 63))); break; }
        case Op::kCastInt:
          push(Value::from_int(pop().as_int()));
          break;
        case Op::kCastFloat:
          push(Value::from_float(pop().as_float()));
          break;
        case Op::kJump:
          frame.ip = instr.a;
          break;
        case Op::kJumpIfFalse: {
          if (!pop().truthy()) frame.ip = instr.a;
          break;
        }
        case Op::kJumpIfTrue: {
          if (pop().truthy()) frame.ip = instr.a;
          break;
        }
        case Op::kCall:
          call_chunk(instr.a, instr.b);
          break;
        case Op::kCallBuiltin:
          push(call_builtin(*this, instr.a, instr.b));
          break;
        case Op::kRet: {
          const Value result = pop();
          frames_.pop_back();
          if (frames_.empty()) {
            push(result);
            return;
          }
          push(result);
          break;
        }
        case Op::kPop:
          pop();
          break;
        case Op::kDup: {
          const Value v = pop();
          push(v);
          push(v);
          break;
        }
        case Op::kSwap: {
          const Value b = pop(), a = pop();
          push(b);
          push(a);
          break;
        }
        case Op::kAllocArray: {
          const std::uint64_t count =
              instr.b > 0 ? static_cast<std::uint64_t>(instr.b)
                          : static_cast<std::uint64_t>(pop().as_int());
          const std::uint64_t base = memory_.allocate(count, /*heap=*/false);
          frame.slots[static_cast<std::size_t>(instr.a)] =
              Value::from_pointer(base);
          break;
        }
        case Op::kAllocGlobalArray: {
          const std::uint64_t count =
              instr.b > 0 ? static_cast<std::uint64_t>(instr.b)
                          : static_cast<std::uint64_t>(pop().as_int());
          const std::uint64_t base = memory_.allocate(count, /*heap=*/false);
          // Globals zero-initialize.
          for (std::uint64_t i = 0; i < count; ++i) {
            memory_.store(base + i, Value::from_int(0), false);
          }
          globals_[static_cast<std::size_t>(instr.a)] =
              Value::from_pointer(base);
          break;
        }
        case Op::kDevEnter: {
          const Region& region =
              module_.regions[static_cast<std::size_t>(instr.a)];
          process_clause_ops(region.enter_ops);
          if (region.device_mode) ++device_depth_;
          break;
        }
        case Op::kDevExit: {
          const Region& region =
              module_.regions[static_cast<std::size_t>(instr.a)];
          if (region.device_mode) --device_depth_;
          process_clause_ops(region.exit_ops);
          break;
        }
        case Op::kDevAction: {
          const Region& region =
              module_.regions[static_cast<std::size_t>(instr.a)];
          process_clause_ops(region.enter_ops);
          break;
        }
      }
    }
  }

  static std::uint64_t pointer_of(const Value& v) {
    switch (v.tag) {
      case ValueTag::kPointer: return v.ptr;
      case ValueTag::kInt: return static_cast<std::uint64_t>(v.i);
      case ValueTag::kUninit:
        throw Trap{TrapKind::kNullDeref,
                   "dereference of an uninitialized pointer"};
      default:
        throw Trap{TrapKind::kOutOfBounds, "dereference of a non-pointer"};
    }
  }

  const Module& module_;
  const ExecLimits& limits_;
  Memory memory_;
  std::vector<Frame> frames_;
  std::vector<Value> stack_;
  std::vector<Value> globals_ =
      std::vector<Value>(static_cast<std::size_t>(module_.global_slot_count));
  std::string stdout_;
  std::string stderr_;
  std::uint64_t steps_ = 0;
  int device_depth_ = 0;
  std::uint64_t rand_state_ = 0x5eed5eed5eed5eedULL;
  /// Decoded streams of the table core (unused in reference mode).
  DecodedProgram decoded_storage_;
  const DecodedProgram* decoded_ = nullptr;
  /// Instruction the table core is currently executing; consulted by
  /// current_line() so trap messages render the reference-identical
  /// position without the loops writing frame->ip back on every fetch.
  const DecodedInstr* fast_ins_ = nullptr;
};

const char* dispatch_mode_name(DispatchMode mode) noexcept {
  switch (mode) {
    case DispatchMode::kReference: return "reference";
    case DispatchMode::kTable: return "table";
  }
  return "?";
}

std::size_t fusion_pattern_count() noexcept { return kFusionPatternCount; }

const char* fusion_pattern_name(std::size_t pattern) noexcept {
  return pattern < kFusionPatternCount ? kFusionPatterns[pattern].name : "?";
}

std::size_t fusion_pattern_length(std::size_t pattern) noexcept {
  return pattern < kFusionPatternCount ? kFusionPatterns[pattern].length : 0;
}

Op fusion_pattern_component(std::size_t pattern, std::size_t index) noexcept {
  if (pattern >= kFusionPatternCount ||
      index >= kFusionPatterns[pattern].length) {
    return Op::kNop;
  }
  return kFusionPatterns[pattern].ops[index];
}

ExecResult execute(const Module& module, const ExecLimits& limits,
                   DispatchMode mode, bool fuse) {
  Machine machine(module, limits);
  return machine.run(mode, fuse);
}

ExecResult execute_reference(const Module& module, const ExecLimits& limits) {
  return execute(module, limits, DispatchMode::kReference);
}

}  // namespace llm4vv::vm
