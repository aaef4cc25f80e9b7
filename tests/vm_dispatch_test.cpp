// Differential test of the VM dispatch cores: the pre-decoded table core,
// with superinstruction fusion both on and off, must be byte-identical to
// the pinned reference switch interpreter — outputs, traps, return codes,
// and exact step accounting — over hand-written programs, generated +
// probed corpora, and randomized raw bytecode modules (1000+ by default;
// seed and count are env overridable so CI failures reproduce locally, and
// any mismatch prints a self-contained reproducer with the module dump).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "corpus/generator.hpp"
#include "probing/prober.hpp"
#include "tests/test_util.hpp"
#include "toolchain/compiler.hpp"
#include "vm/bytecode.hpp"
#include "vm/interp.hpp"
#include "vm/lower.hpp"

namespace llm4vv::vm {
namespace {

void expect_identical(const ExecResult& ref, const ExecResult& got,
                      DispatchMode mode, bool fuse, const std::string& what) {
  const std::string context = what + " [" + dispatch_mode_name(mode) +
                              (fuse ? "+fused" : "+unfused") +
                              " vs reference]";
  EXPECT_EQ(ref.return_code, got.return_code) << context;
  EXPECT_EQ(ref.stdout_text, got.stdout_text) << context;
  EXPECT_EQ(ref.stderr_text, got.stderr_text) << context;
  EXPECT_EQ(ref.trap, got.trap) << context;
  EXPECT_EQ(ref.steps, got.steps) << context;
  // Telemetry sanity rides along: fusion off must report zero fused sites,
  // and pattern count can never exceed site count.
  if (!fuse) {
    EXPECT_EQ(got.fused_instructions, 0u) << context;
  }
  EXPECT_LE(got.fusion_patterns, got.fused_instructions) << context;
}

/// The full differential matrix for one module: the reference core is the
/// oracle; the table core runs with fusion both off and on.
void diff_module(const Module& module, const ExecLimits& limits,
                 const std::string& what) {
  const ExecResult ref = execute_reference(module, limits);
  for (const bool fuse : {false, true}) {
    expect_identical(ref, execute(module, limits, DispatchMode::kTable, fuse),
                     DispatchMode::kTable, fuse, what);
  }
}

Module compile_module(const std::string& source,
                      frontend::Flavor flavor = frontend::Flavor::kOpenACC) {
  frontend::DiagnosticEngine diags;
  auto program = testutil::analyze_source(source, diags, flavor);
  if (diags.has_errors()) {
    std::string message = "compile failed:";
    for (const auto& d : diags.diagnostics()) {
      message += " [line " + std::to_string(d.line) + "] " + d.message + ";";
    }
    throw std::runtime_error(message);
  }
  LowerOptions lopts;
  lopts.flavor = flavor;
  return lower(program, lopts);
}

void diff_source(const std::string& source, const ExecLimits& limits = {}) {
  diff_module(compile_module(source), limits, source.substr(0, 60));
}

// ---------------------------------------------------------------------------
// Hand-written programs: arithmetic, control flow, memory, device regions,
// and every trap kind the front-end can reach.
// ---------------------------------------------------------------------------

TEST(VmDispatchDiffTest, StraightLinePrograms) {
  diff_source("int main() { return 2 + 3 * 4 - 20 / 4 + 10 % 3; }");
  diff_source("int main() { double x = 7.9; return (int)(x * 2.0) - 9; }");
  diff_source("int main() { int a = 5; return a > 3 ? (a << 2) : ~a; }");
  diff_source("int main() { int z = 0; return (0 && (1 / z)) + 10; }");
}

TEST(VmDispatchDiffTest, LoopsCallsAndRecursion) {
  diff_source(
      "int fib(int n) { if (n < 2) { return n; } "
      "return fib(n - 1) + fib(n - 2); }\n"
      "int main() { return fib(12) % 100; }");
  diff_source(
      "int main() { int s = 0; for (int i = 0; i < 50; i++) { "
      "if (i % 3 == 0) { continue; } s += i; } return s % 100; }");
  diff_source(
      "int g;\n"
      "void bump() { g = g + 3; return; }\n"
      "int main() { for (int i = 0; i < 7; i++) { bump(); } return g; }");
}

TEST(VmDispatchDiffTest, MemoryAndIo) {
  diff_source(
      "#include <stdlib.h>\n#include <stdio.h>\n"
      "int main() {\n"
      "  int *a = (int *)malloc(16 * sizeof(int));\n"
      "  for (int i = 0; i < 16; i++) { a[i] = i * i; }\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < 16; i++) { s += a[i]; }\n"
      "  printf(\"sum=%d\\n\", s);\n"
      "  free(a);\n"
      "  return s > 0 ? 0 : 1;\n"
      "}");
  diff_source(
      "#include <stdio.h>\n"
      "int main() { fprintf(0, \"warn %d\\n\", 42); puts(\"done\"); "
      "return 0; }");  // the stream arg is dropped; output goes to stderr
}

TEST(VmDispatchDiffTest, DeviceRegions) {
  diff_source(
      "#include <stdlib.h>\n"
      "int main() {\n"
      "  double *a = (double *)malloc(64 * sizeof(double));\n"
      "  for (int i = 0; i < 64; i++) { a[i] = i * 0.5; }\n"
      "#pragma acc parallel loop copy(a[0:64])\n"
      "  for (int i = 0; i < 64; i++) { a[i] = a[i] * 2.0; }\n"
      "  double s = 0.0;\n"
      "  for (int i = 0; i < 64; i++) { s = s + a[i]; }\n"
      "  free(a);\n"
      "  return s > 0.0 ? 0 : 1;\n"
      "}");
  // present() without a prior mapping: the kNotPresent trap path.
  diff_source(
      "#include <stdlib.h>\n"
      "int main() {\n"
      "  int *a = (int *)malloc(8 * sizeof(int));\n"
      "  a[0] = 1;\n"
      "#pragma acc parallel loop present(a[0:8])\n"
      "  for (int i = 0; i < 8; i++) { a[i] = i; }\n"
      "  free(a);\n"
      "  return 0;\n"
      "}");
}

TEST(VmDispatchDiffTest, TrapPrograms) {
  diff_source("int main() { int z = 0; return 1 / z; }");
  diff_source("int main() { int z = 0; return 7 % z; }");
  diff_source("#include <stdlib.h>\nint main() { int *p = 0; return p[3]; }");
  diff_source(
      "#include <stdlib.h>\n"
      "int main() { int *a = (int *)malloc(4 * sizeof(int)); "
      "free(a); return a[1]; }");
  diff_source(
      "#include <stdlib.h>\n"
      "int main() { int *a = (int *)malloc(4 * sizeof(int)); "
      "int r = a[9]; free(a); return r; }");
  // Unbounded recursion: the call-depth trap.
  diff_source("int f(int n) { return f(n + 1); }\nint main() { return f(0); }");
  diff_source("#include <stdlib.h>\nint main() { exit(3); return 0; }");
}

TEST(VmDispatchDiffTest, BudgetTraps) {
  ExecLimits tight;
  tight.max_steps = 500;
  diff_source("int main() { int s = 0; while (1) { s += 1; } return s; }",
              tight);
  ExecLimits tiny_output;
  tiny_output.max_output = 64;
  diff_source(
      "#include <stdio.h>\n"
      "int main() { for (int i = 0; i < 100; i++) { "
      "printf(\"line %d\\n\", i); } return 0; }",
      tiny_output);
}

// The step budget must trap on the same instruction in every core — sweep
// the budget across the end-of-chunk boundary, where the table core's
// sentinel accounting has to undo the speculatively charged step.
TEST(VmDispatchDiffTest, StepBudgetBoundaryExact) {
  Module module;
  Chunk chunk;
  chunk.name = "main";
  for (int i = 0; i < 6; ++i) {
    chunk.code.push_back(Instr{Op::kNop, 0, 0, i + 1});
  }
  // No kRet: the reference loop falls off the end after 6 nops.
  module.chunks.push_back(chunk);
  module.main_chunk = 0;
  for (std::uint64_t budget = 1; budget <= 9; ++budget) {
    ExecLimits limits;
    limits.max_steps = budget;
    diff_module(module, limits,
                "nop-module budget=" + std::to_string(budget));
  }
}

// ---------------------------------------------------------------------------
// Generated + probed corpora: every file the suite generator can produce
// must execute identically (compile failures are skipped — no module).
// ---------------------------------------------------------------------------

TEST(VmDispatchDiffTest, GeneratedCorpusBothFlavors) {
  for (const auto flavor :
       {frontend::Flavor::kOpenACC, frontend::Flavor::kOpenMP}) {
    const auto suite =
        corpus::generate_suite(testutil::corpus_config(flavor, 24, 20260728));
    toolchain::CompilerConfig config = toolchain::nvc_persona();
    config.strictness_reject_rate = 0.0;
    const toolchain::CompilerDriver driver(config);
    ExecLimits tight;
    tight.max_steps = 20000;  // force budget traps on the longer programs
    for (const auto& tc : suite.cases) {
      const auto compiled = driver.compile(tc.file);
      if (!compiled.success || compiled.module == nullptr) continue;
      diff_module(*compiled.module, {}, tc.file.name);
      diff_module(*compiled.module, tight, tc.file.name + " (tight)");
    }
  }
}

TEST(VmDispatchDiffTest, ProbedCorpusTrapHeavy) {
  const auto suite = corpus::generate_suite(
      testutil::corpus_config(frontend::Flavor::kOpenACC, 40, 99));
  probing::ProbingConfig probe;
  probe.issue_counts = {4, 4, 4, 4, 4, 4};
  probe.seed = 7;
  const auto probed = probing::probe_suite(suite, probe);
  toolchain::CompilerConfig config = toolchain::nvc_persona();
  config.strictness_reject_rate = 0.0;
  const toolchain::CompilerDriver driver(config);
  for (const auto& pf : probed.files) {
    const auto compiled = driver.compile(pf.file);
    if (!compiled.success || compiled.module == nullptr) continue;
    diff_module(*compiled.module, {}, pf.file.name);
  }
}

// ---------------------------------------------------------------------------
// Randomized raw modules: structurally valid operands (indices in range,
// no negative jump targets — those are undefined in the reference loop)
// but semantically chaotic, so stack underflows, wild pointers, division
// by zero, budget exhaustion, and fell-off-the-end traps all fire. Every
// core must agree byte for byte on each of them.
// ---------------------------------------------------------------------------

Module random_module(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&](std::size_t bound) {
    return static_cast<std::int32_t>(rng() % bound);
  };

  Module module;
  module.consts = {Value::from_int(0),     Value::from_int(1),
                   Value::from_int(7),     Value::from_float(1.5),
                   Value::from_int(-3),    Value::from_pointer(0),
                   Value::from_float(0.0), Value::from_int(1 << 20)};
  module.strings = {"s0"};
  module.global_slot_count = 4;

  Region region;
  region.device_mode = (seed & 1) != 0;
  region.directive = "fuzz";
  module.regions.push_back(region);

  // Ops the generator may emit. kCallBuiltin is excluded: several builtin
  // shims index their argument vector unchecked, which a random argc makes
  // undefined in every core alike.
  static constexpr Op kOps[] = {
      Op::kNop,        Op::kPushConst,   Op::kLoadSlot,  Op::kStoreSlot,
      Op::kLoadGlobal, Op::kStoreGlobal, Op::kAddrSlot,  Op::kAddrGlobal,
      Op::kLoadInd,    Op::kStoreInd,    Op::kStoreIndKeep,
      Op::kIndexAddr,  Op::kAdd,         Op::kSub,       Op::kMul,
      Op::kDiv,        Op::kMod,         Op::kNeg,       Op::kNot,
      Op::kBitNot,     Op::kEq,          Op::kNe,        Op::kLt,
      Op::kLe,         Op::kGt,          Op::kGe,        Op::kBitAnd,
      Op::kBitOr,      Op::kBitXor,      Op::kShl,       Op::kShr,
      Op::kCastInt,    Op::kCastFloat,   Op::kJump,      Op::kJumpIfFalse,
      Op::kJumpIfTrue, Op::kCall,        Op::kRet,       Op::kPop,
      Op::kDup,        Op::kSwap,        Op::kAllocArray,
      Op::kAllocGlobalArray,             Op::kDevEnter,  Op::kDevExit,
      Op::kDevAction};

  const std::size_t chunk_count = 2 + rng() % 2;
  for (std::size_t c = 0; c < chunk_count; ++c) {
    Chunk chunk;
    chunk.name = "fuzz" + std::to_string(c);
    chunk.param_count = pick(3);
    chunk.slot_count = chunk.param_count + 4;
    const std::size_t length = 4 + rng() % 40;
    for (std::size_t i = 0; i < length; ++i) {
      Instr instr;
      instr.op = kOps[rng() % (sizeof(kOps) / sizeof(kOps[0]))];
      instr.line = static_cast<std::int32_t>(i + 1);
      switch (instr.op) {
        case Op::kPushConst:
          instr.a = pick(module.consts.size());
          break;
        case Op::kLoadSlot:
        case Op::kStoreSlot:
        case Op::kAddrSlot:
          instr.a = pick(static_cast<std::size_t>(chunk.slot_count));
          break;
        case Op::kLoadGlobal:
        case Op::kStoreGlobal:
        case Op::kAddrGlobal:
          instr.a = pick(static_cast<std::size_t>(module.global_slot_count));
          break;
        case Op::kJump:
        case Op::kJumpIfFalse:
        case Op::kJumpIfTrue:
          // [0, length + 3]: a target of `length` falls off the end at the
          // last instruction's line, anything beyond renders the same trap
          // with no line — both must match the reference byte for byte.
          // Negative targets are undefined in the reference loop, so never
          // generated.
          instr.a = pick(length + 4);
          break;
        case Op::kCall:
          instr.a = pick(chunk_count);
          instr.b = pick(3);
          break;
        case Op::kAllocArray:
          instr.a = pick(static_cast<std::size_t>(chunk.slot_count));
          instr.b = pick(4);  // 0 pops a (possibly absurd) count: kBadAlloc
          break;
        case Op::kAllocGlobalArray:
          instr.a = pick(static_cast<std::size_t>(module.global_slot_count));
          instr.b = 1 + pick(3);
          break;
        case Op::kDevEnter:
        case Op::kDevExit:
        case Op::kDevAction:
          instr.a = pick(module.regions.size());
          break;
        default:
          instr.a = pick(8);
          instr.b = pick(8);
          break;
      }
      chunk.code.push_back(instr);
    }
    module.chunks.push_back(std::move(chunk));
  }
  module.main_chunk = 0;
  if ((rng() & 3) == 0 && chunk_count > 1) module.init_chunk = 1;
  return module;
}

// Env knobs so any CI failure reproduces locally in one command:
// LLM4VV_DISPATCH_FUZZ_SEED is the base seed (default 0) and
// LLM4VV_DISPATCH_FUZZ_COUNT the number of modules (default 1000).
std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(raw, &end, 10);
  return (end != nullptr && *end == '\0') ? value : fallback;
}

std::string module_dump(const Module& module) {
  std::string dump;
  for (std::size_t c = 0; c < module.chunks.size(); ++c) {
    dump += "--- chunk " + std::to_string(c) + " (" +
            module.chunks[c].name + ") ---\n";
    dump += disassemble(module, module.chunks[c]);
  }
  return dump;
}

TEST(VmDispatchDiffTest, RandomizedModules) {
  const std::uint64_t base = env_u64("LLM4VV_DISPATCH_FUZZ_SEED", 0);
  const std::uint64_t count = env_u64("LLM4VV_DISPATCH_FUZZ_COUNT", 1000);
  ExecLimits limits;
  limits.max_steps = 3000;
  limits.max_output = 1u << 12;
  limits.max_frames = 32;
  limits.max_cells = 1u << 16;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t seed = base + i;
    const Module module = random_module(seed);
    diff_module(module, limits, "random module seed=" + std::to_string(seed));
    if (::testing::Test::HasFailure()) {
      // Stop at the first mismatch and print a self-contained reproducer
      // instead of a wall of per-seed gtest diffs.
      GTEST_FAIL() << "cross-core mismatch at seed " << seed
                   << "\nreproduce with:\n"
                   << "  LLM4VV_DISPATCH_FUZZ_SEED=" << seed
                   << " LLM4VV_DISPATCH_FUZZ_COUNT=1 ./vm_dispatch_test"
                      " --gtest_filter='*RandomizedModules'\n"
                   << "module under test:\n"
                   << module_dump(module);
    }
  }
}

// Wild jumps: a target of exactly `size` must trap at the last
// instruction's line, a target beyond `size` must trap with no line —
// both identical to the reference loop's fetch bounds check.
TEST(VmDispatchDiffTest, WildJumpTargetsRenderReferenceLines) {
  for (const std::int32_t target : {3, 4, 100, 1 << 20}) {
    Module module;
    Chunk chunk;
    chunk.name = "main";
    chunk.code.push_back(Instr{Op::kNop, 0, 0, 1});
    chunk.code.push_back(Instr{Op::kJump, target, 0, 2});
    chunk.code.push_back(Instr{Op::kNop, 0, 0, 3});
    module.chunks.push_back(chunk);
    module.main_chunk = 0;
    diff_module(module, {}, "wild jump to " + std::to_string(target));
  }
}

// Empty chunks trap "fell off the end" before executing anything; the
// decoded sentinel is the only instruction in the stream.
TEST(VmDispatchDiffTest, EmptyMainChunk) {
  Module module;
  Chunk chunk;
  chunk.name = "empty";
  module.chunks.push_back(chunk);
  module.main_chunk = 0;
  diff_module(module, {}, "empty main chunk");
}

// ---------------------------------------------------------------------------
// Superinstruction fusion boundaries. The table core may fuse hot
// pairs/triples at decode time, but never across a jump target landing in
// the interior of a sequence, and step accounting must stay exact: a
// budget trap inside a fused handler has to land on the precise component
// instruction, rendering the same trap line as the reference.
// ---------------------------------------------------------------------------

// Sentinel operand fixed up by pattern_module to point at the epilogue.
constexpr std::int32_t kEpilogueTarget = -1;

Instr raw(Op op, std::int32_t a = 0, std::int32_t b = 0) {
  return Instr{op, a, b, 0};
}

/// Wraps a handcrafted body in a runnable module: consts [0, 1, 7, 1.5],
/// a `push 0; ret` epilogue, and line = index + 1 so budget traps pin
/// every component position to a distinct source line.
Module pattern_module(std::vector<Instr> body) {
  Module module;
  module.consts = {Value::from_int(0), Value::from_int(1), Value::from_int(7),
                   Value::from_float(1.5)};
  module.global_slot_count = 2;
  const auto epilogue = static_cast<std::int32_t>(body.size());
  for (auto& instr : body) {
    if ((instr.op == Op::kJump || instr.op == Op::kJumpIfFalse ||
         instr.op == Op::kJumpIfTrue) &&
        instr.a == kEpilogueTarget) {
      instr.a = epilogue;
    }
  }
  body.push_back(raw(Op::kPushConst, 0));
  body.push_back(raw(Op::kRet));
  for (std::size_t i = 0; i < body.size(); ++i) {
    body[i].line = static_cast<std::int32_t>(i + 1);
  }
  Chunk chunk;
  chunk.name = "main";
  chunk.slot_count = 4;
  chunk.code = std::move(body);
  module.chunks.push_back(std::move(chunk));
  module.main_chunk = 0;
  return module;
}

/// One handcrafted program per fusion pattern, keyed by registry name.
/// The per-pattern test fails loudly when a new pattern lands without a
/// program here. Feeds that must not themselves fuse use kLoadGlobal /
/// kAllocGlobalArray, which appear in no pattern.
std::vector<Instr> pattern_program(const std::string& name) {
  if (name == "LoadSlotPushConstMul")
    return {raw(Op::kLoadSlot, 0), raw(Op::kPushConst, 2), raw(Op::kMul),
            raw(Op::kPop)};
  if (name == "LoadSlotPushConstAdd")
    return {raw(Op::kLoadSlot, 0), raw(Op::kPushConst, 2), raw(Op::kAdd),
            raw(Op::kPop)};
  if (name == "LoadSlotPushConstLt")
    return {raw(Op::kLoadSlot, 0), raw(Op::kPushConst, 2), raw(Op::kLt),
            raw(Op::kPop)};
  if (name == "LoadSlotLoadSlotIndexAddr")
    return {raw(Op::kAllocArray, 0, 8), raw(Op::kLoadSlot, 0),
            raw(Op::kLoadSlot, 1), raw(Op::kIndexAddr), raw(Op::kPop)};
  if (name == "IndexAddrLoadInd")
    return {raw(Op::kAllocGlobalArray, 0, 8), raw(Op::kLoadGlobal, 0),
            raw(Op::kPushConst, 1), raw(Op::kIndexAddr), raw(Op::kLoadInd),
            raw(Op::kPop)};
  if (name == "IndexAddrStoreInd")
    return {raw(Op::kAllocGlobalArray, 0, 8), raw(Op::kPushConst, 2),
            raw(Op::kLoadGlobal, 0), raw(Op::kPushConst, 1),
            raw(Op::kIndexAddr), raw(Op::kStoreInd)};
  if (name == "AddStoreSlot")
    return {raw(Op::kPushConst, 2), raw(Op::kPushConst, 1), raw(Op::kAdd),
            raw(Op::kStoreSlot, 0)};
  if (name == "LoadSlotLoadSlot")
    return {raw(Op::kLoadSlot, 0), raw(Op::kLoadSlot, 1), raw(Op::kPop),
            raw(Op::kPop)};
  if (name == "PushConstStoreSlot")
    return {raw(Op::kPushConst, 2), raw(Op::kStoreSlot, 0)};
  const auto cmp_branch = [](Op cmp) {
    return std::vector<Instr>{raw(Op::kPushConst, 1), raw(Op::kPushConst, 2),
                              raw(cmp),
                              raw(Op::kJumpIfFalse, kEpilogueTarget)};
  };
  if (name == "LtJumpIfFalse") return cmp_branch(Op::kLt);
  if (name == "LeJumpIfFalse") return cmp_branch(Op::kLe);
  if (name == "GtJumpIfFalse") return cmp_branch(Op::kGt);
  if (name == "GeJumpIfFalse") return cmp_branch(Op::kGe);
  if (name == "EqJumpIfFalse") return cmp_branch(Op::kEq);
  if (name == "NeJumpIfFalse") return cmp_branch(Op::kNe);
  return {};
}

TEST(VmFusionTest, PatternTableSanity) {
  const std::size_t n = fusion_pattern_count();
  EXPECT_GE(n, 14u);
  std::vector<std::string> names;
  std::size_t prev_length = 3;
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t length = fusion_pattern_length(p);
    EXPECT_GE(length, 2u) << "pattern " << p;
    EXPECT_LE(length, 3u) << "pattern " << p;
    // Non-increasing lengths keep greedy first-hit matching longest-first.
    EXPECT_LE(length, prev_length) << "pattern " << p;
    prev_length = length;
    const char* name = fusion_pattern_name(p);
    ASSERT_NE(name, nullptr);
    EXPECT_FALSE(std::string(name).empty());
    names.emplace_back(name);
    for (std::size_t c = 0; c < length; ++c) {
      EXPECT_LT(static_cast<std::size_t>(fusion_pattern_component(p, c)),
                kOpCount)
          << name << " component " << c;
    }
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end())
      << "duplicate fusion pattern names";
  // Out-of-range introspection degrades to inert fallbacks.
  EXPECT_STREQ(fusion_pattern_name(n), "?");
  EXPECT_EQ(fusion_pattern_length(n), 0u);
  EXPECT_EQ(fusion_pattern_component(0, 99), Op::kNop);
}

TEST(VmFusionTest, ReferenceIgnoresFusionFlag) {
  const Module module =
      pattern_module(pattern_program("LoadSlotPushConstMul"));
  const ExecResult plain =
      execute(module, {}, DispatchMode::kReference, false);
  const ExecResult fused = execute(module, {}, DispatchMode::kReference, true);
  EXPECT_EQ(fused.fused_instructions, 0u);
  EXPECT_EQ(fused.fusion_patterns, 0u);
  expect_identical(plain, fused, DispatchMode::kReference, false,
                   "reference fuse flag");
}

TEST(VmFusionTest, BranchTargetIntoSequenceBlocksFusion) {
  // A [LoadSlot, PushConst, Mul] triple sits at indices 2..4; a never-taken
  // conditional branch marks index `target` as a jump target at decode
  // time. Interior targets (3, 4) must refuse fusion entirely; targeting
  // the head (2) fuses as usual. Every variant stays byte-identical.
  for (const std::int32_t target : {2, 3, 4}) {
    const Module module = pattern_module({
        raw(Op::kPushConst, 1),         // 0: truthy condition
        raw(Op::kJumpIfFalse, target),  // 1: not taken; marks the target
        raw(Op::kLoadSlot, 0),          // 2: head
        raw(Op::kPushConst, 2),         // 3: interior
        raw(Op::kMul),                  // 4: interior
        raw(Op::kPop),                  // 5
    });
    const ExecResult fused = execute(module, {}, DispatchMode::kTable, true);
    EXPECT_EQ(fused.fused_instructions, target == 2 ? 1u : 0u)
        << "branch target " << target;
    diff_module(module, {},
                "branch into fusable sequence at " + std::to_string(target));
  }
}

TEST(VmFusionTest, StepBudgetSweepInsideFusedSequences) {
  // Three fused sites back to back (triple, triple, pair) with unfusable
  // glue between them; sweeping the step budget lands the trap on every
  // position — fused heads and mid-sequence components alike — and the
  // stderr trap line must match the reference at each one.
  const Module module = pattern_module({
      raw(Op::kLoadSlot, 0),   // 0 ─┐
      raw(Op::kPushConst, 2),  // 1  ├ LoadSlotPushConstMul
      raw(Op::kMul),           // 2 ─┘
      raw(Op::kStoreSlot, 1),  // 3
      raw(Op::kLoadSlot, 0),   // 4 ─┐
      raw(Op::kPushConst, 2),  // 5  ├ LoadSlotPushConstAdd
      raw(Op::kAdd),           // 6 ─┘ (consumed: Add+StoreSlot cannot pair)
      raw(Op::kStoreSlot, 1),  // 7
      raw(Op::kLoadSlot, 0),   // 8 ─┐ LoadSlotLoadSlot
      raw(Op::kLoadSlot, 1),   // 9 ─┘
      raw(Op::kPop),           // 10
      raw(Op::kPop),           // 11
  });
  const ExecResult full = execute(module, {}, DispatchMode::kTable, true);
  EXPECT_EQ(full.return_code, 0);
  EXPECT_EQ(full.fused_instructions, 3u);
  EXPECT_EQ(full.fusion_patterns, 3u);
  for (std::uint64_t budget = 1; budget <= 16; ++budget) {
    ExecLimits limits;
    limits.max_steps = budget;
    diff_module(module, limits, "fused budget=" + std::to_string(budget));
  }
}

TEST(VmFusionTest, EveryPatternTrapsOnEveryComponentLine) {
  for (std::size_t p = 0; p < fusion_pattern_count(); ++p) {
    const std::string name = fusion_pattern_name(p);
    const std::vector<Instr> body = pattern_program(name);
    ASSERT_FALSE(body.empty())
        << "no handcrafted program for fusion pattern " << name
        << " — add one to pattern_program()";
    const Module module = pattern_module(body);
    const ExecResult fused = execute(module, {}, DispatchMode::kTable, true);
    const ExecResult unfused =
        execute(module, {}, DispatchMode::kTable, false);
    EXPECT_GE(fused.fused_instructions, 1u) << name;
    EXPECT_GE(fused.fusion_patterns, 1u) << name;
    EXPECT_EQ(unfused.fused_instructions, 0u) << name;
    // Budget sweep across the whole program: the trap lands on each
    // component position of the fused sequence in turn, so a wrong
    // step-undo or trap line shows up as a diff at some budget.
    for (std::uint64_t budget = 1; budget <= body.size() + 3; ++budget) {
      ExecLimits limits;
      limits.max_steps = budget;
      diff_module(module, limits, name + " budget=" + std::to_string(budget));
    }
  }
}

// Sanity on the mode surface itself.
TEST(VmDispatchTest, ModeNamesAndDefault) {
  EXPECT_STREQ(dispatch_mode_name(DispatchMode::kReference), "reference");
  EXPECT_STREQ(dispatch_mode_name(DispatchMode::kTable), "table");
  // execute() with no other arguments runs the fused table core.
  const Module module = pattern_module(pattern_program("PushConstStoreSlot"));
  const ExecResult implicit = execute(module);
  const ExecResult fused = execute(module, {}, DispatchMode::kTable, true);
  EXPECT_EQ(implicit.return_code, fused.return_code);
  EXPECT_EQ(implicit.stdout_text, fused.stdout_text);
  EXPECT_EQ(implicit.stderr_text, fused.stderr_text);
  EXPECT_EQ(implicit.trap, fused.trap);
  EXPECT_EQ(implicit.steps, fused.steps);
  EXPECT_EQ(implicit.fused_instructions, fused.fused_instructions);
  EXPECT_EQ(implicit.fusion_patterns, fused.fusion_patterns);
  EXPECT_GT(implicit.fused_instructions, 0u);
}

}  // namespace
}  // namespace llm4vv::vm
