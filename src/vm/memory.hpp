#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "vm/value.hpp"

namespace llm4vv::vm {

/// Why execution stopped abnormally. The executor maps these to process-like
/// return codes and nvc/libomptarget-style stderr messages.
enum class TrapKind {
  kNone,
  kNullDeref,       ///< dereference of a null or uninitialized pointer
  kOutOfBounds,     ///< access outside any live allocation
  kUseAfterFree,    ///< access to a freed allocation
  kNotPresent,      ///< device access to an unmapped heap allocation
  kDivByZero,
  kStackOverflow,
  kStepLimit,       ///< execution budget exhausted (timeout analogue)
  kOutputLimit,     ///< stdout budget exhausted
  kBadAlloc,        ///< absurd allocation size
  kInternal,        ///< lowering/VM invariant violation (a bug on our side)
};

/// Render a trap kind as a short name ("null-deref", ...).
const char* trap_kind_name(TrapKind kind) noexcept;

/// Signals a trap; caught by the interpreter's top loop.
struct Trap {
  TrapKind kind;
  std::string message;
};

/// One allocation (global block, array, or malloc'd block).
struct Allocation {
  std::uint64_t base = 0;   ///< first cell address
  std::uint64_t size = 0;   ///< cell count
  bool alive = true;
  bool heap = false;        ///< produced by malloc (affects device rules)
  /// Device mapping state (OpenACC-style structured reference counting).
  int present_count = 0;
  std::uint64_t device_base = 0;  ///< mirror cells (0 = none)
};

/// Flat cell memory with an allocation table and a host/device mirror
/// model.
///
/// Addresses are 1-based indices into one cell array (0 is the null
/// address). Every load/store resolves its allocation and traps on
/// out-of-bounds, freed, or null access — the VM equivalent of a segfault.
///
/// The device model implements what the reproduction needs from OpenACC /
/// OpenMP-offload runtimes: `map_*` mirrors an allocation into device
/// cells with reference counting; in *device mode* (inside an offloaded
/// compute region) accesses to mapped allocations are redirected to the
/// mirror, accesses to unmapped heap allocations trap like a GPU illegal
/// address, and accesses to unmapped stack/global data fall through
/// (modelling implicit firstprivate/shared of statically-sized data).
class Memory {
 public:
  explicit Memory(std::uint64_t max_cells = 1u << 22);

  /// Allocate `size` cells; returns the base address. Never returns 0.
  std::uint64_t allocate(std::uint64_t size, bool heap);

  /// Free a heap allocation (free(0) is a no-op, matching C).
  void free_allocation(std::uint64_t base);

  /// Read/write one cell with full checking. `device_mode` selects the
  /// device-side view.
  Value load(std::uint64_t address, bool device_mode);
  void store(std::uint64_t address, Value value, bool device_mode);

  /// Device mapping ops; `copy_to_device` seeds the mirror from host cells.
  /// Re-mapping an already-present allocation only bumps the refcount.
  void map_to_device(std::uint64_t base, bool copy_to_device,
                     const std::string& var_name);
  /// True when the allocation containing `base` is currently mapped.
  bool is_present(std::uint64_t base);
  /// Unmap (refcounted); `copy_back` writes the mirror to host cells when
  /// the final reference drops. With `force`, drops all references.
  void unmap_from_device(std::uint64_t base, bool copy_back, bool force,
                         const std::string& var_name);
  /// `update host/device` directive support: copy without remapping.
  void copy_mirror(std::uint64_t base, bool to_host,
                   const std::string& var_name);

  /// Number of live (not freed) allocations.
  std::size_t live_allocations() const noexcept;

 private:
  Allocation& find_allocation(std::uint64_t address,
                              const char* what);
  Allocation* try_find(std::uint64_t address);

  std::vector<Value> cells_;
  std::vector<Allocation> allocs_;  ///< sorted by base (append-only bases)
  std::uint64_t next_base_ = 1;
  std::uint64_t max_cells_;
};

}  // namespace llm4vv::vm
