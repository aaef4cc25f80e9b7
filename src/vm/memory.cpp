#include "vm/memory.hpp"

#include <algorithm>

namespace llm4vv::vm {

const char* trap_kind_name(TrapKind kind) noexcept {
  switch (kind) {
    case TrapKind::kNone: return "none";
    case TrapKind::kNullDeref: return "null-deref";
    case TrapKind::kOutOfBounds: return "out-of-bounds";
    case TrapKind::kUseAfterFree: return "use-after-free";
    case TrapKind::kNotPresent: return "not-present";
    case TrapKind::kDivByZero: return "div-by-zero";
    case TrapKind::kStackOverflow: return "stack-overflow";
    case TrapKind::kStepLimit: return "step-limit";
    case TrapKind::kOutputLimit: return "output-limit";
    case TrapKind::kBadAlloc: return "bad-alloc";
    case TrapKind::kInternal: return "internal";
  }
  return "?";
}

std::string to_string(const Value& value) {
  switch (value.tag) {
    case ValueTag::kUninit: return "uninit";
    case ValueTag::kInt: return "int:" + std::to_string(value.i);
    case ValueTag::kFloat: return "float:" + std::to_string(value.f);
    case ValueTag::kPointer: return "ptr:" + std::to_string(value.ptr);
    case ValueTag::kString: return "str#" + std::to_string(value.ptr);
  }
  return "?";
}

Memory::Memory(std::uint64_t max_cells) : max_cells_(max_cells) {
  cells_.reserve(4096);
  cells_.emplace_back();  // address 0 is the null cell, never accessed
}

std::uint64_t Memory::allocate(std::uint64_t size, bool heap) {
  if (size == 0) size = 1;
  if (size > max_cells_ || cells_.size() + size > max_cells_) {
    throw Trap{TrapKind::kBadAlloc,
               "allocation of " + std::to_string(size) +
                   " cells exceeds the memory budget"};
  }
  Allocation alloc;
  alloc.base = cells_.size();
  alloc.size = size;
  alloc.heap = heap;
  cells_.resize(cells_.size() + size);
  allocs_.push_back(alloc);
  return alloc.base;
}

Allocation* Memory::try_find(std::uint64_t address) {
  // Allocations have ascending bases; binary search the last base <= addr.
  if (allocs_.empty()) return nullptr;
  auto it = std::upper_bound(
      allocs_.begin(), allocs_.end(), address,
      [](std::uint64_t a, const Allocation& alloc) { return a < alloc.base; });
  if (it == allocs_.begin()) return nullptr;
  --it;
  if (address >= it->base + it->size) return nullptr;
  return &*it;
}

Allocation& Memory::find_allocation(std::uint64_t address, const char* what) {
  if (address == 0) {
    throw Trap{TrapKind::kNullDeref,
               std::string("null pointer dereference during ") + what};
  }
  Allocation* alloc = try_find(address);
  if (alloc == nullptr) {
    throw Trap{TrapKind::kOutOfBounds,
               std::string("wild address ") + std::to_string(address) +
                   " during " + what};
  }
  if (!alloc->alive) {
    throw Trap{TrapKind::kUseAfterFree,
               std::string("access to freed memory during ") + what};
  }
  return *alloc;
}

void Memory::free_allocation(std::uint64_t base) {
  if (base == 0) return;  // free(NULL)
  Allocation& alloc = find_allocation(base, "free");
  if (base != alloc.base) {
    throw Trap{TrapKind::kOutOfBounds,
               "free() of a pointer not returned by malloc"};
  }
  if (!alloc.heap) {
    throw Trap{TrapKind::kOutOfBounds, "free() of non-heap memory"};
  }
  alloc.alive = false;
}

Value Memory::load(std::uint64_t address, bool device_mode) {
  Allocation& alloc = find_allocation(address, "load");
  if (device_mode) {
    if (alloc.present_count > 0) {
      return cells_[alloc.device_base + (address - alloc.base)];
    }
    if (alloc.heap) {
      throw Trap{TrapKind::kNotPresent,
                 "illegal device address: heap data not present on device"};
    }
    // Statically-sized host data: implicit map, direct access.
  }
  return cells_[address];
}

void Memory::store(std::uint64_t address, Value value, bool device_mode) {
  Allocation& alloc = find_allocation(address, "store");
  if (device_mode) {
    if (alloc.present_count > 0) {
      cells_[alloc.device_base + (address - alloc.base)] = value;
      return;
    }
    if (alloc.heap) {
      throw Trap{TrapKind::kNotPresent,
                 "illegal device address: heap data not present on device"};
    }
  }
  cells_[address] = value;
}

void Memory::map_to_device(std::uint64_t base, bool copy_to_device,
                           const std::string& var_name) {
  Allocation& alloc = find_allocation(base, "device mapping");
  if (alloc.present_count > 0) {
    ++alloc.present_count;  // already present: no copy (OpenACC semantics)
    return;
  }
  // Allocate the mirror *after* looking up the allocation: allocate() may
  // grow the cell vector, but alloc indexes stay valid because we re-find.
  const std::uint64_t alloc_base = alloc.base;
  const std::uint64_t size = alloc.size;
  const std::uint64_t mirror = allocate(size, /*heap=*/false);
  Allocation& again = find_allocation(alloc_base, "device mapping");
  again.device_base = mirror;
  again.present_count = 1;
  if (copy_to_device) {
    for (std::uint64_t i = 0; i < size; ++i) {
      cells_[mirror + i] = cells_[alloc_base + i];
    }
  }
  (void)var_name;
}

bool Memory::is_present(std::uint64_t base) {
  Allocation& alloc = find_allocation(base, "present check");
  return alloc.present_count > 0;
}

void Memory::unmap_from_device(std::uint64_t base, bool copy_back, bool force,
                               const std::string& var_name) {
  Allocation& alloc = find_allocation(base, "device unmapping");
  if (alloc.present_count == 0) {
    throw Trap{TrapKind::kNotPresent,
               "data not present on device in unmap: " + var_name};
  }
  if (force) {
    alloc.present_count = 1;
  }
  --alloc.present_count;
  if (alloc.present_count == 0) {
    if (copy_back) {
      for (std::uint64_t i = 0; i < alloc.size; ++i) {
        cells_[alloc.base + i] = cells_[alloc.device_base + i];
      }
    }
    // Mirror cells are leaked by design (arena-style); the allocation
    // table entry is reused if the block is mapped again.
    Allocation* mirror = try_find(alloc.device_base);
    if (mirror != nullptr) mirror->alive = false;
    alloc.device_base = 0;
  }
}

void Memory::copy_mirror(std::uint64_t base, bool to_host,
                         const std::string& var_name) {
  Allocation& alloc = find_allocation(base, "update directive");
  if (alloc.present_count == 0) {
    throw Trap{TrapKind::kNotPresent,
               "update of data not present on device: " + var_name};
  }
  for (std::uint64_t i = 0; i < alloc.size; ++i) {
    if (to_host) {
      cells_[alloc.base + i] = cells_[alloc.device_base + i];
    } else {
      cells_[alloc.device_base + i] = cells_[alloc.base + i];
    }
  }
}

std::size_t Memory::live_allocations() const noexcept {
  std::size_t n = 0;
  for (const auto& alloc : allocs_) {
    if (alloc.alive) ++n;
  }
  return n;
}

}  // namespace llm4vv::vm
