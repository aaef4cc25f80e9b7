#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

/// The atomic storage cells behind the obs::Registry counter handles.
///
/// This header is the one sanctioned home of raw std::atomic members under
/// src/obs/ (tools/lint_concurrency.sh rule 3 rejects them anywhere else in
/// the subsystem): every hot-path increment in the telemetry layer funnels
/// through these cell types so the sharding and memory-order policy live in
/// exactly one place.
///
/// Counters are sharded across kCellShards cache-line-padded atomics and
/// summed on scrape; writers pick a shard from a per-thread index assigned
/// round-robin at first touch, so concurrent increments from the pipeline's
/// worker pools do not contend on one line. All increments are relaxed:
/// metric reads are scrape-time aggregates with no ordering obligations to
/// the data they count.
namespace llm4vv::obs {

/// Shard count for counter cells. Power of two (the shard pick is a
/// mask); 16 covers the repo's worker-pool sizes with headroom.
inline constexpr std::size_t kCellShards = 16;

/// Cache-line size for padding. Hardcoded rather than
/// std::hardware_destructive_interference_size, which GCC warns is an
/// ABI-unstable value in headers.
inline constexpr std::size_t kCellLineBytes = 64;

/// Per-thread shard index: assigned round-robin on first use so worker
/// pools spread across shards deterministically regardless of how the
/// platform hashes thread ids.
inline std::size_t this_thread_shard() noexcept {
  static std::atomic<std::size_t> next_shard{0};
  static thread_local const std::size_t shard =
      next_shard.fetch_add(1, std::memory_order_relaxed) & (kCellShards - 1);
  return shard;
}

/// One padded counter lane. Aggregate through CounterCells, not directly.
struct alignas(kCellLineBytes) CounterCell {
  std::atomic<std::uint64_t> value{0};

  void add(std::uint64_t n) noexcept {
    value.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t load() const noexcept {
    return value.load(std::memory_order_relaxed);
  }
};

/// Sharded monotonic counter: relaxed per-thread-lane adds, summed on
/// scrape. The sum is not a linearizable point-in-time snapshot, which is
/// fine for metrics — once writers quiesce (pipeline workers joined) the
/// total is exact.
struct CounterCells {
  CounterCell shard[kCellShards];

  void add(std::uint64_t n) noexcept { shard[this_thread_shard()].add(n); }
  std::uint64_t total() const noexcept {
    std::uint64_t sum = 0;
    for (const CounterCell& cell : shard) sum += cell.load();
    return sum;
  }
};

/// Unique-id allocator (span ids, tracer generations). Lives here so the
/// tracer header stays free of raw atomics under lint rule 3.
class IdCell {
 public:
  std::uint64_t allocate() noexcept {
    return next_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> next_{1};
};

}  // namespace llm4vv::obs
