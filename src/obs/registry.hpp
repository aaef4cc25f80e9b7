#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/cells.hpp"
#include "support/thread_annotations.hpp"

/// obs::Registry — the unified metrics registry (docs/OBSERVABILITY.md).
///
/// Two kinds of metric coexist:
///
///  * Probes: scrape-time callbacks registered against a name (and optional
///    bucket label). The stats structs (ClientStats, JudgeCacheStats,
///    ArtifactStoreStats, queue accessors) are the store: each registers
///    probes over its own snapshot method, so the registry only reads them
///    and holds no copy that could drift.
///
///  * Owned counters: get-or-create by name, backed by sharded atomic cells
///    from obs/cells.hpp, for totals that outlive every struct — the
///    pipeline's cross-run counters, to which each run adds its
///    PipelineResult totals once. Handles are trivially copyable pointers,
///    valid for the registry's lifetime, and null-safe: a
///    default-constructed handle makes inc() a single branch.
///
/// Scrapes (`snapshot()`, `render_text()`) aggregate cells and run probes
/// under the registration mutex; probe callbacks must not call back into
/// the registry. Naming convention: lowercase dotted paths
/// ("pipeline.judge.errors", "llm.client.requests"); the text renderer
/// sanitizes to Prometheus charset and prefixes "llm4vv_".
namespace llm4vv::obs {

/// One scraped value. A bucketed probe contributes one sample per bucket,
/// each carrying its bucket label.
struct MetricSample {
  std::string name;
  std::string label;  // empty for scalar samples
  double value = 0.0;
};

using MetricsSnapshot = std::vector<MetricSample>;

/// Lookup helper: first sample matching name (and label); nullptr if none.
const MetricSample* find_sample(const MetricsSnapshot& snapshot,
                                const std::string& name,
                                const std::string& label = "");

class Registry;

/// Monotonic counter handle. Copyable, null-safe (default = inert).
class Counter {
 public:
  Counter() = default;

  void inc(std::uint64_t n = 1) const noexcept {
    if (cells_ != nullptr) cells_->add(n);
  }
  explicit operator bool() const noexcept { return cells_ != nullptr; }

 private:
  friend class Registry;
  explicit Counter(CounterCells* cells) noexcept : cells_(cells) {}
  CounterCells* cells_ = nullptr;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-create by name. Handles stay valid for the registry lifetime;
  /// re-requesting a name returns a handle over the same cells (cheap
  /// enough per pipeline run, not per item — cache the handle in hot code).
  Counter counter(const std::string& name) EXCLUDES(mutex_);

  /// Scrape-time callback metric. Re-registering the same (name, label)
  /// replaces the previous probe. The callback outlives registration —
  /// unregister (or destroy the registry) before the captured object dies.
  void register_probe(const std::string& name,
                      std::function<double()> fn) EXCLUDES(mutex_);
  void register_probe(const std::string& name, const std::string& label,
                      std::function<double()> fn) EXCLUDES(mutex_);

  /// Drop every probe whose name starts with `prefix` (run-scoped objects,
  /// e.g. the pipeline's per-run queues, unregister on teardown). Owned
  /// counters are deliberately permanent — handles to them may still be
  /// live.
  void unregister_prefix(const std::string& prefix) EXCLUDES(mutex_);

  /// Aggregate everything: cells summed, probes invoked. Sorted by name
  /// (stable, so a probe's buckets keep registration order).
  MetricsSnapshot snapshot() const EXCLUDES(mutex_);

  /// Prometheus-style text exposition of snapshot().
  std::string render_text() const EXCLUDES(mutex_);

 private:
  struct OwnedCounter {
    std::string name;
    std::unique_ptr<CounterCells> cells;
  };
  struct Probe {
    std::string name;
    std::string label;
    std::function<double()> fn;
  };

  mutable support::Mutex mutex_;
  std::vector<OwnedCounter> owned_ GUARDED_BY(mutex_);
  std::vector<Probe> probes_ GUARDED_BY(mutex_);
};

}  // namespace llm4vv::obs
