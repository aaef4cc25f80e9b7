#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "support/thread_annotations.hpp"

namespace llm4vv::obs {
class Registry;
}

/// serve tenancy — multi-tenant admission control and accounting
/// (docs/SERVING.md).
///
/// Every connection binds to a tenant (hello op; "anon" before one). Each
/// tenant carries a token-bucket rate limit, an in-flight quota, and a fair-
/// share weight, plus full accounting with one hard invariant the drain
/// test pins:
///
///     submitted == accepted + shed          (every submit classified once)
///     accepted  == completed_ok + completed_error + in_flight
///
/// After a graceful drain in_flight is zero, so accepted == completed — no
/// accepted job is ever lost. Counters surface through obs::Registry as
/// scrape-time probes ("serve.tenant.<name>.submitted", ...), the same
/// snapshot-probe pattern every other subsystem uses.
namespace llm4vv::serve {

/// Per-tenant admission knobs. Zero means "unlimited" for both limits.
struct TenantConfig {
  double rate_per_sec = 0.0;     ///< token refill rate; 0 = no rate limit
  double burst = 8.0;            ///< bucket capacity in jobs
  std::size_t max_in_flight = 0; ///< accepted-but-unfinished cap; 0 = none
  std::uint32_t weight = 1;      ///< fair-share weight (min 1)
};

/// Deterministic token bucket: pure state + an explicit clock parameter,
/// so admission decisions are unit-testable without sleeping. Not
/// internally synchronized — TenantTable guards it with its table mutex.
class TokenBucket {
 public:
  TokenBucket(double rate_per_sec, double burst)
      : rate_(rate_per_sec), burst_(burst < 1.0 ? 1.0 : burst),
        tokens_(burst_) {}

  /// Refill from elapsed time, then try to take one token. A zero rate
  /// always admits. `now_us` must be monotone per bucket.
  bool try_take(std::uint64_t now_us) {
    if (rate_ <= 0.0) return true;
    if (primed_) {
      const double elapsed_s =
          static_cast<double>(now_us - last_us_) * 1e-6;
      tokens_ += elapsed_s * rate_;
      if (tokens_ > burst_) tokens_ = burst_;
    }
    primed_ = true;
    last_us_ = now_us;
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
  }

  double tokens() const noexcept { return tokens_; }

 private:
  double rate_;
  double burst_;
  double tokens_;
  std::uint64_t last_us_ = 0;
  bool primed_ = false;
};

/// Why a submit was refused (or, post-admission, reclassified as shed).
enum class ShedReason {
  kRateLimit,  ///< token bucket empty
  kQuota,      ///< in-flight quota reached
  kQueueFull,  ///< the fair scheduler's bound was hit
  kDraining,   ///< the server stopped accepting
};
const char* shed_reason_name(ShedReason reason) noexcept;

/// Snapshot of one tenant's counters (monotonic except in_flight).
struct TenantStats {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t shed_rate = 0;
  std::uint64_t shed_quota = 0;
  std::uint64_t shed_queue = 0;
  std::uint64_t shed_draining = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t completed_error = 0;
  std::uint64_t in_flight = 0;

  /// Terminal-response latency histogram (submit → response, µs).
  static constexpr std::size_t kLatencyBuckets = 6;
  std::uint64_t latency_hist[kLatencyBuckets] = {};
  /// Upper edge of bucket `b` in µs (the last bucket is +Inf).
  static std::uint64_t latency_bucket_edge(std::size_t b) noexcept;
  /// Stable bucket label: "lt_100us", ..., "ge_1s".
  static const char* latency_bucket_label(std::size_t b) noexcept;

  std::uint64_t shed_total() const noexcept {
    return shed_rate + shed_quota + shed_queue + shed_draining;
  }
  std::uint64_t completed() const noexcept {
    return completed_ok + completed_error;
  }
};

/// Admission decision for one submit.
enum class Admission { kAdmit, kShedRate, kShedQuota };

/// The tenant table: get-or-create tenants, admission decisions, and
/// accounting. Thread-safe; the IO thread admits, workers complete.
class TenantTable {
 public:
  explicit TenantTable(TenantConfig default_config = {});
  ~TenantTable();

  TenantTable(const TenantTable&) = delete;
  TenantTable& operator=(const TenantTable&) = delete;

  /// Pre-register a tenant with explicit knobs (before or after ensure();
  /// reconfiguring an existing tenant keeps its counters).
  void configure(const std::string& name, TenantConfig config)
      EXCLUDES(mutex_);

  /// Get-or-create: unknown tenants materialize with the default config.
  /// When a registry is attached, a newly created tenant registers its
  /// per-tenant probes (outside the table lock — scrapes take registry
  /// then table, so registration must never hold table then registry).
  void ensure(const std::string& name) EXCLUDES(mutex_);

  /// Classify one submit: counts `submitted`, then either consumes a
  /// token + quota slot (kAdmit: accepted & in_flight move) or counts the
  /// shed. Creates the tenant if needed (via ensure()).
  Admission try_admit(const std::string& name, std::uint64_t now_us)
      EXCLUDES(mutex_);

  /// A submit refused while draining: counts submitted + shed_draining
  /// (no token is consumed).
  void record_shed_draining(const std::string& name) EXCLUDES(mutex_);

  /// Reclassify an admitted job that could not be scheduled (queue full,
  /// or the scheduler closed under it): accepted and in_flight roll back,
  /// the shed counter for `reason` moves instead.
  void record_post_admit_shed(const std::string& name, ShedReason reason)
      EXCLUDES(mutex_);

  /// Terminal completion of an accepted job (verdict or judge error).
  void complete(const std::string& name, bool ok, std::uint64_t latency_us)
      EXCLUDES(mutex_);

  /// Fair-share weight (min 1; default config's for unknown tenants).
  std::uint32_t weight(const std::string& name) const EXCLUDES(mutex_);

  TenantStats stats(const std::string& name) const EXCLUDES(mutex_);
  /// Sum over tenants (latency histogram included).
  TenantStats totals() const EXCLUDES(mutex_);

  /// Attach a registry: aggregate probes ("<prefix>.submitted", ...)
  /// register now, per-tenant probes ("<prefix>.tenant.<name>.*") as each
  /// tenant materializes. The table unregisters "<prefix>." on
  /// destruction; the registry must outlive the table.
  void register_metrics(std::shared_ptr<obs::Registry> registry,
                        const std::string& prefix) EXCLUDES(mutex_);

 private:
  struct Tenant {
    TenantConfig config;
    TokenBucket bucket;
    TenantStats stats;
    explicit Tenant(const TenantConfig& c)
        : config(c), bucket(c.rate_per_sec, c.burst) {}
  };

  /// Get-or-create under the lock; sets `created` for probe registration.
  Tenant& tenant_locked(const std::string& name, bool* created)
      REQUIRES(mutex_);
  void register_tenant_probes(const std::string& name);

  const TenantConfig default_config_;
  mutable support::Mutex mutex_;
  std::map<std::string, std::unique_ptr<Tenant>> tenants_ GUARDED_BY(mutex_);
  std::shared_ptr<obs::Registry> registry_ GUARDED_BY(mutex_);
  std::string prefix_ GUARDED_BY(mutex_);
};

}  // namespace llm4vv::serve
