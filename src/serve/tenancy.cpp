#include "serve/tenancy.hpp"

#include "obs/registry.hpp"

namespace llm4vv::serve {

const char* shed_reason_name(ShedReason reason) noexcept {
  switch (reason) {
    case ShedReason::kRateLimit: return "rate_limit";
    case ShedReason::kQuota: return "quota";
    case ShedReason::kQueueFull: return "queue_full";
    case ShedReason::kDraining: return "draining";
  }
  return "?";
}

std::uint64_t TenantStats::latency_bucket_edge(std::size_t b) noexcept {
  static constexpr std::uint64_t kEdges[kLatencyBuckets] = {
      100, 1000, 10000, 100000, 1000000, UINT64_MAX};
  return kEdges[b < kLatencyBuckets ? b : kLatencyBuckets - 1];
}

const char* TenantStats::latency_bucket_label(std::size_t b) noexcept {
  static constexpr const char* kLabels[kLatencyBuckets] = {
      "lt_100us", "lt_1ms", "lt_10ms", "lt_100ms", "lt_1s", "ge_1s"};
  return kLabels[b < kLatencyBuckets ? b : kLatencyBuckets - 1];
}

namespace {

std::size_t latency_bucket(std::uint64_t latency_us) noexcept {
  for (std::size_t b = 0; b + 1 < TenantStats::kLatencyBuckets; ++b) {
    if (latency_us < TenantStats::latency_bucket_edge(b)) return b;
  }
  return TenantStats::kLatencyBuckets - 1;
}

void accumulate(TenantStats& into, const TenantStats& from) noexcept {
  into.submitted += from.submitted;
  into.accepted += from.accepted;
  into.shed_rate += from.shed_rate;
  into.shed_quota += from.shed_quota;
  into.shed_queue += from.shed_queue;
  into.shed_draining += from.shed_draining;
  into.completed_ok += from.completed_ok;
  into.completed_error += from.completed_error;
  into.in_flight += from.in_flight;
  for (std::size_t b = 0; b < TenantStats::kLatencyBuckets; ++b) {
    into.latency_hist[b] += from.latency_hist[b];
  }
}

}  // namespace

TenantTable::TenantTable(TenantConfig default_config)
    : default_config_(default_config) {}

TenantTable::~TenantTable() {
  std::shared_ptr<obs::Registry> registry;
  std::string prefix;
  {
    support::MutexLock lock(mutex_);
    registry = std::move(registry_);
    prefix = prefix_;
  }
  // Outside the table lock: scrapes hold registry-then-table, so the
  // teardown path must never hold table-then-registry.
  if (registry != nullptr) registry->unregister_prefix(prefix + ".");
}

TenantTable::Tenant& TenantTable::tenant_locked(const std::string& name,
                                                bool* created) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    it = tenants_.emplace(name, std::make_unique<Tenant>(default_config_))
             .first;
    if (it->second->config.weight == 0) it->second->config.weight = 1;
    if (created != nullptr) *created = true;
  }
  return *it->second;
}

void TenantTable::configure(const std::string& name, TenantConfig config) {
  if (config.weight == 0) config.weight = 1;
  bool created = false;
  {
    support::MutexLock lock(mutex_);
    Tenant& tenant = tenant_locked(name, &created);
    tenant.config = config;
    tenant.bucket = TokenBucket(config.rate_per_sec, config.burst);
  }
  if (created) register_tenant_probes(name);
}

void TenantTable::ensure(const std::string& name) {
  bool created = false;
  {
    support::MutexLock lock(mutex_);
    tenant_locked(name, &created);
  }
  if (created) register_tenant_probes(name);
}

Admission TenantTable::try_admit(const std::string& name,
                                 std::uint64_t now_us) {
  bool created = false;
  Admission admission;
  {
    support::MutexLock lock(mutex_);
    Tenant& tenant = tenant_locked(name, &created);
    tenant.stats.submitted += 1;
    if (tenant.config.max_in_flight > 0 &&
        tenant.stats.in_flight >= tenant.config.max_in_flight) {
      tenant.stats.shed_quota += 1;
      admission = Admission::kShedQuota;
    } else if (!tenant.bucket.try_take(now_us)) {
      tenant.stats.shed_rate += 1;
      admission = Admission::kShedRate;
    } else {
      tenant.stats.accepted += 1;
      tenant.stats.in_flight += 1;
      admission = Admission::kAdmit;
    }
  }
  if (created) register_tenant_probes(name);
  return admission;
}

void TenantTable::record_shed_draining(const std::string& name) {
  bool created = false;
  {
    support::MutexLock lock(mutex_);
    Tenant& tenant = tenant_locked(name, &created);
    tenant.stats.submitted += 1;
    tenant.stats.shed_draining += 1;
  }
  if (created) register_tenant_probes(name);
}

void TenantTable::record_post_admit_shed(const std::string& name,
                                         ShedReason reason) {
  support::MutexLock lock(mutex_);
  const auto it = tenants_.find(name);
  if (it == tenants_.end()) return;
  TenantStats& stats = it->second->stats;
  if (stats.accepted > 0) stats.accepted -= 1;
  if (stats.in_flight > 0) stats.in_flight -= 1;
  switch (reason) {
    case ShedReason::kRateLimit: stats.shed_rate += 1; break;
    case ShedReason::kQuota: stats.shed_quota += 1; break;
    case ShedReason::kQueueFull: stats.shed_queue += 1; break;
    case ShedReason::kDraining: stats.shed_draining += 1; break;
  }
}

void TenantTable::complete(const std::string& name, bool ok,
                           std::uint64_t latency_us) {
  support::MutexLock lock(mutex_);
  const auto it = tenants_.find(name);
  if (it == tenants_.end()) return;
  TenantStats& stats = it->second->stats;
  if (ok) {
    stats.completed_ok += 1;
  } else {
    stats.completed_error += 1;
  }
  if (stats.in_flight > 0) stats.in_flight -= 1;
  stats.latency_hist[latency_bucket(latency_us)] += 1;
}

std::uint32_t TenantTable::weight(const std::string& name) const {
  support::MutexLock lock(mutex_);
  const auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    return default_config_.weight == 0 ? 1 : default_config_.weight;
  }
  return it->second->config.weight;
}

TenantStats TenantTable::stats(const std::string& name) const {
  support::MutexLock lock(mutex_);
  const auto it = tenants_.find(name);
  return it == tenants_.end() ? TenantStats{} : it->second->stats;
}

TenantStats TenantTable::totals() const {
  support::MutexLock lock(mutex_);
  TenantStats total;
  for (const auto& [name, tenant] : tenants_) {
    accumulate(total, tenant->stats);
  }
  return total;
}

void TenantTable::register_metrics(std::shared_ptr<obs::Registry> registry,
                                   const std::string& prefix) {
  if (registry == nullptr) return;
  std::vector<std::string> existing;
  {
    support::MutexLock lock(mutex_);
    registry_ = registry;
    prefix_ = prefix;
    existing.reserve(tenants_.size());
    for (const auto& [name, tenant] : tenants_) existing.push_back(name);
  }
  // Aggregate probes over totals(); registered outside the table lock
  // (scrape order is registry -> table).
  const std::shared_ptr<obs::Registry>& reg = registry;
  const auto probe_total = [this](std::uint64_t TenantStats::*field) {
    return [this, field] {
      return static_cast<double>(totals().*field);
    };
  };
  reg->register_probe(prefix + ".submitted",
                      probe_total(&TenantStats::submitted));
  reg->register_probe(prefix + ".accepted",
                      probe_total(&TenantStats::accepted));
  reg->register_probe(prefix + ".in_flight",
                      probe_total(&TenantStats::in_flight));
  reg->register_probe(prefix + ".completed_ok",
                      probe_total(&TenantStats::completed_ok));
  reg->register_probe(prefix + ".completed_error",
                      probe_total(&TenantStats::completed_error));
  reg->register_probe(prefix + ".shed",
                      [this] { return static_cast<double>(totals().shed_total()); });
  reg->register_probe(prefix + ".tenants", [this] {
    support::MutexLock lock(mutex_);
    return static_cast<double>(tenants_.size());
  });
  for (const std::string& name : existing) register_tenant_probes(name);
}

void TenantTable::register_tenant_probes(const std::string& name) {
  std::shared_ptr<obs::Registry> registry;
  std::string base;
  {
    support::MutexLock lock(mutex_);
    if (registry_ == nullptr) return;
    registry = registry_;
    base = prefix_ + ".tenant." + name;
  }
  const auto probe = [this, name](std::uint64_t TenantStats::*field) {
    return [this, name, field] {
      return static_cast<double>(stats(name).*field);
    };
  };
  registry->register_probe(base + ".submitted",
                           probe(&TenantStats::submitted));
  registry->register_probe(base + ".accepted", probe(&TenantStats::accepted));
  registry->register_probe(base + ".in_flight",
                           probe(&TenantStats::in_flight));
  registry->register_probe(base + ".completed_ok",
                           probe(&TenantStats::completed_ok));
  registry->register_probe(base + ".completed_error",
                           probe(&TenantStats::completed_error));
  registry->register_probe(base + ".shed", [this, name] {
    return static_cast<double>(stats(name).shed_total());
  });
  for (std::size_t b = 0; b < TenantStats::kLatencyBuckets; ++b) {
    registry->register_probe(base + ".latency_us",
                             TenantStats::latency_bucket_label(b),
                             [this, name, b] {
                               return static_cast<double>(
                                   stats(name).latency_hist[b]);
                             });
  }
}

}  // namespace llm4vv::serve
