#include "obs/registry.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace llm4vv::obs {
namespace {

/// Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; dotted registry
/// names map dots (and anything else) to underscores under a llm4vv_
/// prefix.
std::string sanitize(const std::string& name) {
  std::string out = "llm4vv_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// Render a double that is almost always an exact integer count without
/// trailing noise; fall back to %g for real fractions (gpu seconds).
std::string render_value(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
    std::snprintf(buf, sizeof(buf), "%" PRId64,
                  static_cast<std::int64_t>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.10g", v);
  }
  return buf;
}

}  // namespace

const MetricSample* find_sample(const MetricsSnapshot& snapshot,
                                const std::string& name,
                                const std::string& label) {
  for (const MetricSample& sample : snapshot) {
    if (sample.name == name && sample.label == label) return &sample;
  }
  return nullptr;
}

Counter Registry::counter(const std::string& name) {
  support::MutexLock lock(mutex_);
  for (const OwnedCounter& owned : owned_) {
    if (owned.name == name) return Counter(owned.cells.get());
  }
  owned_.push_back(OwnedCounter{name, std::make_unique<CounterCells>()});
  return Counter(owned_.back().cells.get());
}

void Registry::register_probe(const std::string& name,
                              std::function<double()> fn) {
  register_probe(name, "", std::move(fn));
}

void Registry::register_probe(const std::string& name,
                              const std::string& label,
                              std::function<double()> fn) {
  support::MutexLock lock(mutex_);
  for (Probe& probe : probes_) {
    if (probe.name == name && probe.label == label) {
      probe.fn = std::move(fn);
      return;
    }
  }
  probes_.push_back(Probe{name, label, std::move(fn)});
}

void Registry::unregister_prefix(const std::string& prefix) {
  support::MutexLock lock(mutex_);
  probes_.erase(std::remove_if(probes_.begin(), probes_.end(),
                               [&](const Probe& probe) {
                                 return probe.name.rfind(prefix, 0) == 0;
                               }),
                probes_.end());
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot out;
  {
    support::MutexLock lock(mutex_);
    for (const OwnedCounter& owned : owned_) {
      out.push_back(
          {owned.name, "", static_cast<double>(owned.cells->total())});
    }
    // Probes run under the lock: callbacks must not re-enter the registry
    // (documented in the header), and scrapes are rare cold-path events.
    for (const Probe& probe : probes_) {
      out.push_back({probe.name, probe.label, probe.fn()});
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const MetricSample& a, const MetricSample& b) {
                     return a.name < b.name;
                   });
  return out;
}

std::string Registry::render_text() const {
  const MetricsSnapshot samples = snapshot();
  std::string out;
  std::string last_name;
  for (const MetricSample& sample : samples) {
    const std::string metric = sanitize(sample.name);
    if (sample.name != last_name) {
      // Bucketed probes carry labels and render as histograms; everything
      // else renders untyped. Kind metadata is deliberately not threaded
      // through the snapshot — the dump is for humans and scrape scripts,
      // not a full Prometheus exposition.
      out += "# TYPE " + metric +
             (sample.label.empty() ? " untyped\n" : " histogram\n");
      last_name = sample.name;
    }
    out += metric;
    if (!sample.label.empty()) {
      const std::string& label = sample.label;
      const std::size_t colon = label.find(':');
      const std::string key =
          colon == std::string::npos ? "bucket" : label.substr(0, colon);
      const std::string value =
          colon == std::string::npos ? label : label.substr(colon + 1);
      out += "{" + key + "=\"" + value + "\"}";
    }
    out += " " + render_value(sample.value) + "\n";
  }
  return out;
}

}  // namespace llm4vv::obs
