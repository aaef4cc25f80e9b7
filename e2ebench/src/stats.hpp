#pragma once

// The benchmark's arithmetic, kept free of any I/O so tests/stats_test.cpp
// can pin it: percentile rank, medians, due-time latency, the interval
// union behind self-time subtraction, and the load ladder's stop rule.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace e2ebench {

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are <= it (p in (0, 100]). 0 for no samples.
inline double percentile_rank(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

/// Median (mean of the two middle samples for an even count).
inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return (samples[mid - 1] + samples[mid]) / 2.0;
}

/// Samples strictly above the nearest-rank `p` percentile: a percentile is
/// worth reporting only with at least ten samples beyond it.
inline std::size_t samples_beyond(std::size_t count, double p) {
  if (count == 0) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(count)));
  return count - std::clamp<std::size_t>(rank, 1, count);
}

/// When job `index` of an open-loop schedule is due: `start_us` plus
/// index / rate seconds, computed from the index so no rounding accumulates.
inline double due_us(double start_us, double rate_per_s, std::uint64_t index) {
  return start_us + static_cast<double>(index) * 1e6 / rate_per_s;
}

/// Latency of one job timed from when it was due to be sent, not from when
/// the (possibly stalled) generator got round to sending it.
inline double due_latency_us(double due, double response_us) {
  return response_us - due;
}

struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Length of the union of `parts` clipped to `window`.
inline double covered_us(Interval window, std::vector<Interval> parts) {
  for (Interval& part : parts) {
    part.start = std::max(part.start, window.start);
    part.end = std::min(part.end, window.end);
  }
  std::erase_if(parts, [](const Interval& p) { return p.end <= p.start; });
  std::sort(parts.begin(), parts.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double total = 0.0;
  double run_start = 0.0;
  double run_end = -1.0;
  bool open = false;
  for (const Interval& part : parts) {
    if (open && part.start <= run_end) {
      run_end = std::max(run_end, part.end);
      continue;
    }
    if (open) total += run_end - run_start;
    run_start = part.start;
    run_end = part.end;
    open = true;
  }
  if (open) total += run_end - run_start;
  return total;
}

/// A span's self time: its duration minus the part its children cover.
inline double self_time_us(Interval span, std::vector<Interval> children) {
  return (span.end - span.start) - covered_us(span, std::move(children));
}

/// One rung of the serve-open load ladder, summarised.
struct Rung {
  double rate_per_s = 0.0;
  double p99_ms = 0.0;        ///< due-time latency p99 of the rung's jobs
  std::uint64_t sent = 0;
  std::uint64_t missed = 0;   ///< shed, timed out, failed or mismatched
  std::uint64_t backlog = 0;  ///< jobs still unanswered when the rung ended
};

struct LadderRule {
  double p99_limit_ms = 0.0;
  /// Unanswered jobs allowed at a rung's end: what the server may hold in
  /// flight while still answering within the limit (rate x limit), plus
  /// one job batch per dispatcher worker and the batcher's own batch.
  double backlog_slack = 0.0;
};

/// A rung holds when p99 is within the limit, nothing was missed and the
/// backlog stayed bounded (a growing backlog means the rate is above
/// capacity even if the rung was too short for p99 to show it).
inline bool rung_holds(const Rung& rung, const LadderRule& rule) {
  const double allowed =
      rung.rate_per_s * rule.p99_limit_ms / 1000.0 + rule.backlog_slack;
  return rung.sent > 0 && rung.missed == 0 &&
         rung.p99_ms <= rule.p99_limit_ms &&
         static_cast<double>(rung.backlog) <= allowed;
}

/// The ladder's result: the highest rate climbed before the first rung
/// that did not hold (later rungs never count, even if they would hold).
/// 0 when the first rung already fails.
inline double ladder_max_rate(const std::vector<Rung>& rungs,
                              const LadderRule& rule) {
  double best = 0.0;
  for (const Rung& rung : rungs) {
    if (!rung_holds(rung, rule)) break;
    best = rung.rate_per_s;
  }
  return best;
}

}  // namespace e2ebench
