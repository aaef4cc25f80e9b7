#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "support/jsonl.hpp"

namespace e2ebench {

namespace obs = llm4vv::obs;

namespace {
constexpr double kClockSlackUs = 1.0;
}  // namespace

double now_us() {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count()) /
         1e3;
}

void SpanLog::add(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanLog::take() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(spans_, {});
}

Scope::Scope(SpanLog* log, std::string layer, std::string row,
             std::uint64_t trace)
    : log_(log) {
  if (log_ == nullptr) return;
  span_.id = log_->next_id();
  span_.trace = trace;
  span_.layer = std::move(layer);
  span_.row = std::move(row);
  span_.start_us = now_us();
}

Scope::~Scope() {
  if (log_ == nullptr) return;
  span_.end_us = now_us();
  log_->add(std::move(span_));
}

void TimedModel::record(double start, double end, std::size_t prompts) const {
  if (log_ == nullptr) return;
  Span span;
  span.id = log_->next_id();
  span.row = "llm.model";
  span.layer = "llm";
  span.start_us = start;
  span.end_us = end;
  span.arg = static_cast<std::int64_t>(prompts);
  log_->add(std::move(span));
}

llm4vv::llm::Completion TimedModel::generate(
    const std::string& prompt, const llm4vv::llm::GenerationParams& params) const {
  const double start = now_us();
  auto completion = inner_->generate(prompt, params);
  record(start, now_us(), 1);
  return completion;
}

std::vector<llm4vv::llm::Completion> TimedModel::generate_batch(
    const std::vector<std::string>& prompts,
    const llm4vv::llm::GenerationParams& params) const {
  const double start = now_us();
  auto completions = inner_->generate_batch(prompts, params);
  record(start, now_us(), prompts.size());
  return completions;
}

std::vector<Span> from_program(const std::vector<obs::TraceEvent>& events,
                               bool serving, std::uint64_t id_offset) {
  std::vector<Span> spans;
  spans.reserve(events.size() * 2);
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  for (const obs::TraceEvent& event : events) {
    Span span;
    span.id = event.span_id + id_offset;
    span.trace = event.trace_id;
    span.start_us = static_cast<double>(event.start_us);
    span.end_us = static_cast<double>(event.end_us);
    span.arg = event.arg;
    span.thread = event.tid;
    switch (event.kind) {
      case obs::SpanKind::kRun:
        span.row = "pipeline.run", span.layer = "pipeline", span.container = true;
        break;
      case obs::SpanKind::kCompile:
        span.row = "toolchain.compile", span.layer = "toolchain";
        break;
      case obs::SpanKind::kQueueWait:
        span.row = serving ? "serve.queue_wait" : "pipeline.queue_wait";
        span.layer = serving ? "serve" : "pipeline";
        span.wait = true;
        break;
      case obs::SpanKind::kExecute:
        span.row = "vm.execute", span.layer = "vm";
        break;
      case obs::SpanKind::kJudge:
        span.row = "judge.evaluate", span.layer = "judge";
        break;
      case obs::SpanKind::kFlush:
        span.row = "llm.flush", span.layer = "llm";
        break;
      case obs::SpanKind::kRetry:
        span.row = "llm.retry", span.layer = "llm";
        break;
      case obs::SpanKind::kBackoff:
        span.row = "llm.backoff", span.layer = "llm", span.wait = true;
        break;
    }
    by_id.emplace(event.span_id, spans.size());
    spans.push_back(std::move(span));
  }
  const std::size_t program_spans = spans.size();
  std::uint64_t synth_id = 2 * id_offset;
  for (std::size_t i = 0; i < program_spans; ++i) {
    const obs::TraceEvent& event = events[i];
    if (event.parent_id != 0) {
      const auto parent = by_id.find(event.parent_id);
      if (parent != by_id.end()) {
        spans[parent->second].children.push_back(spans[i].id);
      }
    }
    if (event.kind != obs::SpanKind::kJudge || event.flow_id == 0) continue;
    const auto flush = by_id.find(event.flow_id);
    if (flush == by_id.end()) continue;
    spans[i].children.push_back(spans[flush->second].id);
    const double flush_start = spans[flush->second].start_us;
    if (flush_start > spans[i].start_us) {
      // Submission to flush start: the request sat in the batcher (with a
      // window) or waited for a model slot.
      Span wait;
      wait.id = ++synth_id;
      wait.trace = spans[i].trace;
      wait.row = "llm.batch_wait";
      wait.layer = "llm";
      wait.wait = true;
      wait.start_us = spans[i].start_us;
      wait.end_us = std::min(flush_start, spans[i].end_us);
      spans[i].children.push_back(wait.id);
      spans.push_back(std::move(wait));
    }
  }
  return spans;
}

void link_contained(std::vector<Span>& spans, const std::string& parent_row,
                    const std::string& child_row) {
  std::vector<std::size_t> parents;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].row == parent_row) parents.push_back(i);
  }
  std::sort(parents.begin(), parents.end(), [&](std::size_t a, std::size_t b) {
    return spans[a].start_us < spans[b].start_us;
  });
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].row != child_row) continue;
    const Span& child = spans[i];
    // Parents starting after the child cannot contain it; of the ones
    // that can, the latest-starting container is the tightest. Program
    // spans carry whole microseconds (truncated), so containment allows
    // one microsecond of slack at either end.
    auto it = std::upper_bound(
        parents.begin(), parents.end(), child.start_us + kClockSlackUs,
        [&](double t, std::size_t p) { return t < spans[p].start_us; });
    std::size_t best = spans.size();
    while (it != parents.begin()) {
      --it;
      if (spans[*it].end_us + kClockSlackUs >= child.end_us) {
        best = *it;
        break;
      }
    }
    if (best != spans.size()) spans[best].children.push_back(child.id);
  }
}

void link_same_thread(std::vector<Span>& spans) {
  std::map<std::uint32_t, std::vector<std::size_t>> by_thread;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.thread != 0 && !span.wait && !span.container) {
      by_thread[span.thread].push_back(i);
    }
  }
  for (auto& [thread, order] : by_thread) {
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (spans[a].start_us != spans[b].start_us) {
        return spans[a].start_us < spans[b].start_us;
      }
      return spans[a].id < spans[b].id;
    });
    for (std::size_t i = 0; i < order.size(); ++i) {
      Span& earlier = spans[order[i]];
      for (std::size_t j = i + 1; j < order.size(); ++j) {
        const Span& later = spans[order[j]];
        if (later.start_us >= earlier.end_us) break;
        earlier.children.push_back(later.id);
      }
    }
  }
}

void link_by_trace(std::vector<Span>& spans, const std::string& parent_row,
                   const std::vector<std::string>& child_rows) {
  std::unordered_map<std::uint64_t, std::size_t> parents;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].row == parent_row && spans[i].trace != 0) {
      parents.emplace(spans[i].trace, i);
    }
  }
  for (const Span& span : spans) {
    if (std::find(child_rows.begin(), child_rows.end(), span.row) ==
        child_rows.end()) {
      continue;
    }
    const auto parent = parents.find(span.trace);
    if (parent != parents.end()) {
      spans[parent->second].children.push_back(span.id);
    }
  }
}

LayerTable layer_table(const std::vector<Span>& spans, Interval wall) {
  std::unordered_map<std::uint64_t, const Span*> by_id;
  for (const Span& span : spans) by_id.emplace(span.id, &span);
  std::map<std::string, Row> rows;
  std::vector<Interval> all;
  all.reserve(spans.size());
  for (const Span& span : spans) {
    std::vector<Interval> children;
    children.reserve(span.children.size());
    for (const std::uint64_t id : span.children) {
      const auto child = by_id.find(id);
      if (child == by_id.end()) continue;
      children.push_back({child->second->start_us, child->second->end_us});
    }
    Row& row = rows[span.row];
    row.name = span.row;
    row.layer = span.layer;
    row.wait = span.wait;
    ++row.calls;
    row.self_us += self_time_us({span.start_us, span.end_us}, children);
    if (!span.container) all.push_back({span.start_us, span.end_us});
  }
  LayerTable table;
  table.wall_us = wall.end - wall.start;
  for (auto& [name, row] : rows) {
    if (!row.wait) table.layer_self_us[row.layer] += row.self_us;
    table.rows.push_back(row);
  }
  std::sort(table.rows.begin(), table.rows.end(),
            [](const Row& a, const Row& b) { return a.self_us > b.self_us; });
  table.unattributed_us = table.wall_us - covered_us(wall, std::move(all));
  return table;
}

double row_self_us(const LayerTable& table, const std::string& row) {
  for (const Row& r : table.rows) {
    if (r.name == row) return r.self_us;
  }
  return 0.0;
}

std::uint64_t row_calls(const LayerTable& table, const std::string& row) {
  for (const Row& r : table.rows) {
    if (r.name == row) return r.calls;
  }
  return 0;
}

std::string dominant(const LayerTable& table,
                     const std::vector<std::string>& wait_rows) {
  std::string best;
  double best_us = -1.0;
  for (const auto& [layer, self_us] : table.layer_self_us) {
    if (self_us > best_us) best = layer, best_us = self_us;
  }
  for (const std::string& name : wait_rows) {
    const double self_us = row_self_us(table, name);
    if (self_us > best_us) best = name, best_us = self_us;
  }
  return best;
}

std::string render_table(const LayerTable& table, const std::string& title) {
  std::string out;
  char line[256];
  const double wall = table.wall_us > 0.0 ? table.wall_us : 1.0;
  std::snprintf(line, sizeof(line), "%s: wall %.3f ms\n", title.c_str(),
                table.wall_us / 1e3);
  out += line;
  std::snprintf(line, sizeof(line), "  %-24s %5s %10s %12s %8s\n", "row",
                "kind", "calls", "self_ms", "of_wall");
  out += line;
  for (const Row& row : table.rows) {
    std::snprintf(line, sizeof(line), "  %-24s %5s %10llu %12.3f %7.1f%%\n",
                  row.name.c_str(), row.wait ? "wait" : "work",
                  static_cast<unsigned long long>(row.calls), row.self_us / 1e3,
                  100.0 * row.self_us / wall);
    out += line;
  }
  out += "  per layer (work only; threads overlap, so shares may sum past 100%):\n";
  for (const auto& [layer, self_us] : table.layer_self_us) {
    std::snprintf(line, sizeof(line), "  %-24s %29.3f %7.1f%%\n", layer.c_str(),
                  self_us / 1e3, 100.0 * self_us / wall);
    out += line;
  }
  std::snprintf(line, sizeof(line), "  %-24s %29.3f %7.1f%%\n", "unattributed",
                table.unattributed_us / 1e3, 100.0 * table.unattributed_us / wall);
  out += line;
  return out;
}

void write_spans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  for (const Span& span : spans) {
    std::string children;
    for (const std::uint64_t id : span.children) {
      if (!children.empty()) children += ',';
      children += std::to_string(id);
    }
    char times[96];
    std::snprintf(times, sizeof(times), "\"start_us\":%.3f,\"end_us\":%.3f",
                  span.start_us, span.end_us);
    out << "{\"id\":" << span.id << ",\"trace\":" << span.trace
        << ",\"row\":\"" << llm4vv::support::json_escape(span.row)
        << "\",\"layer\":\"" << span.layer << "\",\"wait\":"
        << (span.wait ? "true" : "false") << "," << times
        << ",\"arg\":" << span.arg << ",\"children\":[" << children << "]}\n";
  }
}

}  // namespace e2ebench
