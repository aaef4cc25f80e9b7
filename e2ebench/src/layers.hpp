#pragma once

// Per-layer attribution for the traced run: the benchmark's own spans, the
// timing decorator around the simulated model, the conversion of the
// program's obs::Tracer events, and the table that turns all of them into
// per-layer self time.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "llm/model.hpp"
#include "obs/trace.hpp"
#include "stats.hpp"

namespace e2ebench {

/// Steady-clock microseconds with sub-microsecond digits, on the same epoch
/// as support::now_us() so program spans and benchmark spans share a clock.
double now_us();

/// One span of the merged trace. `row` names what the span measures
/// ("toolchain.compile", "llm.model", ...), `layer` the src/ module it is
/// charged to. Wait rows (queue residency, batcher wait) are listed apart
/// from the work rows. A container (a pipeline run, a serve job's round
/// trip) is charged only what its children leave uncovered and does not
/// count as covering the wall. `children` are the spans whose time is
/// subtracted from this one's to get its self time.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t trace = 0;  ///< per-file or per-job id; 0 when none
  std::string row;
  std::string layer;
  bool wait = false;
  bool container = false;
  std::uint32_t thread = 0;  ///< program tracer thread; 0 when unknown
  double start_us = 0.0;
  double end_us = 0.0;
  std::int64_t arg = 0;
  std::vector<std::uint64_t> children;
};

/// Thread-safe in-memory sink for the benchmark's own spans; written out
/// only after the traced run.
class SpanLog {
 public:
  std::uint64_t next_id() { return ids_.fetch_add(1); }
  void add(Span span);
  std::vector<Span> take();

 private:
  std::atomic<std::uint64_t> ids_{1};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span around one call of the benchmark into a layer. A null log
/// makes it inert, so untraced passes pay one branch.
class Scope {
 public:
  Scope(SpanLog* log, std::string layer, std::string row,
        std::uint64_t trace = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  Span span_;
};

/// Timing decorator around a LanguageModel: every generate /
/// generate_batch call becomes one "llm.model" span (arg = prompts), so the
/// model's self time is separated from the client's flush bookkeeping.
class TimedModel final : public llm4vv::llm::LanguageModel {
 public:
  TimedModel(std::shared_ptr<const llm4vv::llm::LanguageModel> inner, SpanLog* log)
      : inner_(std::move(inner)), log_(log) {}

  std::string name() const override { return inner_->name(); }
  llm4vv::llm::Completion generate(const std::string& prompt,
                           const llm4vv::llm::GenerationParams& params) const override;
  std::vector<llm4vv::llm::Completion> generate_batch(
      const std::vector<std::string>& prompts,
      const llm4vv::llm::GenerationParams& params) const override;

 private:
  void record(double start, double end, std::size_t prompts) const;

  std::shared_ptr<const llm4vv::llm::LanguageModel> inner_;
  SpanLog* log_;
};

/// Convert the program's tracer events into Spans (ids offset by
/// `id_offset` so they never collide with the benchmark's own) and link
/// them: per-file spans are children of their run span, and a judge span's
/// children are the batcher flush that served it (via the flow id) plus a
/// synthesized "llm.batch_wait" span from submission to flush start.
/// `serving` charges queue residency to the serve scheduler instead of the
/// pipeline's inter-stage queues.
std::vector<Span> from_program(const std::vector<llm4vv::obs::TraceEvent>& events,
                               bool serving, std::uint64_t id_offset);

/// Make every span of row `child_row` a child of the tightest span of row
/// `parent_row` that contains it in time. Used where the benchmark's spans
/// wrap program spans (a pipeline call around its run span, a flush around
/// the model call it made) and no id links the two.
void link_contained(std::vector<Span>& spans, const std::string& parent_row,
                    const std::string& child_row);

/// On each program thread, make every work span a child of the earlier
/// work spans it overlaps (ties broken by id), so overlapping spans on one
/// thread share its time instead of each claiming all of it: the judge
/// worker's spans for one chunk all stay open while it submits and drains
/// the chunk's groups, and the inline flushes run inside them.
void link_same_thread(std::vector<Span>& spans);

/// Make spans of `child_rows` children of the `parent_row` span with the
/// same trace id (a serve job round trip and the server's per-job spans).
void link_by_trace(std::vector<Span>& spans, const std::string& parent_row,
                   const std::vector<std::string>& child_rows);

struct Row {
  std::string name;
  std::string layer;
  bool wait = false;
  std::uint64_t calls = 0;
  double self_us = 0.0;
};

struct LayerTable {
  double wall_us = 0.0;
  std::vector<Row> rows;  ///< by self time, descending
  /// Work self time per layer (wait rows excluded).
  std::map<std::string, double> layer_self_us;
  /// Wall time during which no span other than a container was open.
  double unattributed_us = 0.0;
};

/// Self time of each span = its duration minus the union of its children,
/// summed per row and per layer; the unattributed remainder is the part of
/// `wall` that no span covers.
LayerTable layer_table(const std::vector<Span>& spans, Interval wall);

/// Self time of one row (0 when absent) and its call count.
double row_self_us(const LayerTable& table, const std::string& row);
std::uint64_t row_calls(const LayerTable& table, const std::string& row);

/// The layer with the most work self time, or one of the `wait_rows` if
/// one of them is larger still. Queue residency is left out unless named:
/// it grows with any downstream bottleneck and would always win.
std::string dominant(const LayerTable& table,
                     const std::vector<std::string>& wait_rows = {});

/// Human-readable table: calls, self ms, share of wall per row and per
/// layer, then the unattributed remainder.
std::string render_table(const LayerTable& table, const std::string& title);

/// One JSON object per span (the raw material of the table).
void write_spans(const std::vector<Span>& spans, const std::string& path);

}  // namespace e2ebench
