// Unit tests of the obs/ telemetry subsystem: sharded registry cells
// (exact totals under concurrent writers), probe registration, the
// Prometheus text renderer, the per-thread-ring tracer with its bounded
// drop-oldest storage, ObsSpan RAII semantics, and both exporters (Chrome
// trace-event JSON and the JSONL span log).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "support/jsonl.hpp"
#include "support/strings.hpp"

namespace llm4vv::obs {
namespace {

double sample(const MetricsSnapshot& snapshot, const std::string& name,
              const std::string& label = "") {
  const MetricSample* found = find_sample(snapshot, name, label);
  return found != nullptr ? found->value : -1.0;
}

TEST(ObsRegistryTest, CounterExactUnderConcurrentWriters) {
  Registry registry;
  Counter counter = registry.counter("test.hits");
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (auto& thread : threads) thread.join();
  counter.inc(5);
  EXPECT_EQ(sample(registry.snapshot(), "test.hits"),
            static_cast<double>(kThreads * kPerThread + 5));
}

TEST(ObsRegistryTest, CounterHandleIsGetOrCreate) {
  Registry registry;
  registry.counter("dup").inc(3);
  registry.counter("dup").inc(4);
  EXPECT_EQ(sample(registry.snapshot(), "dup"), 7.0);
}

TEST(ObsRegistryTest, ProbesReplaceAndUnregisterByPrefix) {
  Registry registry;
  registry.register_probe("run.depth", [] { return 1.0; });
  registry.register_probe("run.depth", [] { return 2.0; });  // replaces
  registry.register_probe("run.steals", [] { return 3.0; });
  registry.register_probe("keep.me", [] { return 4.0; });
  auto snapshot = registry.snapshot();
  EXPECT_EQ(sample(snapshot, "run.depth"), 2.0);
  EXPECT_EQ(sample(snapshot, "run.steals"), 3.0);
  registry.unregister_prefix("run.");
  snapshot = registry.snapshot();
  EXPECT_EQ(find_sample(snapshot, "run.depth"), nullptr);
  EXPECT_EQ(find_sample(snapshot, "run.steals"), nullptr);
  EXPECT_EQ(sample(snapshot, "keep.me"), 4.0);
}

TEST(ObsRegistryTest, SnapshotSortedByName) {
  Registry registry;
  registry.counter("zz").inc();
  registry.counter("aa").inc();
  registry.register_probe("mm", [] { return 1.0; });
  const auto snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_TRUE(std::is_sorted(
      snapshot.begin(), snapshot.end(),
      [](const MetricSample& a, const MetricSample& b) {
        return a.name < b.name;
      }));
}

TEST(ObsRegistryTest, RenderTextPrometheusShape) {
  Registry registry;
  registry.counter("pipeline.judge.errors").inc(2);
  registry.register_probe("chunk", "le:8", [] { return 1.0; });
  registry.register_probe("chunk", "le:+Inf", [] { return 0.0; });
  const std::string text = registry.render_text();
  EXPECT_NE(text.find("# TYPE llm4vv_pipeline_judge_errors untyped\n"),
            std::string::npos);
  EXPECT_NE(text.find("llm4vv_pipeline_judge_errors 2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE llm4vv_chunk histogram\n"), std::string::npos);
  EXPECT_NE(text.find("llm4vv_chunk{le=\"8\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("llm4vv_chunk{le=\"+Inf\"} 0\n"), std::string::npos);
}

TEST(ObsRegistryTest, NullHandlesAreInert) {
  Counter counter;
  counter.inc();  // must not crash
  EXPECT_FALSE(static_cast<bool>(counter));
}

TEST(ObsTracerTest, RecordsFromManyThreadsCollectSorted) {
  Tracer tracer;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kSpans = 50;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (std::size_t i = 0; i < kSpans; ++i) {
        ObsSpan span(&tracer, SpanKind::kExecute, t * kSpans + i + 1);
        span.set_arg(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto events = tracer.collect();
  ASSERT_EQ(events.size(), kThreads * kSpans);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_TRUE(std::is_sorted(events.begin(), events.end(),
                             [](const TraceEvent& a, const TraceEvent& b) {
                               return a.start_us < b.start_us ||
                                      (a.start_us == b.start_us &&
                                       a.span_id < b.span_id);
                             }));
  // Every span got a distinct id and a ring tid.
  std::set<std::uint64_t> ids;
  std::set<std::uint32_t> tids;
  for (const auto& event : events) {
    ids.insert(event.span_id);
    tids.insert(event.tid);
    EXPECT_GE(event.end_us, event.start_us);
  }
  EXPECT_EQ(ids.size(), events.size());
  EXPECT_EQ(tids.size(), kThreads);
}

TEST(ObsTracerTest, RingBoundsDropOldest) {
  Tracer tracer(/*ring_capacity=*/4);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    ObsSpan span(&tracer, SpanKind::kCompile, i);
    span.end();
  }
  const auto events = tracer.collect();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  // The survivors are the newest four, still in order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].trace_id, 7 + i);
  }
}

TEST(ObsSpanTest, RaiiRecordsOnDestruction) {
  Tracer tracer;
  {
    ObsSpan span(&tracer, SpanKind::kJudge, 3, /*parent_id=*/9);
    span.set_arg(2);
    span.set_gpu_seconds(1.5);
    span.set_flow(77);
  }
  const auto events = tracer.collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, SpanKind::kJudge);
  EXPECT_EQ(events[0].trace_id, 3u);
  EXPECT_EQ(events[0].parent_id, 9u);
  EXPECT_EQ(events[0].arg, 2);
  EXPECT_EQ(events[0].gpu_seconds, 1.5);
  EXPECT_EQ(events[0].flow_id, 77u);
  EXPECT_NE(events[0].span_id, 0u);
}

TEST(ObsSpanTest, EndIsIdempotentAndBackdatingSticks) {
  Tracer tracer;
  ObsSpan span(&tracer, SpanKind::kQueueWait, 1);
  span.set_start_us(123);
  span.end();
  span.end();  // second end must not double-record
  const auto events = tracer.collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].start_us, 123u);
}

TEST(ObsSpanTest, NullTracerSpanIsInert) {
  ObsSpan span(nullptr, SpanKind::kRun, 0);
  EXPECT_FALSE(static_cast<bool>(span));
  span.set_arg(1);
  span.end();  // no-op, no crash
  ObsSpan defaulted;
  EXPECT_FALSE(static_cast<bool>(defaulted));
}

TEST(ObsSpanTest, MoveTransfersOwnership) {
  Tracer tracer;
  ObsSpan a(&tracer, SpanKind::kFlush, 0);
  ObsSpan b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_TRUE(static_cast<bool>(b));
  b.end();
  EXPECT_EQ(tracer.collect().size(), 1u);
}

std::vector<TraceEvent> synthetic_events() {
  // A flush (flow origin 500), a judge span served by it, and a judge span
  // referencing a flow whose origin is NOT in the trace (cache replay).
  TraceEvent flush;
  flush.kind = SpanKind::kFlush;
  flush.span_id = 500;
  flush.flow_id = 500;
  flush.start_us = 1000;
  flush.end_us = 1400;
  flush.arg = 3;
  flush.tid = 1;
  TraceEvent judged;
  judged.kind = SpanKind::kJudge;
  judged.trace_id = 7;
  judged.span_id = 501;
  judged.flow_id = 500;
  judged.start_us = 900;
  judged.end_us = 1500;
  judged.arg = 2;
  judged.gpu_seconds = 12.25;
  judged.tid = 2;
  TraceEvent replayed;
  replayed.kind = SpanKind::kJudge;
  replayed.trace_id = 8;
  replayed.span_id = 502;
  replayed.flow_id = 99999;  // origin not collected
  replayed.start_us = 950;
  replayed.end_us = 960;
  replayed.tid = 2;
  return {judged, replayed, flush};
}

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

TEST(ObsExportTest, ChromeTraceShapeAndFlowGuard) {
  std::ostringstream out;
  write_chrome_trace(out, synthetic_events(), /*dropped_events=*/2);
  const std::string text = out.str();
  EXPECT_EQ(text.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(text.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(text.find("\"dropped_events\":2"), std::string::npos);
  EXPECT_EQ(count_occurrences(text, "\"ph\":\"X\""), 3u);
  // Timestamps rebase to the earliest span (the judge span at 900).
  EXPECT_NE(text.find("\"ts\":0,"), std::string::npos);
  // Exactly one flow origin (the flush) and one flow target (the served
  // judge span); the cache-replayed span's unknown flow id emits nothing.
  EXPECT_EQ(count_occurrences(text, "\"ph\":\"s\""), 1u);
  EXPECT_EQ(count_occurrences(text, "\"ph\":\"f\""), 1u);
  EXPECT_NE(text.find("\"bp\":\"e\""), std::string::npos);
  // Metadata names the process and both worker threads.
  EXPECT_EQ(count_occurrences(text, "\"ph\":\"M\""), 3u);
  EXPECT_NE(text.find("\"gpu_s\":12.25"), std::string::npos);
  EXPECT_NE(text.find("\"verdict\":2"), std::string::npos);
  EXPECT_NE(text.find("\"batch_size\":3"), std::string::npos);
}

TEST(ObsExportTest, JsonlLinesParseFlat) {
  std::ostringstream out;
  write_span_jsonl(out, synthetic_events());
  const auto lines = support::split_lines(out.str());
  std::size_t parsed = 0;
  for (const auto& line : lines) {
    if (line.empty()) continue;
    const auto object = support::parse_json_object_line(line);
    ASSERT_TRUE(object.has_value()) << line;
    EXPECT_NE(object->find("kind"), object->end());
    EXPECT_NE(object->find("trace_id"), object->end());
    EXPECT_NE(object->find("start_us"), object->end());
    EXPECT_NE(object->find("dur_us"), object->end());
    ++parsed;
  }
  EXPECT_EQ(parsed, 3u);
}

TEST(ObsExportTest, EmptyTraceIsStillValid) {
  std::ostringstream out;
  write_chrome_trace(out, {}, 0);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(text.find("\"dropped_events\":0"), std::string::npos);
}

}  // namespace
}  // namespace llm4vv::obs
