// Unit tests of the benchmark's arithmetic: percentile rank, due-time
// latency, self-time subtraction and the load ladder's stop rule.

#include <cstdio>
#include <vector>

#include "layers.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return a - b < 1e-9 && b - a < 1e-9; }

}  // namespace

int main() {
  using namespace e2ebench;

  // Percentile rank is nearest-rank: an actual sample, never interpolated.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  check(percentile_rank(hundred, 99) == 99, "p99 of 1..100 is 99");
  check(percentile_rank(hundred, 50) == 50, "p50 of 1..100 is 50");
  check(percentile_rank(hundred, 100) == 100, "p100 is the maximum");
  check(percentile_rank({7, 3}, 99) == 7, "p99 of two samples is the larger");
  check(percentile_rank({}, 99) == 0, "no samples gives 0");
  check(percentile_rank({5}, 1) == 5, "a single sample is every percentile");
  check(samples_beyond(1000, 99) == 10, "1000 samples leave 10 beyond p99");
  check(samples_beyond(100, 99) == 1, "100 samples leave 1 beyond p99");
  check(median({4, 1, 3, 2}) == 2.5, "even-count median averages the middle");
  check(median({9, 1, 5}) == 5, "odd-count median is the middle sample");

  // Due-time latency: a generator that stalls 5 ms and then sends three
  // jobs at once charges each job from when it was due, not when sent.
  const double start = 1000.0;
  std::vector<double> latencies;
  for (std::uint64_t j = 0; j < 3; ++j) {
    const double due = due_us(start, 1000.0, j);  // 1 ms apart
    const double sent = start + 5000.0;           // all sent after the stall
    const double answered = sent + 200.0;
    latencies.push_back(due_latency_us(due, answered));
  }
  check(near(latencies[0], 5200.0) && near(latencies[1], 4200.0) &&
            near(latencies[2], 3200.0),
        "latency counts the stall from each job's due time");
  check(near(due_us(0.0, 3.0, 3), 1e6), "due times come from the index, not a running sum");

  // Self time: duration minus the union of the children, clipped to the
  // span; overlapping children are not subtracted twice.
  check(near(self_time_us({0, 100}, {{10, 30}, {20, 40}, {90, 150}}), 60.0),
        "overlapping and overhanging children");
  check(near(self_time_us({0, 100}, {}), 100.0), "no children");
  check(near(covered_us({0, 10}, {{20, 30}}), 0.0), "disjoint child covers nothing");

  // The table: a parent with one child; a wait row stays out of the
  // per-layer work sums; the unattributed remainder is the uncovered wall.
  std::vector<Span> spans(3);
  spans[0] = Span{1, 0, "judge.evaluate", "judge", false, false, 0, 10, 50, 0, {2, 3}};
  spans[1] = Span{2, 0, "llm.flush", "llm", false, false, 0, 20, 40, 0, {}};
  spans[2] = Span{3, 0, "llm.batch_wait", "llm", true, false, 0, 10, 20, 0, {}};
  const LayerTable table = layer_table(spans, {0, 100});
  check(near(row_self_us(table, "judge.evaluate"), 10.0), "judge self excludes flush and wait");
  check(near(table.layer_self_us.at("llm"), 20.0), "wait rows stay out of layer sums");
  check(near(table.unattributed_us, 60.0), "unattributed is the wall no span covers");
  check(dominant(table) == "llm", "dominant picks the largest layer");
  check(dominant(table, {"llm.batch_wait"}) == "llm", "a smaller named wait row loses");
  spans[2].end_us = 45;  // the wait now outgrows every layer
  const LayerTable waity = layer_table(spans, {0, 100});
  check(dominant(waity) == "llm", "unnamed wait rows never win");
  check(dominant(waity, {"llm.batch_wait"}) == "llm.batch_wait", "a named wait row can win");

  // Containment linking: the tightest (latest-starting) container wins.
  std::vector<Span> nested(3);
  nested[0] = Span{1, 0, "llm.flush", "llm", false, false, 0, 0, 100, 0, {}};
  nested[1] = Span{2, 0, "llm.flush", "llm", false, false, 0, 50, 90, 0, {}};
  nested[2] = Span{3, 0, "llm.model", "llm", false, false, 0, 60, 80, 0, {}};
  link_contained(nested, "llm.flush", "llm.model");
  check(nested[0].children.empty() && nested[1].children.size() == 1,
        "model span links to the flush that contains it most tightly");

  // One thread, overlapping spans: a chunk's two judge spans open together
  // (ties broken by id) and a flush inside them. Each instant is charged
  // once; a container is charged only its uncovered time and never covers
  // the wall.
  std::vector<Span> thread(4);
  thread[0] = Span{1, 0, "judge.evaluate", "judge", false, false, 7, 0, 100, 0, {}};
  thread[1] = Span{2, 0, "judge.evaluate", "judge", false, false, 7, 0, 100, 0, {}};
  thread[2] = Span{3, 0, "llm.flush", "llm", false, false, 7, 20, 60, 0, {}};
  thread[3] = Span{4, 0, "pipeline.run", "pipeline", false, true, 7, 0, 120, 0, {1, 2}};
  link_same_thread(thread);
  const LayerTable shared = layer_table(thread, {0, 150});
  check(near(row_self_us(shared, "judge.evaluate"), 60.0),
        "overlapping judge spans share the thread");
  check(near(row_self_us(shared, "llm.flush"), 40.0), "the inline flush keeps its own time");
  check(near(row_self_us(shared, "pipeline.run"), 20.0),
        "a container gets what its children leave");
  check(near(shared.unattributed_us, 50.0), "containers do not cover the wall");

  // Ladder: climb until the first rung that fails; later rungs never count.
  LadderRule rule;
  rule.p99_limit_ms = 20.0;
  rule.backlog_slack = 24.0;
  std::vector<Rung> rungs = {
      {1000, 5.0, 500, 0, 3},    // holds
      {2000, 12.0, 1000, 0, 10}, // holds
      {3000, 30.0, 1500, 0, 20}, // p99 over the limit: stop here
      {4000, 8.0, 2000, 0, 5},   // would hold, but the ladder already stopped
  };
  check(ladder_max_rate(rungs, rule) == 2000, "ladder stops at the first failing rung");
  rungs[1].missed = 1;
  check(ladder_max_rate(rungs, rule) == 1000, "a shed or failed job fails its rung");
  rungs[1].missed = 0;
  rungs[1].backlog = 2000 * 20 / 1000 + 25;  // one past the allowance
  check(ladder_max_rate(rungs, rule) == 1000, "a backlog past rate x limit + slack fails");
  rungs[1].backlog = 2000 * 20 / 1000 + 24;
  check(ladder_max_rate(rungs, rule) == 2000, "a backlog at the allowance holds");
  rungs[0].p99_ms = 21.0;
  check(ladder_max_rate(rungs, rule) == 0, "a failing first rung gives 0");
  check(!rung_holds(Rung{1000, 1.0, 0, 0, 0}, rule), "a rung that sent nothing does not hold");

  if (failures == 0) std::puts("e2ebench_test: all checks passed");
  return failures == 0 ? 0 : 1;
}
