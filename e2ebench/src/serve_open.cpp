// serve-open: an in-process serve::Server fed by one loopback connection
// (a sender thread plus a reader thread) on a fixed open-loop schedule.
// Latency is timed from when each job was due, so a stalled generator or
// server shows as latency instead of silently lowering the offered load.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <memory>
#include <thread>

#include "core/experiments.hpp"
#include "judge/judge.hpp"
#include "llm/coder_model.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "layers.hpp"
#include "stats.hpp"
#include "workload_common.hpp"

namespace e2ebench {

using namespace llm4vv;

namespace {

// The schedule. The hold rate is about a sixth of what the server sustained
// at the parent commit on a 4-vCPU host (6000-8000 jobs/s). At half of it
// (3000 jobs/s) host stalls tipped the server into queueing and the median
// latency of identical runs moved by 12%; at 1000 jobs/s it moved by 4%.
constexpr double kHoldRate = 1000.0;
/// Share of --seconds spent holding; the rest climbs the ladder, again and
/// again, each climb from an idle server. The first climb after the hold
/// only warms the server for high load (the first one or two climbs of a
/// process often failed early, at half the rate later climbs reached) and
/// is not counted. Each later climb starts kStartBelow rungs below the
/// last rung the climb before it got through, so a climb takes about two
/// seconds however fast the host is.
/// max_rate_per_s is the median over the counted climbs, so one stall in a
/// 0.3 s rung cannot set it. The hold is one stretch: holding right after
/// a climb had a two-to-three times higher p99 than holding first.
constexpr double kHoldShare = 0.3;
constexpr std::size_t kMinClimbs = 3;
constexpr std::size_t kMaxClimbs = 5;
constexpr std::size_t kStartBelow = 4;
/// Rungs 8% apart from 4000 jobs/s. The same server ran 6000-12000 jobs/s
/// at the parent commit as the host's load changed, so the ladder reaches
/// far above that.
constexpr double kRungSeconds = 0.3;
constexpr std::size_t kRungs = 28;
constexpr double kFirstRung = 4000.0;
constexpr double kRungStep = 1.08;
/// p99 limit of a ladder rung, set once from the parent commit's numbers:
/// hold-phase p99 ran 3-9 ms with hypervisor stalls of up to ~25 ms, so
/// 50 ms leaves the ladder's stop to capacity (backlog) rather than to a
/// single stall.
constexpr double kP99LimitMs = 50.0;
/// Unanswered jobs at which the generator stops a climb outright: below the
/// scheduler's 1024-job bound (workers and the batcher hold a few dozen
/// more), so neither the ladder nor a long host stall makes the server shed.
constexpr std::uint64_t kMaxBacklog = 900;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kJobBatch = 8;
constexpr std::size_t kBatcherMax = 8;
constexpr std::uint64_t kBatcherWindowUs = 300;
constexpr int kSetups = 101;

enum class PhaseKind { kWarmup, kHold, kRung };

struct Phase {
  PhaseKind kind = PhaseKind::kHold;
  double rate = 0.0;
  double seconds = 0.0;
  std::size_t climb = 0;  ///< rungs: which climb of the ladder
  std::size_t rung = 0;   ///< rungs: which rung of the ladder
};

/// Per-job record, filled by the sender (due/sent) and the reader.
struct JobRecord {
  std::size_t phase = 0;
  double due_us = 0.0;
  double sent_us = 0.0;
  double answered_us = 0.0;
  bool answered = false;
  serve::ResponseType type = serve::ResponseType::kInvalid;
  std::string verdict;
  bool compiled = false;
  bool executed = false;
  double gpu_seconds = 0.0;
  std::uint64_t server_us = 0;
};

/// One server with its model client and judge: the workload's set-up.
struct ServerRig {
  std::shared_ptr<TimedModel> timed;
  std::shared_ptr<llm::ModelClient> client;
  std::shared_ptr<const judge::Llmj> judge;
  std::unique_ptr<serve::Server> server;
};

ServerRig build_server(SpanLog* log, const std::shared_ptr<obs::Tracer>& tracer) {
  Scope s(log, "serve", "serve.setup");
  ServerRig rig;
  std::shared_ptr<const llm::LanguageModel> model =
      std::make_shared<const llm::SimulatedCoderModel>();
  if (log != nullptr) {
    rig.timed = std::make_shared<TimedModel>(model, log);
    model = rig.timed;
  }
  llm::BatcherConfig batcher;
  batcher.max_batch = kBatcherMax;
  batcher.window_us = kBatcherWindowUs;
  rig.client = std::make_shared<llm::ModelClient>(model, 4, 0, batcher);
  if (tracer) rig.client->set_tracer(tracer);
  rig.judge = std::make_shared<const judge::Llmj>(
      rig.client, llm::PromptStyle::kAgentDirect, judge::JudgeCacheConfig{});
  serve::ServerConfig config;
  config.workers = kWorkers;
  config.job_batch = kJobBatch;
  config.trace = tracer;
  rig.server = std::make_unique<serve::Server>(
      toolchain::CompilerDriver(toolchain::nvc_persona()), toolchain::Executor(),
      rig.judge, config);
  rig.server->start();
  return rig;
}

frontend::SourceFile job_file(const Group& pool, std::uint64_t index,
                              std::uint64_t seed) {
  // Unique payloads, so the judge memo cannot answer from earlier jobs.
  frontend::SourceFile file = pool.files[index % pool.files.size()];
  file.content += "\n// job " + std::to_string(index) + " seed " +
                  std::to_string(seed) + "\n";
  return file;
}

/// Drive one schedule through `rig`'s server. Jobs get ids first_id,
/// first_id+1, ... (the server numbers them seq = id + 1 when they arrive
/// on a fresh server in order).
struct Drive {
  std::vector<JobRecord> jobs;
  std::vector<std::uint64_t> backlog;  ///< per phase: unanswered at its end
  bool transport_failed = false;
  /// Process CPU from the hold's start until its jobs were answered, less
  /// the sender's own.
  double hold_cpu_s = 0.0;
  double peak_rss_mb = 0.0;  ///< when the drive ended, before any oracle
};

double thread_cpu_seconds() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

/// The hold and each climb start once every job sent so far was answered,
/// their due times counted from then. During the warm-up and the hold the
/// sender busy-waits for each due time instead of sleeping: a sleeping
/// sender woke up to 2.5 ms late on a VM (p99), which both landed in the
/// jobs' latency and bunched jobs into shared model batches, moving
/// sim_gpu_s_per_file by 20% between identical runs. Its CPU is kept out
/// of hold_cpu_s. On the climbs it sleeps, leaving the cores to the
/// server. A climb ends at its first rung whose
/// backlog outgrows the stop rule. Climbs after the warm-up climb (climb 0)
/// start while fewer than kMinClimbs ran or `climb_until_s` seconds have
/// not yet passed since the hold began.
Drive drive(ServerRig& rig, const Group& pool, std::uint64_t seed,
            const std::vector<Phase>& phases, const LadderRule& rule,
            std::uint64_t first_id, double climb_until_s) {
  Drive d;
  std::size_t total = 0;
  for (const Phase& p : phases) {
    total += static_cast<std::size_t>(p.rate * p.seconds);
  }
  d.jobs.resize(total);
  d.backlog.assign(phases.size(), 0);

  serve::Client client;
  if (!client.connect("127.0.0.1", rig.server->port(), "bench")) {
    d.transport_failed = true;
    return d;
  }
  std::atomic<std::size_t> sent{0};
  std::atomic<std::size_t> answered{0};
  std::atomic<bool> sender_done{false};
  std::atomic<bool> transport_failed{false};
  std::thread reader([&] {
    double idle_since = now_us();
    for (;;) {
      const bool done = sender_done.load(std::memory_order_acquire);
      if (done && answered.load() >= sent.load()) break;
      const auto response = client.next_response(100);
      if (!response.has_value()) {
        if (!client.last_error().empty()) {
          transport_failed.store(true);
          break;
        }
        if (done && now_us() - idle_since > 20e6) break;  // give up on stragglers
        continue;
      }
      idle_since = now_us();
      if (!response->terminal() || !response->has_id) continue;
      const std::uint64_t g = response->id - first_id;
      if (response->id < first_id || g >= total) continue;
      JobRecord& job = d.jobs[g];
      job.answered_us = now_us();
      job.answered = true;
      job.type = response->type;
      job.verdict = response->verdict;
      job.compiled = response->compiled;
      job.executed = response->executed;
      job.gpu_seconds = response->gpu_seconds;
      job.server_us = response->latency_us;
      answered.fetch_add(1);
    }
  });
  std::thread sender([&] {
    // Process CPU less this (spinning) thread's.
    const auto server_cpu = [] { return cpu_seconds() - thread_cpu_seconds(); };
    // Waits (at most 5 s) until every job sent so far was answered.
    const auto drain = [&](std::size_t sent_jobs) {
      const double give_up = now_us() + 5e6;
      while (answered.load() < sent_jobs && now_us() < give_up) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    };
    double phase_start = now_us() + 1000.0;
    double hold_start = phase_start;
    double hold_cpu0 = 0.0;
    bool in_hold = false;
    const auto end_hold = [&] {
      if (in_hold) d.hold_cpu_s += server_cpu() - hold_cpu0;
      in_hold = false;
    };
    constexpr std::size_t kNone = ~std::size_t{0};
    std::size_t climbing = kNone;
    std::size_t failed_climb = kNone;
    std::size_t planned = kNone;  // the climb whose start was chosen last
    std::size_t top = 0;          // last rung the current climb got through
    std::size_t start_rung = 0;
    std::size_t g = 0;
    for (std::size_t p = 0; p < phases.size(); ++p) {
      const Phase& phase = phases[p];
      const bool rung = phase.kind == PhaseKind::kRung;
      if (rung && phase.climb == failed_climb) continue;
      if (rung && phase.climb != planned) {
        planned = phase.climb;
        start_rung = planned > 0 && top > kStartBelow ? top - kStartBelow : 0;
        top = 0;
      }
      if (rung && phase.rung < start_rung) continue;
      if (phase.kind == PhaseKind::kHold || (rung && phase.climb != climbing)) {
        drain(g);
        end_hold();
        if (rung && phase.climb > kMinClimbs &&
            (now_us() - hold_start) / 1e6 >= climb_until_s) {
          break;
        }
        phase_start = now_us() + 1000.0;
        if (rung) climbing = phase.climb;
        if (!rung) {
          hold_start = phase_start;
          hold_cpu0 = server_cpu();
          in_hold = true;
        }
      }
      const auto n = static_cast<std::size_t>(phase.rate * phase.seconds);
      bool stop = false;
      for (std::size_t k = 0; k < n; ++k, ++g) {
        JobRecord& job = d.jobs[g];
        job.phase = p;
        job.due_us = due_us(phase_start, phase.rate, k);
        // The payload is built before the job is due, so generation stays
        // outside its latency (a late build shows as generator lag).
        const frontend::SourceFile file = job_file(pool, first_id + g, seed);
        if (rung) {
          const double wait = job.due_us - now_us();
          if (wait > 0) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(static_cast<std::int64_t>(wait * 1e3)));
          }
        } else {
          while (now_us() < job.due_us) {
          }
        }
        job.sent_us = now_us();
        if (!client.send_submit(first_id + g, file)) {
          transport_failed.store(true);
          break;
        }
        sent.store(g + 1, std::memory_order_release);
        if (g + 1 - answered.load() > kMaxBacklog) {
          stop = true;
          ++g;
          break;
        }
      }
      if (transport_failed.load()) break;
      phase_start += static_cast<double>(n) * 1e6 / phase.rate;
      const std::uint64_t backlog = g - answered.load();
      d.backlog[p] = backlog;
      if (!rung) {
        if (stop) break;
        continue;
      }
      const double allowed = phase.rate * rule.p99_limit_ms / 1000.0 + rule.backlog_slack;
      if (stop || static_cast<double>(backlog) > allowed) {
        failed_climb = phase.climb;
      } else {
        top = phase.rung;
      }
    }
    drain(g);
    end_hold();
    sender_done.store(true, std::memory_order_release);
  });
  sender.join();
  reader.join();
  d.peak_rss_mb = peak_rss_mb();
  d.transport_failed = transport_failed.load();
  d.jobs.resize(sent.load());  // jobs never sent are not part of the run
  client.close();
  return d;
}

/// Compile, execute and Llmj::evaluate each job directly, sequential paper
/// mode per thread (caches off, window 0); split over a few threads since
/// this runs after the measurement and every answer is per-file
/// deterministic.
std::vector<Expected> job_oracle(const std::vector<frontend::SourceFile>& files) {
  std::vector<Expected> expected(files.size());
  const std::size_t threads = 4;
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      auto client = core::make_simulated_client(1);
      judge::JudgeCacheConfig cache;
      cache.enabled = false;
      const judge::Llmj judge(client, llm::PromptStyle::kAgentDirect, cache);
      const toolchain::CompilerDriver compiler(toolchain::nvc_persona());
      const toolchain::Executor executor;
      for (std::size_t j = t; j < files.size(); j += threads) {
        const auto compile = compiler.compile(files[j]);
        const auto exec = executor.run(compile.module);
        const auto decision = judge.evaluate(files[j], &compile, &exec, 0);
        expected[j] = Expected{compile.success, compile.return_code, exec.return_code,
                               exec.passed(), decision.verdict,
                               decision.completion.latency_seconds};
      }
    });
  }
  for (auto& thread : pool) thread.join();
  return expected;
}

/// Count misses (shed, error, unanswered, mismatch) per phase and check
/// every answered job against the oracle.
std::vector<std::uint64_t> check_jobs(const Drive& d, const Group& pool,
                                      std::uint64_t seed, std::uint64_t first_id,
                                      std::size_t phases, Result& out) {
  std::vector<frontend::SourceFile> files;
  files.reserve(d.jobs.size());
  for (std::size_t j = 0; j < d.jobs.size(); ++j) {
    files.push_back(job_file(pool, first_id + j, seed));
  }
  const std::vector<Expected> expected = job_oracle(files);
  std::vector<std::uint64_t> missed(phases, 0);
  for (std::size_t j = 0; j < d.jobs.size(); ++j) {
    const JobRecord& job = d.jobs[j];
    std::string what;
    if (!job.answered) what = "no response";
    else if (job.type == serve::ResponseType::kShed) what = "shed";
    else if (job.type != serve::ResponseType::kVerdict) what = "judge error";
    else if (job.compiled != expected[j].compiled) what = "compile outcome";
    else if (job.executed != expected[j].passed) what = "exec outcome";
    else if (job.verdict != judge::verdict_name(expected[j].verdict)) what = "verdict";
    if (what.empty()) continue;
    ++missed[job.phase];
    if (what == "compile outcome" || what == "exec outcome" || what == "verdict") {
      out.mismatch("job " + std::to_string(first_id + j) + ": " + what);
    } else {
      ++out.failed;
    }
  }
  if (d.transport_failed) ++out.failed;
  return missed;
}

std::vector<double> phase_latencies_ms(const Drive& d, std::size_t phase) {
  std::vector<double> latencies;
  for (const JobRecord& job : d.jobs) {
    if (job.phase == phase && job.answered) {
      latencies.push_back(due_latency_us(job.due_us, job.answered_us) / 1e3);
    }
  }
  return latencies;
}

/// Jobs of a phase answered per second, from its first due time to its
/// last answer: the rate the server actually sustained on that step.
double answered_rate(const Drive& d, std::size_t phase) {
  double first_due = 0.0, last_answer = 0.0, answered = 0.0;
  for (const JobRecord& job : d.jobs) {
    if (job.phase != phase || !job.answered) continue;
    if (answered == 0.0) first_due = job.due_us;
    last_answer = std::max(last_answer, job.answered_us);
    ++answered;
  }
  return last_answer > first_due ? answered / ((last_answer - first_due) / 1e6) : 0.0;
}

void stop(ServerRig& rig) {
  rig.server->request_drain();
  rig.server->wait();
}

}  // namespace

Result serve_open(const Options& opts) {
  Result out;
  const Group pool = part_two_group(frontend::Flavor::kOpenACC, opts.seed);
  LadderRule rule;
  rule.p99_limit_ms = kP99LimitMs;
  rule.backlog_slack = static_cast<double>(kWorkers * kJobBatch + kBatcherMax);

  // Set-up, several times: the median is the reported figure.
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = now_us();
    ServerRig rig = build_server(nullptr, nullptr);
    setups.push_back((now_us() - t0) / 1e6);
    stop(rig);
  }
  // The hold takes kHoldShare of --seconds and the climbs the rest (a
  // traced run holds for at most 2 s and does not climb).
  std::vector<Phase> phases = {
      {PhaseKind::kWarmup, kHoldRate, kWarmupSeconds},
      {PhaseKind::kHold, kHoldRate,
       opts.trace ? std::min(opts.seconds, 2.0) : opts.seconds * kHoldShare}};
  if (!opts.trace) {
    for (std::size_t climb = 0; climb <= kMaxClimbs; ++climb) {
      double rate = kFirstRung;
      for (std::size_t rung = 0; rung < kRungs; ++rung, rate *= kRungStep) {
        phases.push_back({PhaseKind::kRung, std::round(rate / 100) * 100, kRungSeconds,
                          climb, rung});
      }
    }
  }
  const double t0 = now_us();
  ServerRig rig = build_server(nullptr, nullptr);
  setups.push_back((now_us() - t0) / 1e6);
  const Drive d = drive(rig, pool, opts.seed, phases, rule, 0, opts.seconds);
  stop(rig);
  const auto missed = check_jobs(d, pool, opts.seed, 0, phases.size(), out);

  // Hold phase: latency, throughput, cost.
  const std::size_t hold = 1;
  const std::vector<double> hold_latency = phase_latencies_ms(d, hold);
  double hold_jobs = 0, hold_gpu = 0;
  std::vector<double> lag_ms;
  for (const JobRecord& job : d.jobs) {
    out.attempted += job.phase >= hold;
    if (job.phase != hold) continue;
    ++hold_jobs;
    hold_gpu += job.gpu_seconds;
    lag_ms.push_back((job.sent_us - job.due_us) / 1e3);
  }
  const double hold_cpu_per_job = d.hold_cpu_s / std::max(1.0, hold_jobs);

  if (!opts.trace) {
    std::vector<std::uint64_t> sent_in(phases.size(), 0);
    for (const JobRecord& job : d.jobs) ++sent_in[job.phase];
    std::vector<double> climb_rates;
    std::string climbs;
    char line[256];
    // The hold is the floor of every climb: a climb holds at least the hold
    // rate when the hold does.
    Rung floor;
    floor.rate_per_s = answered_rate(d, hold);
    floor.p99_ms = percentile_rank(hold_latency, 99);
    floor.missed = missed[hold];
    floor.sent = sent_in[hold];
    for (std::size_t climb = 0; climb <= kMaxClimbs; ++climb) {
      std::vector<Rung> rungs = {floor};
      std::string steps;
      for (std::size_t p = 2; p < phases.size(); ++p) {
        if (phases[p].climb != climb) continue;
        Rung rung;
        rung.rate_per_s = answered_rate(d, p);
        rung.p99_ms = percentile_rank(phase_latencies_ms(d, p), 99);
        rung.missed = missed[p];
        rung.backlog = d.backlog[p];
        rung.sent = sent_in[p];
        if (rung.sent == 0 && rungs.size() == 1) continue;  // below the climb's start
        if (rung.sent == 0 || !rung_holds(rungs.back(), rule)) break;
        rungs.push_back(rung);
        const bool holds = rung_holds(rung, rule);
        std::snprintf(line, sizeof(line), holds ? " %.0f" : " %.0f fails (p99 %.1f ms, "
                      "backlog %llu, missed %llu)", rung.rate_per_s, rung.p99_ms,
                      static_cast<unsigned long long>(rung.backlog),
                      static_cast<unsigned long long>(rung.missed));
        steps += line;
      }
      if (rungs.size() == 1) break;  // this climb never started
      const double rate = ladder_max_rate(rungs, rule);
      if (climb > 0) climb_rates.push_back(rate);
      std::snprintf(line, sizeof(line), "  %s -> %.1f/s, rungs answered/s:",
                    climb == 0 ? "warm-up climb" : ("climb " + std::to_string(climb)).c_str(),
                    rate);
      climbs += line + steps + "\n";
    }
    out.add("files_per_s", answered_rate(d, hold), "1/s");
    out.add("sim_gpu_s_per_file", hold_gpu / hold_jobs, "sim_s");
    // CPU over the hold phase per hold job: the open loop fixes the rate,
    // so efficiency shows here rather than in throughput.
    out.add("cpu_ms_per_file", hold_cpu_per_job * 1e3, "ms");
    out.add("p50_ms", median(hold_latency), "ms");
    out.add("max_rate_per_s", median(climb_rates), "1/s");
    out.add("setup_s", median(setups), "s");
    out.add("peak_rss_mb", d.peak_rss_mb, "MB");
    std::snprintf(line, sizeof(line),
                  "hold %.0f jobs/s: %zu latency samples (%zu beyond p90, %zu beyond "
                  "p99); generator lag p99 %.3f ms\n",
                  kHoldRate, hold_latency.size(), samples_beyond(hold_latency.size(), 90),
                  samples_beyond(hold_latency.size(), 99), percentile_rank(lag_ms, 99));
    out.report += line;
    std::snprintf(line, sizeof(line),
                  "  hold latency ms: p50 %.3f p90 %.3f p99 %.3f p99.9 %.3f max %.3f\n",
                  median(hold_latency), percentile_rank(hold_latency, 90),
                  percentile_rank(hold_latency, 99), percentile_rank(hold_latency, 99.9),
                  percentile_rank(hold_latency, 100));
    out.report += line;
    std::snprintf(line, sizeof(line),
                  "max_rate_per_s is the median over %zu climbs of the ladder "
                  "(p99 limit %.0f ms):\n",
                  climb_rates.size(), kP99LimitMs);
    out.report += line + climbs;
    std::snprintf(line, sizeof(line),
                  "set-up ms over %zu: min %.4f p25 %.4f p50 %.4f p75 %.4f max %.4f\n",
                  setups.size(), percentile_rank(setups, 0) * 1e3,
                  percentile_rank(setups, 25) * 1e3, median(setups) * 1e3,
                  percentile_rank(setups, 75) * 1e3, percentile_rank(setups, 100) * 1e3);
    out.report += line;
    return out;
  }

  // Traced run: the untraced drive above is the overhead baseline (CPU per
  // job: the open loop fixes the wall); now the same hold phase on a traced
  // server, then the replay of the traced jobs.
  SpanLog log;
  auto tracer = std::make_shared<obs::Tracer>(1 << 18);
  ServerRig traced_rig = build_server(&log, tracer);
  const std::uint64_t first_id = 1'000'000;
  const std::vector<Phase> traced_phases = {phases[hold]};
  const Drive td = drive(traced_rig, pool, opts.seed, traced_phases, rule, first_id, 0.0);
  stop(traced_rig);
  check_jobs(td, pool, opts.seed, first_id, 1, out);

  TracedPass traced;
  traced.serving = true;
  traced.files = static_cast<double>(td.jobs.size());
  traced.traced_cost = td.hold_cpu_s / traced.files;
  double t_begin = 1e300, t_end = 0, server_us = 0, transport_us = 0, shed = 0;
  double compiled = 0, exec_fail = 0;
  std::vector<double> lag;
  std::vector<Span> spans = log.take();
  for (std::size_t j = 0; j < td.jobs.size(); ++j) {
    const JobRecord& job = td.jobs[j];
    lag.push_back((job.sent_us - job.due_us) / 1e3);
    shed += job.type == serve::ResponseType::kShed;
    if (!job.answered) continue;
    t_begin = std::min(t_begin, job.due_us);
    t_end = std::max(t_end, job.answered_us);
    server_us += static_cast<double>(job.server_us);
    transport_us += (job.answered_us - job.sent_us) - static_cast<double>(job.server_us);
    compiled += job.compiled;
    exec_fail += job.compiled && !job.executed;
    Span span;
    span.id = (std::uint64_t{1} << 50) + j;
    span.trace = j + 1;  // the fresh server's seq for this job
    span.row = "serve.job";
    span.layer = "serve";
    span.container = true;
    span.start_us = job.due_us;
    span.end_us = job.answered_us;
    spans.push_back(std::move(span));
  }
  std::vector<Span> program = from_program(tracer->collect(), true, kProgramIdOffset);
  spans.insert(spans.end(), std::make_move_iterator(program.begin()),
               std::make_move_iterator(program.end()));
  link_by_trace(spans, "serve.job",
                {"serve.queue_wait", "toolchain.compile", "vm.execute", "judge.evaluate"});
  link_contained(spans, "llm.flush", "llm.model");
  link_same_thread(spans);
  traced.table = layer_table(spans, {t_begin, t_end});
  const double answered = std::max(1.0, traced.files - shed);
  traced.serve_server_us = server_us / answered;
  traced.serve_transport_us = transport_us / answered;
  traced.serve_shed_share = shed / traced.files;
  traced.serve_generator_lag_ms = percentile_rank(lag, 99);
  traced.frontend_runs = traced.files;
  traced.compile_reject_share = 1.0 - compiled / traced.files;
  traced.exec_fail_share = compiled > 0 ? exec_fail / compiled : 0.0;
  const llm::ClientStats stats = traced_rig.client->stats();
  traced.model_prompts = static_cast<double>(stats.requests);
  traced.prompt_tokens = stats.requests > 0 ? static_cast<double>(stats.prompt_tokens) /
                                                  static_cast<double>(stats.requests)
                                            : 0.0;
  traced.batch_occupancy = stats.formed_batches > 0
                               ? static_cast<double>(stats.requests) /
                                     static_cast<double>(stats.formed_batches)
                               : 0.0;
  const judge::JudgeCacheStats cache = traced_rig.judge->cache_stats();
  const double lookups = static_cast<double>(cache.hits + cache.misses + cache.duplicate_misses);
  traced.judge_hit_rate = lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0.0;

  Group replayed;
  replayed.persona = toolchain::nvc_persona();
  for (std::size_t j = 0; j < td.jobs.size(); ++j) {
    replayed.files.push_back(job_file(pool, first_id + j, opts.seed));
  }
  SpanLog replay_log;
  const double r0 = now_us();
  const std::vector<Replay> replays = {
      replay(replayed, {llm::PromptStyle::kAgentDirect}, false, 0, replay_log)};
  const double r1 = now_us();
  std::vector<Span> replay_spans = replay_log.take();
  const LayerTable replay_table = layer_table(replay_spans, {r0, r1});
  add_per_layer(traced, replays, replay_table, hold_cpu_per_job, out);
  out.report += render_table(traced.table, "traced hold phase (serve-open)");
  out.report += dominance_line(traced.table, {"serve", "llm.batch_wait"});
  out.report += render_table(replay_table, "single-thread replay");
  char line[200];
  std::snprintf(line, sizeof(line),
                "tracing overhead: %.4f ms CPU per job traced vs %.4f untraced\n",
                traced.traced_cost * 1e3, hold_cpu_per_job * 1e3);
  out.report += line;
  std::filesystem::create_directories(opts.work_dir);
  write_spans(spans, opts.work_dir + "/serve-open-spans.jsonl");
  out.attempted += td.jobs.size();
  return out;
}

}  // namespace e2ebench
