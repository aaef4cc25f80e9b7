#!/usr/bin/env bash
# Runs the perf_* Google Benchmark binaries and records their JSON output
# next to this script, so every PR leaves a perf trajectory:
#   bench/BENCH_tokenizer.json  - trie vs naive encode, count, roundtrip
#   bench/BENCH_pipeline.json   - mode/worker sweeps + judge-cache counters
#   bench/BENCH_batcher.json    - adaptive-batcher wait-window sweep
#                                 (cross-worker flush occupancy vs T) and
#                                 a lone submitter's wall time per request
#   bench/BENCH_cache.json      - persistent warm-start collapse (perf_cache
#                                 runs TWICE against one cache file; the
#                                 recorded JSON is the second, warm run)
#   bench/BENCH_vm.json         - VM dispatch-core sweep + sharded-vs-mutex
#                                 execute-queue scaling (see docs/BENCHMARKS.md)
#   bench/BENCH_faults.json     - resilience sweep: goodput/success rate at
#                                 5%/20% seeded transient faults with retries
#                                 off/on, plus p99 added latency per request
#   bench/BENCH_obs.json        - observability overhead: detached vs
#                                 registry vs registry+tracer pipeline wall
#                                 time, plus counter-inc / span-record
#                                 microbenches (see docs/OBSERVABILITY.md)
#   bench/BENCH_serve.json      - serving layer: closed-loop p50/p99 latency
#                                 and jobs/s over loopback at 1/2/4 clients,
#                                 plus the 3-tenant fairness sweep (see
#                                 docs/SERVING.md)
#   bench/BENCH_frontend.json   - compile stage: the lexer alone (BM_Lex),
#                                 whole compiles per flavor, directive
#                                 validation
#   bench/BENCH_llm.json        - simulated judge call with a perception
#                                 memo miss and hit, prompt-size scaling,
#                                 client concurrency
#
# Usage: bench/run_benchmarks.sh [build-dir]
#   BENCH_MIN_TIME=0.01s bench/run_benchmarks.sh   # quick smoke run
# Needs jq: every summary and gate reads the recorded JSON with it, so the
# script fails at once when jq is missing.
set -euo pipefail

script_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo_root="$(dirname "${script_dir}")"
build_dir="${1:-${repo_root}/build}"
# benchmark <1.8 rejects the "0.01s" suffix form; strip it for portability.
min_time="${BENCH_MIN_TIME:-}"
min_time="${min_time%s}"

if ! command -v jq >/dev/null 2>&1; then
  echo "error: jq not found; run_benchmarks.sh needs it for its gates." >&2
  exit 1
fi

if [[ ! -d "${build_dir}" ]]; then
  echo "error: build directory '${build_dir}' not found." >&2
  echo "Run: cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

bench_args=(--benchmark_repetitions=1)
if [[ -n "${min_time}" ]]; then
  bench_args+=("--benchmark_min_time=${min_time}")
fi

run_bench() {
  local name="$1" out="$2"
  local binary="${build_dir}/${name}"
  if [[ ! -x "${binary}" ]]; then
    echo "error: ${binary} missing (benchmarks disabled at configure time?)" >&2
    exit 1
  fi
  echo "== ${name} -> ${out}"
  "${binary}" "${bench_args[@]}" \
    --benchmark_format=console \
    --benchmark_out="${out}" \
    --benchmark_out_format=json
}

run_bench perf_tokenizer "${script_dir}/BENCH_tokenizer.json"
run_bench perf_pipeline "${script_dir}/BENCH_pipeline.json"
run_bench perf_batcher "${script_dir}/BENCH_batcher.json"
run_bench perf_vm "${script_dir}/BENCH_vm.json"
run_bench perf_faults "${script_dir}/BENCH_faults.json"
run_bench perf_obs "${script_dir}/BENCH_obs.json"
run_bench perf_serve "${script_dir}/BENCH_serve.json"
run_bench perf_frontend "${script_dir}/BENCH_frontend.json"
run_bench perf_llm "${script_dir}/BENCH_llm.json"

# Warm-start persistence check: run perf_cache twice against ONE cache
# file. The first invocation starts cold (the file is deleted here) and
# saves its verdicts; the second must report a non-zero cross-run persisted
# hit rate — if it doesn't, persistence silently stopped working and the
# script fails. BENCH_cache.json keeps the second (warm) run.
warm_cache_file="${script_dir}/.warm_start_cache.jsonl"
rm -f "${warm_cache_file}"
LLM4VV_BENCH_CACHE_FILE="${warm_cache_file}" \
  run_bench perf_cache "${script_dir}/BENCH_cache.json"
LLM4VV_BENCH_CACHE_FILE="${warm_cache_file}" \
  run_bench perf_cache "${script_dir}/BENCH_cache.json"
rm -f "${warm_cache_file}"

# Headline numbers: trie-vs-naive encode speedup, the judge-cache rates,
# and the batch-size sweep (sim GPU seconds per run vs judge_batch).
echo
jq -r '
  [.benchmarks[] | select(.name == "BM_TokenizerEncode")][0]
      .bytes_per_second as $trie |
  [.benchmarks[] | select(.name == "BM_TokenizerEncodeNaive")][0]
      .bytes_per_second as $naive |
  "tokenizer encode: trie \($trie / 1e6 | floor) MB/s, " +
  "naive \($naive / 1e6 | floor) MB/s, " +
  "speedup \($trie / $naive * 100 | floor / 100)x"
' "${script_dir}/BENCH_tokenizer.json"
jq -r '
  .benchmarks[]
  | select(.name | startswith("BM_PipelineJudgeCache"))
  | "\(.name): \(.items_per_second / 1e3 | floor / 1000) kfiles/s, " +
    "judge_cache_hit_rate \(.judge_cache_hit_rate * 100 | floor)%"
' "${script_dir}/BENCH_pipeline.json"
jq -r '
  .benchmarks[]
  | select(.name | startswith("BM_PipelineJudgeBatch"))
  | "\(.name): sim_gpu \(.sim_gpu_s_per_run * 100 | floor / 100) s/run, " +
    "occupancy \(.judge_batch_occupancy * 100 | floor / 100), " +
    "wall \(.real_time * 100 | floor / 100) ms"
' "${script_dir}/BENCH_pipeline.json"

# Guard against batched-path bitrot: the sweep must actually have filled
# batches (occupancy > 1 with nonzero submissions for judge_batch >= 4)
# and the amortized passes must price below the sequential baseline.
jq -e '
  ([.benchmarks[] | select(.name == "BM_PipelineJudgeBatch/judge_batch:1")]
      [0].sim_gpu_s_per_run) as $seq |
  [.benchmarks[]
   | select(.name | startswith("BM_PipelineJudgeBatch"))
   | select(.name != "BM_PipelineJudgeBatch/judge_batch:1")]
  | length > 0 and
    all(.[]; .judge_batches_per_run > 0 and .judge_batch_occupancy > 1
             and .sim_gpu_s_per_run < $seq)
' "${script_dir}/BENCH_pipeline.json" > /dev/null || {
  echo "error: batched judge path not exercised (batch stats zero or no" \
       "GPU saving) - see BENCH_pipeline.json" >&2
  exit 1
}
echo "batched judge path OK (occupancy > 1, sim GPU below sequential)"

# Paper-mode gate: with faults, caches and batching all off, the record-all
# pass over the 120-file corpus prices at exactly 1606.13 simulated GPU
# seconds, seed for seed. Any drift means a layer that should be invisible
# when off (resilience, batching, caching) changed the computation.
jq -e '
  ([.benchmarks[]
    | select(.name == "BM_PipelineMode/filter:0/invalid_tenths:0")][0]
    .sim_gpu_s_per_run) as $gpu |
  ($gpu - 1606.13 | if . < 0 then -. else . end) < 0.005
' "${script_dir}/BENCH_pipeline.json" > /dev/null || {
  echo "error: paper mode drifted (BM_PipelineMode/filter:0/invalid_tenths:0" \
       "is not 1606.13 simulated GPU s) - see BENCH_pipeline.json" >&2
  exit 1
}
echo "paper mode OK (record-all prices at 1606.13 simulated GPU s)"

jq -r '
  .benchmarks[]
  | select(.name | startswith("BM_PipelineAdaptiveBatch"))
  | "\(.name): formed_occupancy \(.formed_occupancy * 100 | floor / 100), " +
    "sim_gpu \(.sim_gpu_s_per_run * 100 | floor / 100) s/run, " +
    "wall \(.real_time * 100 | floor / 100) ms"
' "${script_dir}/BENCH_batcher.json"

# Cross-worker batch-formation guard: with several judge workers and
# per-item arrivals, the T=200 us wait window must form strictly fuller
# forward passes than the T=0 formed baseline at the same load — and the
# fuller passes must not cost more simulated GPU time. If this fails, the
# adaptive batcher silently stopped coalescing across workers.
jq -e '
  ([.benchmarks[]
    | select(.name == "BM_PipelineAdaptiveBatch/window_us:0")][0]) as $t0 |
  ([.benchmarks[]
    | select(.name == "BM_PipelineAdaptiveBatch/window_us:200")][0]) as $t |
  $t.formed_batches_per_run > 0
    and $t.formed_occupancy > $t0.formed_occupancy
    and $t.sim_gpu_s_per_run <= $t0.sim_gpu_s_per_run * 1.001
' "${script_dir}/BENCH_batcher.json" > /dev/null || {
  echo "error: adaptive batcher not forming cross-worker batches at" \
       "T=200us (occupancy <= static baseline, or sim GPU regressed)" \
       "- see BENCH_batcher.json" >&2
  exit 1
}
echo "adaptive batcher OK (T=200us occupancy beats static baseline," \
     "sim GPU no worse)"

# Idle-flush guard: a thread alone in a submit -> get() loop is the only
# one who could add to its batch, so once it blocks the batch must flush
# -- the mean wall time per request stays below half the T=1000 us
# window. If this fails, every lone caller is waiting out the window.
jq -r '
  .benchmarks[]
  | select(.name | startswith("BM_LoneSubmitter"))
  | "\(.name): \(.wall_us_per_request * 10 | floor / 10) us per request, " +
    "idle flush share \(.flush_idle_share * 100 | floor)%"
' "${script_dir}/BENCH_batcher.json"
jq -e '
  ([.benchmarks[]
    | select(.name == "BM_LoneSubmitter/window_us:1000/real_time")][0])
    as $lone |
  $lone.wall_us_per_request > 0
    and $lone.wall_us_per_request < $lone.window_us / 2
' "${script_dir}/BENCH_batcher.json" > /dev/null || {
  echo "error: a lone submitter waited out the batcher window (mean wall" \
       "time per request >= T/2 at T=1000us) - see BENCH_batcher.json" >&2
  exit 1
}
echo "idle flush OK (lone submitter answered well inside the window)"

jq -r '
  [.benchmarks[] | select(.name == "BM_PipelineWarmStart")][0]
  | "warm start: persisted hit rate " +
    "\(.persisted_hit_rate * 100 | floor)%, " +
    "cross-run \(.cross_run_persisted_hit_rate * 100 | floor)%, " +
    "sim GPU cold \(.sim_gpu_cold_s * 100 | floor / 100) s -> warm " +
    "\(.sim_gpu_warm_s_per_run * 100 | floor / 100) s/run"
' "${script_dir}/BENCH_cache.json"

# The second perf_cache invocation ran against the file the first one
# saved: a zero cross-run persisted hit rate means cross-process
# persistence is broken. Also enforce the warm-start acceptance bar
# (persisted hit rate >= 95%, warm sim GPU <= 10% of cold).
jq -e '
  [.benchmarks[] | select(.name == "BM_PipelineWarmStart")][0]
  | .cross_run_persisted_hit_rate > 0
    and .persisted_hit_rate >= 0.95
    and .warm_gpu_over_cold <= 0.10
' "${script_dir}/BENCH_cache.json" > /dev/null || {
  echo "error: warm start not persistent (cross-run rate 0, hit rate" \
       "< 95%, or warm sim GPU > 10% of cold) - see BENCH_cache.json" >&2
  exit 1
}
echo "persistent warm start OK (cross-run hits > 0, warm GPU <= 10% cold)"

jq -r '
  .benchmarks[]
  | select(.name | startswith("BM_ExecuteDispatch"))
  | "\(.name) (\(.label)): \(.["steps/s"] / 1e6 | floor) Msteps/s, " +
    "fused_sites \(.fused_sites | floor)"
' "${script_dir}/BENCH_vm.json"

# Dispatch-core gate: the pre-decoded table core the execute stage runs
# (dispatch:1/fused:0) must clear 1.5x the reference switch's throughput.
# Smoke runs (BENCH_MIN_TIME set) measure too few iterations for tight
# bounds; relax to 1.3x there.
dispatch_bar="1.5"
if [[ -n "${min_time}" ]]; then dispatch_bar="1.3"; fi
jq -e --argjson bar "${dispatch_bar}" '
  ([.benchmarks[]
    | select(.name == "BM_ExecuteDispatch/dispatch:0/fused:0")][0]
      ["steps/s"]) as $ref |
  ([.benchmarks[]
    | select(.name == "BM_ExecuteDispatch/dispatch:1/fused:0")][0]
      ["steps/s"]) as $table |
  $table >= $ref * $bar
' "${script_dir}/BENCH_vm.json" > /dev/null || {
  echo "error: VM dispatch regressed (table core < ${dispatch_bar}x" \
       "reference) - see BENCH_vm.json" >&2
  exit 1
}
echo "vm dispatch OK (table core >= ${dispatch_bar}x reference)"

# Superinstruction-fusion gate, tiered like the queue-sharding gate
# below: on a host with real parallelism headroom (>= 4 CPUs) and a full
# run, the fused table core must not be slower than the unfused one —
# fusion exists to win throughput, and the bench loop fuses 12 sites
# (fused_sites must be nonzero or the gate is measuring a no-op). Smoke
# runs allow 10% timer noise; on smaller/noisier hosts only bound the
# overhead (fused >= table / 1.5) so a pathological fusion regression
# still fails while scheduler jitter does not.
cpus="$(nproc 2>/dev/null || echo 1)"
if [[ "${cpus}" -ge 4 && -z "${min_time}" ]]; then
  fusion_filter='$fused >= $table'
  fusion_desc="fused table core >= unfused (${cpus} CPUs)"
elif [[ "${cpus}" -ge 4 ]]; then
  fusion_filter='$fused >= $table / 1.10'
  fusion_desc="fused within noise of unfused (smoke run, ${cpus} CPUs)"
else
  fusion_filter='$fused >= $table / 1.5'
  fusion_desc="fusion overhead bounded on ${cpus}-CPU host (timer too noisy for a strict win)"
fi
jq -e '
  ([.benchmarks[]
    | select(.name == "BM_ExecuteDispatch/dispatch:1/fused:0")][0]
      ["steps/s"]) as $table |
  ([.benchmarks[]
    | select(.name == "BM_ExecuteDispatch/dispatch:1/fused:1")][0]) as $f |
  $f["steps/s"] as $fused |
  $f.fused_sites > 0 and '"${fusion_filter}"'
' "${script_dir}/BENCH_vm.json" > /dev/null || {
  echo "error: superinstruction fusion gate failed (${fusion_desc}," \
       "or fused run engaged zero fusion sites) - see BENCH_vm.json" >&2
  exit 1
}
echo "vm fusion OK (${fusion_desc})"

jq -r '
  .benchmarks[]
  | select(.name | startswith("BM_PipelineExecuteScale"))
  | "\(.name): \(.items_per_second / 1e6 * 1000 | floor / 1000)" +
    " Mitems/s, shards \(.queue_shards)," +
    " steals/run \(.queue_steals_per_run | floor)"
' "${script_dir}/BENCH_vm.json"

# Queue-sharding gate: with real parallelism available (>= 4 CPUs), the
# sharded queue must move items through the 4-worker hand-off faster
# than the single-mutex queue. On smaller hosts there is nothing to
# parallelize — striping is pure scan overhead — so only sanity-check
# that the overhead stays bounded (<= 1.5x the mutex wall time).
cpus="$(nproc 2>/dev/null || echo 1)"
if [[ "${cpus}" -ge 4 && -z "${min_time}" ]]; then
  shard_filter='$s.real_time < $m.real_time'
  shard_desc="sharded beats mutex at 4 workers (${cpus} CPUs)"
elif [[ "${cpus}" -ge 4 ]]; then
  # Smoke runs measure a single short repetition; allow 10% noise.
  shard_filter='$s.real_time < $m.real_time * 1.10'
  shard_desc="sharded within noise of mutex at 4 workers (smoke run, ${cpus} CPUs)"
else
  shard_filter='$s.real_time <= $m.real_time * 1.5'
  shard_desc="sharded overhead bounded on ${cpus}-CPU host (no parallelism to win)"
fi
jq -e '
  ([.benchmarks[]
    | select(.name ==
        "BM_PipelineExecuteScale/workers:4/shards:1/real_time")][0]) as $m |
  ([.benchmarks[]
    | select(.name ==
        "BM_PipelineExecuteScale/workers:4/shards:0/real_time")][0]) as $s |
  $s.queue_steals_per_run >= 0 and '"${shard_filter}"'
' "${script_dir}/BENCH_vm.json" > /dev/null || {
  echo "error: sharded execute-queue gate failed (${shard_desc}) - see" \
       "BENCH_vm.json" >&2
  exit 1
}
echo "execute-queue sharding OK (${shard_desc})"

jq -r '
  .benchmarks[]
  | select(.name | startswith("BM_PipelineFaults"))
  | "\(.name): success \(.success_rate * 1000 | floor / 10)%, " +
    "goodput \(.goodput_files_per_s | floor) files/s, " +
    "errors/run \(.judge_errors_per_run), " +
    "retries/run \(.judge_retries_per_run)"
' "${script_dir}/BENCH_faults.json"
jq -r '
  .benchmarks[]
  | select(.name | startswith("BM_ClientAddedLatency"))
  | "\(.name): p99 added latency " +
    "\(.p99_added_latency_us | floor) us " +
    "(\(.served_prompts_per_run | floor) prompts served)"
' "${script_dir}/BENCH_faults.json"

# Resilience gates: at 20% seeded transient faults the retry layer must
# recover >= 95% of the files (the S3/S6 acceptance bar), and at both
# rates retries-on must strictly beat retries-off on success rate — if
# either fails, the retry/split machinery silently stopped recovering
# faulted passes. The p99 added latency must be a real, finite price
# (> 0: faults genuinely injected; the bound is generous because backoff
# waits are real wall time on a loaded CI host).
jq -e '
  ([.benchmarks[]
    | select(.name == "BM_PipelineFaults/fault_pct:20/retries:1")][0])
    as $r20 |
  ([.benchmarks[]
    | select(.name == "BM_PipelineFaults/fault_pct:20/retries:0")][0])
    as $n20 |
  ([.benchmarks[]
    | select(.name == "BM_PipelineFaults/fault_pct:5/retries:1")][0])
    as $r5 |
  ([.benchmarks[]
    | select(.name == "BM_PipelineFaults/fault_pct:5/retries:0")][0])
    as $n5 |
  $r20.success_rate >= 0.95
    and $r20.success_rate > $n20.success_rate
    and $r5.success_rate > $n5.success_rate
    and $r20.judge_retries_per_run > 0
' "${script_dir}/BENCH_faults.json" > /dev/null || {
  echo "error: resilience gate failed (20% faults with retries must" \
       "recover >= 95% of files and beat retries-off) - see" \
       "BENCH_faults.json" >&2
  exit 1
}
jq -e '
  [.benchmarks[] | select(.name | startswith("BM_ClientAddedLatency"))]
  | length > 0 and all(.[]; .p99_added_latency_us > 0)
' "${script_dir}/BENCH_faults.json" > /dev/null || {
  echo "error: added-latency probe saw no faults (p99 added latency 0)" \
       "- see BENCH_faults.json" >&2
  exit 1
}
echo "resilience OK (20% faults + retries >= 95% success, beats" \
     "retries-off; p99 added latency nonzero)"

jq -r '
  .benchmarks[]
  | select(.name | startswith("BM_PipelineTraced"))
  | "\(.name): wall \(.real_time * 100 | floor / 100) ms" +
    (if .spans_per_run then
       ", \(.spans_per_run | floor) spans/run" else "" end) +
    (if .metric_samples > 0 then
       ", \(.metric_samples) metric samples" else "" end)
' "${script_dir}/BENCH_obs.json"
jq -r '
  ([.benchmarks[] | select(.name == "BM_CounterInc")][0].real_time)
    as $inc |
  ([.benchmarks[] | select(.name == "BM_CounterIncDetached")][0]
      .real_time) as $off |
  ([.benchmarks[] | select(.name == "BM_SpanRecord")][0].real_time)
    as $span |
  "obs primitives: counter inc \($inc * 100 | floor / 100) ns " +
  "(detached \($off * 100 | floor / 100) ns), " +
  "span record \($span * 100 | floor / 100) ns"
' "${script_dir}/BENCH_obs.json"

# Observability overhead gate. The <2% tracing-off budget rests on the
# disabled path being a single null-handle branch per site (~0.7 ns x
# a few sites per file is micro-seconds on milli-second runs); the
# noise-robust way to CI-gate that on a shared box is the microbench
# ratio -- a detached counter inc must stay well under half an attached
# one (it is ~0.11x today; if the null early-out ever disappears the
# two converge and this fires). Wall-clock comparisons between the
# separately-timed pipeline modes see scheduler noise far above 2%
# (load spikes swing a 13 ms run by 30%+ in either direction), so the
# pipeline-level bound is a generous structural backstop, not the
# budget. Noise-free invariants carry the rest: attaching obs must not
# perturb the computation (cold sim-GPU seconds equal across modes to
# within float summation-order jitter), and the traced run must
# actually produce spans + a metrics snapshot.
jq -e '
  ([.benchmarks[]
    | select(.name == "BM_PipelineTraced/obs:0")][0]) as $off |
  ([.benchmarks[]
    | select(.name == "BM_PipelineTraced/obs:1")][0]) as $reg |
  ([.benchmarks[]
    | select(.name == "BM_PipelineTraced/obs:2")][0]) as $traced |
  ([.benchmarks[]
    | select(.name == "BM_CounterInc")][0].real_time) as $inc |
  ([.benchmarks[]
    | select(.name == "BM_CounterIncDetached")][0].real_time) as $inert |
  def near($a; $b): ($a - $b | if . < 0 then -. else . end) < 0.001;
  $inert <= $inc * 0.5
    and $reg.real_time <= $off.real_time * 1.5
    and near($reg.sim_gpu_s_cold; $off.sim_gpu_s_cold)
    and near($traced.sim_gpu_s_cold; $off.sim_gpu_s_cold)
    and $traced.spans_per_run > 0
    and $traced.metric_samples > 0
' "${script_dir}/BENCH_obs.json" > /dev/null || {
  echo "error: observability gate failed (detached counter inc not well" \
       "under an attached one, registry-attached wall > 1.5x detached," \
       "obs attachment changed sim-GPU accounting, or traced run" \
       "produced no spans/metrics) - see BENCH_obs.json" >&2
  exit 1
}
echo "observability OK (disabled path stays a branch, sim-GPU identical" \
     "across modes, traced run produced spans + metrics)"

jq -r '
  .benchmarks[]
  | select(.name | startswith("BM_ServeClosedLoop"))
  | "\(.name): p50 \(.p50_latency_us | floor) us, " +
    "p99 \(.p99_latency_us | floor) us, " +
    "\(.jobs_per_s | floor) jobs/s"
' "${script_dir}/BENCH_serve.json"

# Serving gates. Closed loop: every client's every job must come back as
# a verdict (completed_per_run == clients x 6) with nonzero throughput
# and a measured tail. Fairness: with three tenants saturating one
# worker, the weighted fair scheduler must keep the spread loose-bounded
# (max/min completions < 2.5) and starve nobody -- if a tenant ever
# reads zero completions the WRR cursor or the per-tenant queues broke.
jq -e '
  ([.benchmarks[]
    | select(.name == "BM_ServeClosedLoop/clients:1/real_time")][0])
    as $c1 |
  ([.benchmarks[]
    | select(.name == "BM_ServeClosedLoop/clients:2/real_time")][0])
    as $c2 |
  ([.benchmarks[]
    | select(.name == "BM_ServeClosedLoop/clients:4/real_time")][0])
    as $c4 |
  $c1.completed_per_run == 6 and $c2.completed_per_run == 12
    and $c4.completed_per_run == 24
    and ($c1.jobs_per_s > 0 and $c2.jobs_per_s > 0 and $c4.jobs_per_s > 0)
    and ($c1.p99_latency_us > 0 and $c4.p99_latency_us > 0)
' "${script_dir}/BENCH_serve.json" > /dev/null || {
  echo "error: serving closed-loop gate failed (lost verdicts, zero" \
       "throughput, or empty latency tail) - see BENCH_serve.json" >&2
  exit 1
}
jq -e '
  ([.benchmarks[]
    | select(.name == "BM_ServeFairness/tenants:3/real_time")][0]) as $f |
  $f.tenant_min_completed > 0
    and $f.fairness_ratio > 0 and $f.fairness_ratio < 2.5
' "${script_dir}/BENCH_serve.json" > /dev/null || {
  echo "error: serving fairness gate failed (a tenant starved or the" \
       "completion spread exceeded 2.5x) - see BENCH_serve.json" >&2
  exit 1
}
echo "serving OK (closed loop loses nothing, 3-tenant spread < 2.5x," \
     "nobody starved)"

jq -r '
  .benchmarks[]
  | select(.name == "BM_Lex" or .name == "BM_CompileACC"
           or .name == "BM_CompileOMP")
  | "\(.name): \(1e7 / .items_per_second | floor / 10) us per file, " +
    "\(.items_per_second | floor) files/s"
' "${script_dir}/BENCH_frontend.json"
jq -r '
  .benchmarks[]
  | select(.name | startswith("BM_SimulatedJudgeCall"))
  | "\(.name): \(.real_time * 10 | floor / 10) \(.time_unit) per call, " +
    "sim latency \(.sim_latency_s * 100 | floor / 100) s"
' "${script_dir}/BENCH_llm.json"

# Perception-memo gate: a judge call on code the model has already read
# (the LLMJ 2 prompt of a file LLMJ 1 judged) must cost less host time
# than one on unread code, at the same simulated price (the counters are
# per-iteration means, equal up to summation rounding) -- if not, the
# memo stopped serving hits or a hit stopped being byte-identical.
jq -e '
  ([.benchmarks[] | select(.name == "BM_SimulatedJudgeCallMiss")][0])
    as $miss |
  ([.benchmarks[] | select(.name == "BM_SimulatedJudgeCallHit")][0])
    as $hit |
  def near($a; $b): ($a - $b | if . < 0 then -. else . end) < 1e-6;
  $hit.real_time < $miss.real_time
    and near($hit.sim_latency_s; $miss.sim_latency_s)
' "${script_dir}/BENCH_llm.json" > /dev/null || {
  echo "error: perception memo gate failed (hit not cheaper than miss," \
       "or their simulated latencies differ) - see BENCH_llm.json" >&2
  exit 1
}
echo "perception memo OK (hit cheaper than miss, same simulated price)"
