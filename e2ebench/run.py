#!/usr/bin/env python3
"""Build and run the llm4vv end-to-end benchmark.

    python3 e2ebench/run.py --workload triage-filter --seed 0 --seconds 10 --trace 0

Builds e2ebench/ (which builds the library from ../src) into .bench_build
at the checkout root, then runs one workload. Its last stdout line is the
JSON result; the exit code is non-zero when the build fails, a run fails,
or any file disagrees with the sequential paper-mode oracle.

Repeat mode runs one workload on consecutive seeds and prints, per metric,
the median, quartiles, min/max and the quartile spread as a share of the
median:

    python3 e2ebench/run.py --workload serve-open --seed 1 --seconds 10 --trace 0 --repeat 5

The benchmark's arithmetic has its own tests: `--self-test` builds and runs
them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "e2ebench-work")
WORKLOADS = ["paper-record-all", "triage-filter", "serve-open", "warm-rerun"]
RUN_TIMEOUT_S = 170


def build(targets):
    """Configure once, then build incrementally; all output to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "e2ebench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=300)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j4", "--target"] + targets,
        check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=900)


def run_once(workload, seed, seconds, trace):
    """Run the benchmark binary; returns (exit code, stdout text)."""
    command = [os.path.join(BUILD, "e2ebench"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--work-dir", WORK]
    proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def summarize(results):
    """Median, quartiles, min/max and spread of every metric over runs."""
    names = list(results[0]["metrics"])
    rows = []
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0], values[0], values[0]))
        spread = (q3 - q1) / med if med else float("nan")
        rows.append((name, unit, med, q1, q3, min(values), max(values), spread))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs on seeds seed, seed+1, ...; prints a summary")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    try:
        build(["e2ebench_test"] if args.self_test else ["e2ebench"])
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        print(f"e2ebench: build failed: {error}", file=sys.stderr)
        return 1
    if args.self_test:
        return subprocess.run([os.path.join(BUILD, "e2ebench_test")]).returncode
    if args.workload is None:
        parser.error("--workload is required")

    os.makedirs(WORK, exist_ok=True)
    if args.repeat <= 1:
        try:
            code, out = run_once(args.workload, args.seed, args.seconds, args.trace)
        except subprocess.TimeoutExpired:
            print("e2ebench: run timed out", file=sys.stderr)
            return 1
        sys.stdout.write(out)
        return code

    results = []
    for seed in range(args.seed, args.seed + args.repeat):
        code, out = run_once(args.workload, seed, args.seconds, args.trace)
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            sys.stdout.write(out)
            print(f"e2ebench: seed {seed} failed (exit {code})", file=sys.stderr)
            return 1
        results.append(json.loads(lines[-1]))
        print(f"seed {seed}: {lines[-1]}", file=sys.stderr)
    print(f"{args.workload}, {args.repeat} runs from seed {args.seed}, "
          f"{args.seconds:g} s each, trace {args.trace}")
    print(f"{'metric':32} {'unit':>9} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'min':>12} {'max':>12} {'spread':>7}")
    for name, unit, med, q1, q3, lo, hi, spread in summarize(results):
        print(f"{name:32} {unit:>9} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{lo:12.6g} {hi:12.6g} {spread:7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
