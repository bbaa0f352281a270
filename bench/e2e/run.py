#!/usr/bin/env python3
"""End-to-end benchmark of the LSH Ensemble stack (see README.md).

    python3 bench/e2e/run.py [--workload W|all] [--seed N] [--trace [0|1]]
                             [--runs K] [--calibrate] [--out DIR]

Builds the driver (bench/e2e/CMakeLists.txt, into .bench_build/e2e), then
runs each workload in its own process with LSHE_THREADS pinned. Every
metric is printed as `name value unit (n=samples)` and each run is written
to DIR (default .bench_out) as JSON. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}, where the
metrics are BENCHMARK.json's end-to-end metrics (or, with --trace 1, its
per-layer metrics from the traced run). A failed correctness check fails
the run: the exit code is non-zero and no metrics are reported.

Every run measures BENCHMARK.json's run_seconds: the phase lengths, the
ladder and the bounds hold at that length only. `--seconds S` is accepted
so the benchmark's command line can state it, and refused unless S equals
run_seconds.

--runs K runs every workload K times on seeds N, N+1, ... and flags each
metric whose spread, (Q3 - Q1) / median, exceeds its bound. --calibrate
measures the serve workloads' saturation qps, derives the rate ladder and
pins it, with the input fingerprints, in spec.json (with --runs K,
capacity is the median of K calibration runs).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD_DIR = ROOT / ".bench_build" / "e2e"
SPEC_PATH = HERE / "spec.json"
WORKLOADS = ["serve-native", "serve-foreign", "ingest-mixed", "cluster-dedup"]
# A run measures run_seconds; set-up, audits and checks come on top.
RUN_TIMEOUT_S = 175
# The ladder: ten rungs from 40% to 94% of capacity in x1.1 steps (the
# 5 ms p99 SLO gives out near two thirds of capacity), and the reference
# rate on the same grid five steps below 40% (~25%): light enough that
# queueing does not magnify capacity noise into latency (README.md).
RUNG_BASE, RUNG_STEP, RUNG_COUNT, REFERENCE_STEPS = 0.4, 1.1, 10, 5

sys.path.insert(0, str(HERE))
import compare  # noqa: E402
import trace_summary  # noqa: E402


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configure (once) and build lshe_e2e; returns the binary's path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources under {ROOT}: nothing to build")
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}" \
            not in cache.read_text():
        shutil.rmtree(BUILD_DIR)  # configured from another checkout
    try:
        if not cache.is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                            *generator, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                        "lshe_e2e", "-j", str(os.cpu_count() or 2)],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")
    return BUILD_DIR / "lshe_e2e"


def run_workload(binary, spec, workload, seed, seconds, trace, out_dir,
                 calibrate=False):
    """One workload in its own process; returns its result dict."""
    work = out_dir / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--result", str(work / "result.json"),
           "--work-dir", str(work)]
    if trace:
        cmd.append("--trace")
    if calibrate:
        cmd.append("--calibrate")
    # The corpus is the same at every seed; the traffic is pinned at the
    # default seed and printed at any other (held-out seeds).
    pins = spec["fingerprints"].get(workload)
    if pins and not calibrate:
        cmd += ["--expect-corpus", pins["corpus"]]
        if seed == spec["default_seed"]:
            cmd += ["--expect-queries", pins["queries"]]
    ladder = spec["ladder"].get(workload)
    if ladder and not calibrate:
        cmd += ["--reference-rate", repr(ladder["reference_qps"]),
                "--rungs", ",".join(repr(r) for r in ladder["rungs"]),
                "--slo-p99-ms", repr(spec["slo"]["p99_ms"]),
                "--slo-error-rate", repr(spec["slo"]["error_rate"])]
    env = dict(os.environ, LSHE_THREADS=str(spec["threads"]))
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    if proc.returncode == 3:
        fail(f"{workload}: generated inputs differ from the fingerprints "
             f"pinned in {SPEC_PATH.name} (seed {seed})")
    if proc.returncode != 0:
        fail(f"{workload}: lshe_e2e exited with {proc.returncode}")
    result = load_json(work / "result.json")
    result.update(workload=workload, seed=seed, seconds=seconds,
                  trace=bool(trace))
    if trace:
        spans = trace_summary.load(work / "trace.json")
        result["layers"] = trace_summary.layer_metrics(spans)
        result["coverage_problems"] = trace_summary.check_coverage(spans)
        shutil.copy(work / "trace.json",
                    out_dir / f"{workload}-seed{seed}-spans.json")
        if result["coverage_problems"]:
            result["correct"] = False
            for p in result["coverage_problems"]:
                print(f"{workload}: coverage check failed: {p}",
                      file=sys.stderr)
    shutil.rmtree(work)
    return result


def report_lines(result, bench):
    """`name value unit (n=samples)` for every metric of one run."""
    w = result["workload"]
    if result["trace"]:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        return [f"{w} {name} {value!r} {units[name]} (traced)"
                for name, value in result["layers"].items()]
    return [f"{w} {name} {m['value']!r} {m['unit']} (n={m['n']})"
            for name, m in result["metrics"].items()]


def benchmark_metrics(result, bench):
    """The metrics BENCHMARK.json names, from one run."""
    if result["trace"]:
        source = result["layers"]
        wanted = bench["per_layer"]
    else:
        source = {k: v["value"] for k, v in result["metrics"].items()}
        wanted = bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        fail(f"{result['workload']} did not report {', '.join(missing)}")
    return {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
            for m in wanted}


def spread_report(results):
    """Print each (workload, metric) spread, (Q3 - Q1) / median (absolute
    for error_rate), flagging those over their bound."""
    specs = compare.metric_specs()
    print(f"{'workload':14s} {'metric':16s} {'median':>14s} {'spread':>8s} "
          f"{'bound':>7s}")
    for w in dict.fromkeys(r["workload"] for r in results):
        runs = [r for r in results if r["workload"] == w]
        for name in runs[0]["metrics"]:
            if name not in specs or any(name not in r["metrics"]
                                        for r in runs):
                continue
            _, bound, absolute = specs[name]
            q1, median, q3 = compare.quartiles(
                [r["metrics"][name]["value"] for r in runs])
            s = (q3 - q1) / (1.0 if absolute else median or 1.0)
            flag = "" if s <= bound else "  SPREAD > BOUND: lengthen the phase"
            print(f"{w:14s} {name:16s} {median:14.6g} {s:8.4f} "
                  f"{bound:7.3f}{flag}")


def calibrate(binary, spec, args, out_dir):
    """Pin the default seed's fingerprints and the serve rate ladders."""
    seed = spec["default_seed"]
    for w in args.workloads:
        results = [run_workload(binary, spec, w, seed, args.seconds, False,
                                out_dir, calibrate=True)
                   for _ in range(args.runs)]
        notes = results[0]["notes"]
        spec["fingerprints"][w] = {"corpus": notes["corpus_fingerprint"],
                                   "queries": notes["queries_fingerprint"]}
        if "qps" not in results[0]["metrics"]:
            continue
        capacity = statistics.median(r["metrics"]["qps"]["value"]
                                     for r in results)
        rungs = [round(capacity * RUNG_BASE * RUNG_STEP ** k)
                 for k in range(RUNG_COUNT)]
        reference = round(capacity * RUNG_BASE / RUNG_STEP ** REFERENCE_STEPS)
        spec["ladder"][w] = {"capacity_qps": round(capacity),
                             "reference_qps": reference, "rungs": rungs}
        print(f"{w} capacity {capacity:.0f} 1/s -> reference {reference} "
              f"1/s, rungs {rungs}")
    with open(SPEC_PATH, "w") as f:
        json.dump(spec, f, indent=2)
        f.write("\n")
    print(f"pinned in {SPEC_PATH}")


def main():
    bench = load_json(ROOT / "BENCHMARK.json")
    spec = load_json(SPEC_PATH)
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="must equal BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--calibrate", action="store_true")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out")
    args = parser.parse_args()
    args.workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if args.seconds != bench["run_seconds"]:
        fail(f"--seconds {args.seconds:g}: runs measure BENCHMARK.json's "
             f"run_seconds ({bench['run_seconds']}) only")
    if args.runs < 1:
        fail("--runs must be positive")

    binary = build()
    args.out.mkdir(parents=True, exist_ok=True)
    if args.calibrate:
        calibrate(binary, spec, args, args.out)
        return 0

    results = []
    for k in range(args.runs):
        for w in args.workloads:
            result = run_workload(binary, spec, w, args.seed + k,
                                  args.seconds, args.trace, args.out)
            if not result["correct"]:
                fail(f"{w}: correctness check failed; no metrics reported")
            results.append(result)
            if result["notes"].get("valid") == "false":
                print(f"{w}: INVALID run (generator lateness p99 over 1 ms)",
                      file=sys.stderr)
            name = f"{w}-seed{args.seed + k}{'-trace' if args.trace else ''}"
            with open(args.out / f"{name}.json", "w") as f:
                json.dump(result, f, indent=1)
    for result in results:
        for line in report_lines(result, bench):
            print(line)

    if args.runs > 1 and not args.trace:
        spread_report(results)

    if len(results) == 1:
        metrics = benchmark_metrics(results[0], bench)
    else:
        metrics = {}
        for w in args.workloads:
            runs = [benchmark_metrics(r, bench) for r in results
                    if r["workload"] == w]
            for name, m in runs[0].items():
                metrics[f"{w}.{name}"] = {
                    "value": statistics.median(r[name]["value"] for r in runs),
                    "unit": m["unit"]}
    print(json.dumps({
        "correct": True,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
