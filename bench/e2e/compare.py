#!/usr/bin/env python3
"""Compare two sets of benchmark runs: parent commit vs change.

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR
    python3 bench/e2e/compare.py --self-test

Each directory holds the per-run JSON files run.py writes (run both sides
on the same seeds, alternating which side runs first). Runs are paired by
(workload, seed); a pair whose runs measured different lengths is refused
(exit 2). For every workload and end-to-end metric it prints each side's
median and quartiles, the share of pairs the change wins (ties count for
neither) and a verdict, following the choosing-metrics rules. The spread
is the parent's Q3 - Q1, as a share of its median:

  improved    the change wins at least 9 of 10 pairs (10 pairs at least)
              and the medians differ by more than the parent's Q3 - Q1;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound, and either the spread is within the
              bound or every change run reads worse than every parent run;
  unresolved  the spread is wider than the bound, the change did not
              regress, and not every change run reads better than every
              parent run;
  no worse    otherwise.

Bounds are relative shares of the parent's median (BENCHMARK.json, and
spec.json for the metrics only some workloads report); error_rate's is
absolute. Exit code 1 when any metric regressed.
"""

import argparse
import io
import json
import random
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def metric_specs():
    """name -> (better, bound, absolute) for every end-to-end metric."""
    with open(HERE.parent.parent / "BENCHMARK.json") as f:
        bench = json.load(f)
    with open(HERE / "spec.json") as f:
        spec = json.load(f)
    out = {m["name"]: (m["better"], m["bound"], False)
           for m in bench["end_to_end"]}
    for m in spec["workload_metrics"]:
        out[m["name"]] = (m["better"], m["bound"], m.get("absolute", False))
    return out


def load_runs(directory):
    """(workload, seed) -> (seconds, {metric: value}) for every untraced
    run file."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as f:
            run = json.load(f)
        if "workload" not in run or run.get("trace"):
            continue
        runs[(run["workload"], run["seed"])] = (run["seconds"], {
            name: m["value"] for name, m in run["metrics"].items()})
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound, absolute):
    """(verdict, win share) for paired runs of one metric."""
    sign = 1.0 if better == "higher" else -1.0
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    wins = sum(g > 0 for g in gains) / len(gains)
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    scale = 1.0 if absolute else abs(pm) or 1.0
    gain = sign * (cm - pm)
    if len(gains) >= MIN_PAIRS and wins >= WIN_SHARE and gain > p3 - p1:
        return "improved", wins
    worse = -gain / scale > bound
    if (p3 - p1) / scale <= bound:
        return ("regressed" if worse else "no worse"), wins
    if min(sign * c for c in change) > max(sign * p for p in parent):
        return "no worse", wins
    if worse and max(sign * c for c in change) < min(sign * p for p in parent):
        return "regressed", wins
    return "unresolved", wins


def compare(parent_dir, change_dir, out=sys.stdout):
    """Print the comparison; returns the number of regressed metrics.
    Raises ValueError when a pair's runs measured different lengths."""
    specs = metric_specs()
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    keys = sorted(set(parent) & set(change))
    for key in keys:
        if parent[key][0] != change[key][0]:
            raise ValueError(f"{key[0]} seed {key[1]} measured "
                             f"{parent[key][0]} s on the parent and "
                             f"{change[key][0]} s on the change")
    parent = {k: metrics for k, (_, metrics) in parent.items()}
    change = {k: metrics for k, (_, metrics) in change.items()}
    if not keys:
        print("no (workload, seed) pair present on both sides", file=out)
        return 0
    regressed = 0
    print(f"{'workload':14s} {'metric':15s} {'parent median [Q1, Q3]':>34s} "
          f"{'change median [Q1, Q3]':>34s} {'wins':>5s}  verdict", file=out)
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        names = [n for n in parent[(workload, seeds[0])] if n in specs]
        for name in names:
            pairs = [(parent[(workload, s)][name], change[(workload, s)][name])
                     for s in seeds if name in change[(workload, s)]]
            p = [a for a, _ in pairs]
            c = [b for _, b in pairs]
            result, wins = verdict(p, c, *specs[name])
            regressed += result == "regressed"
            pq, cq = quartiles(p), quartiles(c)
            print(f"{workload:14s} {name:15s} "
                  f"{pq[1]:12.6g} [{pq[0]:.6g}, {pq[2]:.6g}]".ljust(65) +
                  f"{cq[1]:12.6g} [{cq[0]:.6g}, {cq[2]:.6g}]".ljust(35) +
                  f"{wins:5.0%}  {result}"
                  f"{'' if len(pairs) >= MIN_PAIRS else ' (few pairs)'}",
                  file=out)
    return regressed


def write_runs(directory, values, seconds):
    """One run file per seed: values[seed] = {metric: value}."""
    directory.mkdir()
    for seed, metrics in enumerate(values):
        run = {"workload": "w", "seed": seed, "seconds": seconds,
               "trace": False,
               "metrics": {name: {"value": v, "unit": "", "n": 1}
                           for name, v in metrics.items()}}
        (directory / f"w-seed{seed}.json").write_text(json.dumps(run))


def self_test():
    """Synthetic parent/change sets with known verdicts."""
    rng = random.Random(7)
    cases = {  # metric: (median, relative noise) of parent, then change
        "qps": ((1000.0, 0.01), (1300.0, 0.01), "improved"),
        "p50_ms": ((1.0, 0.01), (1.0, 0.01), "no worse"),
        "setup_s": ((2.0, 0.01), (3.0, 0.01), "regressed"),
        "peak_rss_mb": ((400.0, 0.5), (400.0, 0.5), "unresolved"),
        # Spread over the bound, but every change run is worse.
        "p99_ms": ((1.0, 0.4), (3.0, 0.4), "regressed"),
        # A noisier change cannot hide its regression.
        "topk_p50_ms": ((1.0, 0.01), (2.0, 0.6), "regressed"),
    }
    def draw(side):
        runs = []
        for _ in range(12):
            runs.append({})
            for name, case in cases.items():
                median, noise = case[side]
                runs[-1][name] = median * (1 + rng.uniform(-noise, noise))
        return runs

    sides = [draw(0), draw(1)]
    specs = metric_specs()
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        parent_dir, change_dir = Path(tmp) / "parent", Path(tmp) / "change"
        write_runs(parent_dir, sides[0], 15)
        write_runs(change_dir, sides[1], 15)
        for name, (_, _, want) in cases.items():
            p = [run[name] for run in sides[0]]
            c = [run[name] for run in sides[1]]
            got, _ = verdict(p, c, *specs[name])
            print(f"self-test {name}: {got} (want {want})")
            ok &= got == want
        ok &= compare(parent_dir, change_dir, out=io.StringIO()) == 3
        # Runs of different lengths are never paired.
        short_dir = Path(tmp) / "short"
        write_runs(short_dir, sides[1], 10)
        try:
            compare(parent_dir, short_dir, out=io.StringIO())
            print("self-test seconds mismatch: compared (want refused)")
            ok = False
        except ValueError:
            print("self-test seconds mismatch: refused (want refused)")
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.parent or not args.change:
        parser.error("give PARENT_DIR and CHANGE_DIR, or --self-test")
    try:
        return 1 if compare(args.parent, args.change) else 0
    except ValueError as e:
        print(f"compare.py: refused: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
