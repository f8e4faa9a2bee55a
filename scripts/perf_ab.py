#!/usr/bin/env python3
"""A/B comparison of two checkouts on one perfbench workload.

    scripts/perf_ab.py <dirA> <dirB> --workload <name> --pairs <n> [--seed <s>]

Runs `python3 perfbench/run.py --workload <name> --seed <s> --seconds 10
--trace 0` (seed 1 by default) in each checkout, <n> times each, alternating which side goes
first.  Then prints each side's host core count (`nproc`), `build_type`
and `source_sha` from the runs' perfbench context lines, and, for every
end-to-end metric that BENCHMARK.json declares, each side's median and
interquartile range (IQR), and in how many of the pairs B was better.
Exits 1 when any run fails, reports `correct: false` or has failed
operations, and 2 when the sides' `nproc` or `build_type` differ: such
runs must not be compared (perfbench/README.md).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


CONTEXT_KEYS = ("nproc", "build_type", "source_sha")
MUST_MATCH = ("nproc", "build_type")


def run(checkout, workload, seed):
    """One perfbench run in `checkout`; returns its JSON result with the
    run's context line under "context", or None."""
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "10", "--trace", "0"]
    r = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
        context = next((json.loads(line[len("context "):]) for line in lines
                        if line.startswith("context {")), {})
    except json.JSONDecodeError:
        result = None
    if r.returncode != 0 or result is None:
        sys.stderr.write(r.stderr[-4000:])
        print(f"{checkout}: run.py exited {r.returncode}", file=sys.stderr)
        return None
    result["context"] = context
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir_a")
    ap.add_argument("dir_b")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=6)
    ap.add_argument("--seed", type=int, default=1,
                    help="workload seed passed to run.py (default 1)")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"A": Path(args.dir_a).resolve(), "B": Path(args.dir_b).resolve()}
    results = {"A": [], "B": []}
    contexts = {"A": [], "B": []}
    ok = True
    for i in range(args.pairs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for side in order:
            result = run(sides[side], args.workload, args.seed)
            if result is None:
                return 1
            if not result.get("correct") or result.get("failed", 0) != 0:
                print(f"pair {i + 1} {side}: correct={result.get('correct')} "
                      f"failed={result.get('failed')}", file=sys.stderr)
                ok = False
            results[side].append(result["metrics"])
            contexts[side].append(result["context"])
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)",
              file=sys.stderr, flush=True)

    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs; "
          f"A = {sides['A']}, B = {sides['B']}")
    seen = {}
    for side in ("A", "B"):
        seen[side] = {k: sorted({c.get(k, "?") for c in contexts[side]})
                      for k in CONTEXT_KEYS}
        print(f"{side}: " + ", ".join(f"{k} {'/'.join(v)}"
                                      for k, v in seen[side].items()))
    mismatch = [k for k in MUST_MATCH if seen["A"][k] != seen["B"][k]
                or len(seen["A"][k]) != 1]
    print(f"{'metric':<16} {'A median':>12} {'A IQR':>10} {'B median':>12} "
          f"{'B IQR':>10} {'change':>8}  B better")
    for m in metrics:
        name = m["name"]
        a = [r[name]["value"] for r in results["A"] if name in r]
        b = [r[name]["value"] for r in results["B"] if name in r]
        if len(a) != args.pairs or len(b) != args.pairs:
            print(f"{name:<16} missing from some runs")
            continue
        higher = m["better"] == "higher"
        wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        qa, qb = quartiles(a), quartiles(b)
        change = (qb[1] - qa[1]) / qa[1] * 100 if qa[1] else 0.0
        print(f"{name:<16} {qa[1]:>12.6g} {qa[2] - qa[0]:>10.4g} "
              f"{qb[1]:>12.6g} {qb[2] - qb[0]:>10.4g} {change:>+7.1f}%  "
              f"{wins}/{args.pairs}")
    if mismatch:
        print(f"error: {', '.join(mismatch)} differ between or within the "
              "sides; these runs are not comparable", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
