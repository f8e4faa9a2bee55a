#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root.  The first run builds perfbench/ (which
compiles the library from src/) into .bench_build/ and generates the
degree-6 lookup table the routing and serving workloads attach; later runs
reuse both while they are newer than the sources.  Build output goes to
stderr; the last stdout line is the JSON result of the run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD = ROOT / ".bench_build" / "cmake"
OUT = ROOT / ".bench_build" / "out"
TABLE = OUT / "lut_deg6.bin"
BINARY = BUILD / "perfbench"
WORKLOADS = ("route_small_miss", "route_iccad_mix", "serve_mixed", "lutgen_deg6")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def call(cmd, timeout):
    """Runs a helper command with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"{cmd[0]}: {e}")
        return False


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if call(["ninja", "--version"], 10) else []
        if not call(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release", *generator], 300):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return call(["cmake", "--build", str(BUILD), "-j", jobs], 850)


def ensure_table():
    if TABLE.exists() and TABLE.stat().st_mtime >= BINARY.stat().st_mtime:
        return True
    log("generating the degree-6 lookup table")
    return call([str(BINARY), "--make-table", str(TABLE), "--out-dir", str(OUT)], 600)


def source_sha():
    """SHA-256 over the library and benchmark sources (the checkout may not
    be a git repository)."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "none"
    except OSError:
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    OUT.mkdir(parents=True, exist_ok=True)
    if not build():
        log("build failed")
        return 1
    if not ensure_table():
        log("table generation failed")
        return 1

    if args.selftest:
        return execute([str(BINARY), "--table", str(TABLE), "--out-dir", str(OUT),
                        "--selftest"])
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    failed = 0
    for workload in workloads:
        failed += execute(workload_command(workload, args)) != 0
    return 1 if failed else 0


def workload_command(workload, args):
    expected = json.loads((BENCH / "expected.json").read_text())
    cmd = [str(BINARY), "--table", str(TABLE), "--out-dir", str(OUT),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expect-table-hash", expected["table_content_hash"],
           "--git-sha", git_sha(), "--source-sha", source_sha()]
    digest = expected["digests"].get(workload)
    if args.seed == expected["default_seed"] and digest:
        cmd += ["--expect-digest", digest]
    return cmd


def execute(cmd):
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1


if __name__ == "__main__":
    sys.exit(main())
