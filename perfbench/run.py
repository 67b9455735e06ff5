#!/usr/bin/env python3
"""smpmine-bench: builds the benchmark, generates a workload, measures it.

    python3 perfbench/run.py --workload quest-count --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

A measuring run builds perfbench/ (and the library from src/) into
.bench_build/perfbench, writes the workload's seeded FIMI file there, and
runs `smpbench --mode run` on it in a fresh process, so the process that
mines never held the generator's memory. The last stdout line is the result
object; the line before it is the run's context row (nproc, SIMD backend,
build type, seed, commit).

--smoke runs every workload once at tiny scale with --trace 0 and 1 and
checks that every metric BENCHMARK.json names is present and finite, or
listed as not applicable, and that every output matched its oracle
(including the oracle's own check that it rejects a tampered support).
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "smpbench")
WORKLOADS = ("quest-count", "quest-build", "deep-vertical")
# Each run must end within 180 s; leave room for process start and output.
RUN_LIMIT_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) not found next to perfbench/")
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", PKG, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "smpbench",
                    "-j", str(min(4, os.cpu_count() or 1))],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)


def commit_id():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported tree; src_digest still names the code
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def src_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for d, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(d, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def measure(workload, seed, seconds, trace, tiny, deadline):
    """Generates the input and runs one measurement; returns stdout lines."""
    data_dir = os.path.join(BUILD, "data")
    os.makedirs(data_dir, exist_ok=True)
    stem = f"{workload}-{seed}{'-tiny' if tiny else ''}"
    data = os.path.join(data_dir, stem + ".dat")
    common = ["--workload", workload, "--seed", str(seed),
              "--tiny", "1" if tiny else "0"]
    subprocess.run([BINARY, "--mode", "gen", "--out", data] + common,
                   stdout=sys.stderr, stderr=sys.stderr, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    # Flush the file before timing loads, so write-back does not overlap them.
    with open(data, "rb") as f:
        os.fsync(f.fileno())
    cmd = [BINARY, "--mode", "run", "--input", data, "--seconds", str(seconds),
           "--trace", str(trace), "--commit", commit_id(),
           "--src-digest", src_digest(),
           "--telemetry-out", os.path.join(data_dir, stem + ".telemetry.jsonl")]
    if trace:
        cmd += ["--trace-out", os.path.join(BUILD, stem + ".spans.json")]
    try:
        out = subprocess.run(cmd + common, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True, check=True,
                             timeout=max(1.0, deadline - time.monotonic()))
    finally:
        os.remove(data)
    lines = [line for line in out.stdout.splitlines() if line.strip()]
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError("smpbench printed a malformed result")
    return lines


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            lines = measure(workload, 1996, 1, trace, True,
                            time.monotonic() + RUN_LIMIT_S)
            row = json.loads(lines[-2])["row"]
            result = json.loads(lines[-1])
            na = set(row["not_applicable"])
            problems = []
            if not result["correct"] or result["failed"]:
                problems.append("outputs failed the oracle")
            for metric in spec[section]:
                name = metric["name"]
                got = result["metrics"].get(name)
                if got is None:
                    problems.append(f"{name} missing")
                elif got["unit"] != metric["unit"]:
                    problems.append(f"{name} has unit {got['unit']}")
                elif not isinstance(got["value"], (int, float)) or \
                        not math.isfinite(got["value"]):
                    problems.append(f"{name} is not finite")
            extra = set(result["metrics"]) - {m["name"] for m in spec[section]}
            problems += [f"{name} is not in BENCHMARK.json" for name in extra]
            status = "ok" if not problems else "; ".join(problems)
            print(f"smoke {workload:14s} trace={trace}: {status}"
                  + (f" (n/a: {', '.join(sorted(na))})" if na else ""))
            ok = ok and not problems
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1996)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    try:
        build()
        # The first run in a checkout builds; the limit covers what follows.
        deadline = time.monotonic() + RUN_LIMIT_S
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        lines = measure(args.workload, args.seed, args.seconds, args.trace,
                        False, deadline)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
