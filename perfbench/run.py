#!/usr/bin/env python3
"""Build and run the repository benchmark (camp_perfbench).

    python3 perfbench/run.py --workload embed-evict --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source tree. The first call configures and builds
perfbench/ (the camp library from src/ plus camp_perfbench) in
.bench_build/perfbench, always as Release; later calls only rebuild what
changed. Build output goes to stderr, so the last line on stdout is the
JSON result of camp_perfbench. The exit code is camp_perfbench's: nonzero
when any value read back was wrong.

--self-test runs every workload of BENCHMARK.json at tiny size and checks
that every named metric is present with its unit, that the embed-evict
counts and cost_miss_ratio repeat exactly at a fixed seed, and that a
held-out seed changes the trace but not the set of metric names.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "camp_perfbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources at src/; run from the root "
                 "of a source tree")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "camp_perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def source_stamp():
    """The git commit when there is one, else a hash of the sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def bench_args(workload, seed, seconds, trace, tiny=False):
    args = [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--source", source_stamp()]
    if tiny:
        args.append("--tiny")
    if trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans-out",
                 os.path.join(spans, f"{workload}-seed{seed}.tsv")]
    return args


def capture(args):
    """Run camp_perfbench, return (exit code, stdout lines, parsed result)."""
    proc = subprocess.run(args, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode, lines, result


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expect = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def check(workload, seed, trace):
        code, lines, result = capture(
            bench_args(workload, seed, 1, trace, tiny=True))
        where = f"{workload} seed={seed} trace={trace}"
        if code != 0 or result is None or not result.get("correct"):
            problems.append(f"{where}: exit {code}, result {result}")
            return lines, {}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != expect[trace]:
            problems.append(f"{where}: metrics/units differ from "
                            f"BENCHMARK.json: {sorted(set(got) ^ set(expect[trace]))}"
                            f" {[k for k in got if k in expect[trace] and got[k] != expect[trace][k]]}")
        return lines, result["metrics"]

    def line(lines, prefix):
        return next((l for l in lines if l.startswith(prefix)), None)

    for w in spec["workloads"]:
        for trace in (0, 1):
            check(w["name"], 1, trace)

    # Exact repeat at a fixed seed (single-threaded, fixed op counts).
    first, m1 = check("embed-evict", 1, 0)
    again, m2 = check("embed-evict", 1, 0)
    if line(first, "counts ") != line(again, "counts ") or \
            m1.get("cost_miss_ratio") != m2.get("cost_miss_ratio"):
        problems.append("embed-evict counts do not repeat at a fixed seed: "
                        f"{line(first, 'counts ')} vs {line(again, 'counts ')}")
    exact = ("policy.heap_visits_per_op", "policy.evictions_per_put",
             "policy.nonempty_queues")
    _, p1 = check("embed-evict", 1, 1)
    _, p2 = check("embed-evict", 1, 1)
    if [p1.get(k) for k in exact] != [p2.get(k) for k in exact]:
        problems.append("policy counts do not repeat at a fixed seed")

    # A held-out seed changes the trace, not the metric names.
    held, m3 = check("embed-evict", 7, 0)
    fp = lambda lines: json.loads(line(lines, "env ")[4:])["trace_fingerprint"]
    if fp(first) == fp(held):
        problems.append("seed 7 produced the same trace as seed 1")
    if set(m3) != set(m1):
        problems.append("seed 7 changed the metric names")

    for p in problems:
        print("self-test FAIL:", p)
    print("self-test:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if args.self_test:
        return self_test()
    try:
        proc = subprocess.run(
            bench_args(args.workload, args.seed, args.seconds, args.trace),
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
