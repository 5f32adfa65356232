#!/usr/bin/env python3
"""Builds and runs the sensrep benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload paper_16r --seed 3 --seconds 10 --trace 0
  python3 perfbench/run.py --self-test        # determinism + metric-name check
  python3 perfbench/run.py --write-expected   # regenerate perfbench/expected/

The program is built from ../src into .bench_build/perfbench (Release). The
last line of standard output is the run's JSON result; build output goes to
standard error.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
ALL_WORKLOADS = ["field_100k", "paper_16r", "chaos_16r", "service_soak"]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no sensrep sources at %s" % os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"],
                   stdout=sys.stderr, check=True)


def run_binary(args):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    proc = subprocess.run([BINARY] + args,
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def self_test():
    """Tiny size of every workload: two runs per mode with one seed must give
    identical work counts and event mixes, every run must be correct, and
    every metric BENCHMARK.json names must be emitted with its unit."""
    spec = benchmark_spec()
    wanted = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
              "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in ALL_WORKLOADS:
        for trace in ("0", "1"):
            outputs = []
            for _ in range(2):
                code, lines = run_binary(["--workload", workload, "--size", "tiny",
                                          "--seconds", "1", "--trace", trace])
                if code != 0 or not lines:
                    problems.append("%s trace %s: exit %d" % (workload, trace, code))
                    break
                outputs.append(lines)
            if len(outputs) != 2:
                continue
            work = [[l for l in out if l.startswith('{"work"') or l.startswith('{"event_mix"')]
                    for out in outputs]
            if not work[0] or work[0] != work[1]:
                problems.append("%s trace %s: work counts differ between runs" % (workload, trace))
            for out in outputs:
                result = json.loads(out[-1])
                if not result["correct"] or result["failed"] != 0:
                    problems.append("%s trace %s: incorrect run" % (workload, trace))
                for name, unit in wanted[trace].items():
                    got = result["metrics"].get(name)
                    if got is None or got["unit"] != unit:
                        problems.append("%s trace %s: metric %s missing or not in %s"
                                        % (workload, trace, name, unit))
            print("self-test %-12s trace %s: %s" % (workload, trace, work[0][0]))
    for p in sorted(set(problems)):
        print("FAIL " + p)
    print("self-test: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def write_expected():
    for workload in ALL_WORKLOADS:
        code, _ = run_binary(["--workload", workload, "--seconds", "0", "--trace", "0",
                              "--write-expected"])
        if code != 0:
            return code
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=ALL_WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--size", choices=["full", "tiny"], default="full")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--write-expected", action="store_true")
    a = p.parse_args()
    build()
    if a.self_test:
        return self_test()
    if a.write_expected:
        return write_expected()
    if a.workload is None:
        p.error("--workload is required")
    args = ["--workload", a.workload, "--seconds", str(a.seconds), "--trace", a.trace,
            "--size", a.size]
    if a.seed is not None:
        args += ["--seed", str(a.seed)]
    if a.trace == "1":
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        seed = "default" if a.seed is None else a.seed
        args += ["--spans", os.path.join(spans, "%s-seed%s.jsonl" % (a.workload, seed))]
    code, lines = run_binary(args)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
