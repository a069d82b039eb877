#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload wire-mix --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds perfbench/ (which compiles the
repository's libraries from src/) into .bench_build/perfbench, runs the
benchmark's own accounting self-test, then runs the benchmark. The last
line of standard output is the benchmark's JSON result; build output
goes to standard error. A traced run (--trace 1) also writes a Chrome
trace to .bench_build/traces/<workload>.json.

Exits nonzero, without a result, when the sources are missing or the
build or self-test fails; with the benchmark's status otherwise.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("wire-mix", "wire-cold", "fleet-sweep")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("repository sources (src/) not found next to perfbench/")
    # Compilers put temporary files under TMPDIR; keep them in the checkout.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    test = os.path.join(BUILD, "perfbench_accounting_test")
    if subprocess.run([test], stdout=sys.stderr).returncode != 0:
        fail("accounting self-test failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    cmd = [os.path.join(BUILD, "vsbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, args.workload + ".json")]
    # glibc gives each of the process's dozen threads its own malloc
    # arena, and what the arenas retain makes peak RSS swing 50-80 MiB
    # between identical runs; two arenas keep it at the live data.
    env = dict(os.environ, MALLOC_ARENA_MAX="2")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
