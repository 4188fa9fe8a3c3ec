#!/usr/bin/env python3
"""Runs one workload of the newtos repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and builds
perfbench/ (and the newtos libraries it links) into .bench_build/perfbench;
later calls only rebuild what changed. The benchmark binary then runs the
workload, and this script prints its report followed, as the last line of
stdout, by one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end list of BENCHMARK.json, with
--trace 1 the per-layer list (and the benchmark's host-time spans are written
to .bench_build/traces/). Each run's result, host_cpus, source revision and
build type are appended to .bench_build/runs.jsonl.

Exit status: 0 with a result; 1 if the build or the run failed; 2 on a usage
error or when the checkout holds no newtos sources.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "newtos_perfbench")
WORKLOADS = ("bulk_tcp", "udp_incast", "conn_churn", "live_mini")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the benchmark binary; logs go to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "newtos_perfbench", "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode(errors="replace")[-8000:])
            fail("build failed: " + " ".join(cmd))


def source_revision():
    """The git revision when there is one, else a hash of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                 stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                 timeout=10)
            rev = out.stdout.decode().strip()
            if out.returncode == 0 and rev:
                return rev
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src-" + digest.hexdigest()[:12]


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")) or \
            not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no newtos sources next to perfbench/ (expected src/ and CMakeLists.txt)", 2)

    build()
    os.makedirs(TRACE_DIR, exist_ok=True)
    rev = source_revision()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", TRACE_DIR, "--rev", rev]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the benchmark run timed out")
    lines = proc.stdout.decode(errors="replace").rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stderr.write("\n".join(lines) + "\n")
        fail("the benchmark exited with status %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the benchmark printed no JSON result")

    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    want = expected_metrics(args.trace)
    if want is not None and sorted(got) != sorted(want):
        fail("metrics disagree with BENCHMARK.json: missing %s, unexpected %s" %
             (sorted(set(want) - set(got)), sorted(set(got) - set(want))))

    # The binary's first line: "perfbench workload=... host_cpus=N rev=R build=T".
    record = dict(tok.split("=", 1) for tok in lines[0].split()[1:] if "=" in tok)
    record["result"] = result
    with open(os.path.join(ROOT, ".bench_build", "runs.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
