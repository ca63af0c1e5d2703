#!/usr/bin/env python3
"""Builds and runs the serving benchmark.

    python3 perfbench/run.py --workload paper_serve|delta_edit \
        --seed N --seconds S --trace 0|1

Run from the repository root. The sts library, sts_serve and the benchmark
program are built from source with CMake into $CARGO_TARGET_DIR (default
.bench_build) on first use. Its last stdout line is the JSON result;
the exit code is non-zero when the build fails or any output, counter
invariant or percentile guard does not check out.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "perfbench")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", cmake_dir, "-j", "4", "--target", "perfbench",
                    "sts_serve"], check=True, stdout=sys.stderr)
    return cmake_dir


def source_digest():
    """sha256 over the sources the benchmark builds: ties a run to a tree
    even where no git metadata is present."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), HERE]
    files = [os.path.join(ROOT, "examples", "sts_serve.cpp")]
    for top in roots:
        for base, dirs, names in os.walk(top):
            dirs.sort()
            files += [os.path.join(base, n) for n in sorted(names)
                      if n.endswith((".cpp", ".hpp", ".txt", ".py"))]
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def host_probe_ms():
    """Median time of a fixed CPU-bound task: a slow host shows here."""
    data = bytes(range(256)) * 16384
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(8):
            hashlib.sha256(data).digest()
        times.append((time.perf_counter() - start) * 1e3)
    return round(sorted(times)[2], 3)


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_serve", "delta_edit"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open("/proc/loadavg") as f:
        loadavg = [float(x) for x in f.read().split()[:3]]
    context = {"nproc": os.cpu_count(), "loadavg": loadavg, "commit": git_commit()}

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    try:
        cmake_dir = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    context["source_digest"] = source_digest()
    context["host_probe_ms"] = host_probe_ms()
    print("run_context " + json.dumps(context), flush=True)

    out_dir = os.path.join(build_dir, "runs")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(cmake_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", os.path.join(cmake_dir, "sts_serve"), "--out-dir", out_dir]
    # A process group of its own, so that a timeout also stops the sts-serve child.
    proc = subprocess.Popen(cmd, preexec_fn=os.setpgrp)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
