#!/usr/bin/env python3
"""Builds the perfbench binary from source, then runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload approx_16k_t1 --seed 1 --seconds 20 --trace 0

The build lands in $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is reused by later runs. All build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Exits non-zero, printing no
result, when the program cannot be built.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(out):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    out = build_dir()
    try:
        built = build(out)
    except OSError as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    if not built:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    env = dict(os.environ, PERFBENCH_GIT_REV=git_revision())
    binary = os.path.join(out, "perfbench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
