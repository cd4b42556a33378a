#!/usr/bin/env python3
"""Repository benchmark: builds the benchmark program from source, runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fig3_grid --seed 1 --seconds 20 --trace 0

The benchmark program (perfbench/src) is built with CMake into .bench_build/perfbench
against the `skiptrain` library of this checkout; the root build is not
touched. Its stdout is passed through unchanged, so the last line is the
result object {"correct", "attempted", "failed", "metrics"}. Extra flags
after the four required ones (--tiny, --invalid-trial) are forwarded to
the program.

Exits non-zero without printing a result when the checkout holds no
simulator sources or the build fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def source_digest(root):
    """sha256 over the simulator and benchmark sources (path + bytes)."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", os.path.relpath(HERE, root)):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def git_sha(root):
    # Only this checkout's own history: never a repository further up.
    if not os.path.exists(os.path.join(root, ".git")):
        return "unavailable"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def build(build_dir, jobs):
    # Configuring every time is cheap and picks up an edited CMakeLists.txt.
    # No compiler launcher: ccache would keep state outside the checkout.
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release", "-DCMAKE_CXX_COMPILER_LAUNCHER="]
    step = ["cmake", "--build", build_dir, "--target", "perfbench",
            "-j", str(jobs)]
    return all(subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S).returncode == 0
               for command in (configure, step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    args, extra = parser.parse_known_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        log(f"no simulator sources in {root}; run from the repository root")
        return 2
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    jobs = len(os.sched_getaffinity(0))
    try:
        if not build(build_dir, jobs):
            log("build failed")
            return 3
    except subprocess.TimeoutExpired:
        log("build timed out")
        return 3

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--git-sha", git_sha(root),
               "--source-digest", source_digest(root)] + extra
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"benchmark program exceeded {RUN_TIMEOUT_S} s")
        return 4


if __name__ == "__main__":
    sys.exit(main())
