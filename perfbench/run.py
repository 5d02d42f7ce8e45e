#!/usr/bin/env python3
"""Builds and runs the ConfCard benchmark.

    python3 perfbench/run.py --workload serve_steady --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first run configures and
builds perfbench/ (which compiles ../src) into .bench_build/perfbench;
later runs only rebuild what changed. The benchmark binary prints every
metric by name with its unit and, as its last line, one JSON object with
the keys correct, attempted, failed and metrics; this script passes its
standard output through unchanged and exits with its exit code.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("serve_steady", "serve_drift_feedback", "offline_pi")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def finish(proc, timeout):
    """proc.communicate(timeout); kills and reaps proc if the wait ends
    any other way (timeout, or this script being stopped)."""
    try:
        return proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def run_checked(cmd, cwd, timeout):
    """Runs cmd with its output on stderr; fails the run on error."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        finish(proc, timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        fail("command failed (%d): %s" % (proc.returncode, " ".join(cmd)))


def git_commit(root):
    """`git rev-parse HEAD` of the checkout, or 'unknown' outside git.

    The search for .git stops at the checkout's root, so the command
    reads nothing outside it.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    commit = proc.stdout.strip()
    return commit if proc.returncode == 0 and commit else "unknown"


def main():
    # A stopped run still kills and reaps its children (see finish).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds within [1, 600]")

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no ConfCard sources at %s; run from a source checkout"
             % os.path.join(root, "src"))

    out = os.path.join(root, ".bench_build", "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_checked(["cmake", "-S", here, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"], root, BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                root, BUILD_TIMEOUT_S)

    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit(root)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            out, "spans-%s-%d.json" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        stdout, _ = finish(proc, RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out after %d s" % RUN_TIMEOUT_S, 1)

    lines = stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        ok = False
    if not ok:
        sys.stdout.write(stdout)
        fail("benchmark printed no result line", 1)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    if not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
