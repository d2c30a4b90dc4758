#!/usr/bin/env python3
"""Build and run the uasim host-performance benchmark.

    python3 hostperf/run.py --workload fig9_warm --seed 12345 \
        --seconds 20 --trace 0

configures and builds hostperf/ (a CMake project that compiles the
repository's libuasim from source) into $CARGO_TARGET_DIR, default
.bench_build, then runs the hostperf driver for one workload from the
repository root. The driver's last stdout line is the JSON result.
`--workload all` runs every workload in turn and ends with one combined
result line whose metric names are prefixed by the workload name.

Build output goes to stderr. Exit status: 0 when every pass checked
out, nonzero on a failed check, a failed build, or bad usage.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fig9_warm", "table3_cold", "campaign_mixed"]
# A run measures for --seconds after its set-up repetitions (a few
# seconds each; the longest workload's take about 10 s in all) and a
# last pass that may overrun --seconds. The first build may take longer.
SETUP_MARGIN_S = 150
BUILD_TIMEOUT_S = 840


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (first time only) and build the driver; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no CMakeLists.txt at %s: the simulator sources are missing"
             % ROOT)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    run_build_step(["cmake", "--build", build_dir, "--target", "hostperf",
                    "-j", jobs])
    return os.path.join(build_dir, "hostperf")


def run_build_step(cmd):
    try:
        rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                            timeout=BUILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("build step timed out: " + " ".join(cmd))
    if rc != 0:
        fail("build step failed (%d): %s" % (rc, " ".join(cmd)))


def git_commit():
    """HEAD of the checkout, or "unknown" outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def run_workload(binary, args, workload):
    """Run one workload, echo its output, return (exit code, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True,
                              timeout=args.seconds + SETUP_MARGIN_S)
    except subprocess.TimeoutExpired:
        print("run.py: %s timed out" % workload, file=sys.stderr)
        return 1, None
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, (lines, result)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--seconds", type=int, default=20,
                    help="measuring time of one run, 1..3600")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 3600:
        fail("--seconds must be 1..3600")

    binary = build()
    if args.workload != "all":
        rc, out = run_workload(binary, args, args.workload)
        if out:
            print("\n".join(out[0]))
        # No result line means the run failed, whatever its exit code.
        sys.exit(rc if out and out[1] else (rc or 1))

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        print("== %s ==" % workload)
        rc, out = run_workload(binary, args, workload)
        worst = worst or rc
        if not out or not out[1]:
            fail("%s printed no result" % workload, rc or 1)
        print("\n".join(out[0][:-1]))
        res = out[1]
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"]["%s.%s" % (workload, name)] = m
    print(json.dumps(combined))
    sys.exit(worst)


if __name__ == "__main__":
    main()
