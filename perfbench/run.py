#!/usr/bin/env python3
"""Build and run the Remora benchmark program.

    python3 perfbench/run.py --workload dx_mix --seed 1 --seconds 12 --trace 0

Run from the repository root. remora_perfbench (perfbench/perfbench.cc) is built
from source with CMake into the directory named by $CARGO_TARGET_DIR, or
.bench_build/ when that is unset, on first use; later runs only re-check
the build. The last line of stdout is the program's JSON result
({"correct", "attempted", "failed", "metrics"}). Any failure -- no source
tree, a build error, a crash, a malformed result -- exits non-zero
without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORKLOADS = ("dx_mix", "hy_mix", "dx_mix_lossy")


def build_dir():
    """The build tree, relative paths taken from the repository root."""
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(target="remora_perfbench"):
    """Configure (once) and build @p target; return the binary's path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # A configure that failed leaves a cache but no build system.
    if not any(os.path.exists(os.path.join(out, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    binary = os.path.join(out, target)
    if not os.path.isfile(binary):
        raise RuntimeError("build produced no " + binary)
    return binary


def parse_result(stdout):
    """The program's last stdout line, checked against the result shape."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("remora_perfbench printed nothing")
    res = json.loads(lines[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError("result has keys " + ",".join(sorted(res)))
    if not isinstance(res["correct"], bool):
        raise RuntimeError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(res[key], int) or res[key] < 0:
            raise RuntimeError(key + " is not a whole number")
    if res["attempted"] < 1:
        raise RuntimeError("no operation was attempted")
    for name, m in res["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(
                m["value"], (int, float)):
            raise RuntimeError("malformed metric " + name)
    return res


def run_bench(binary, workload, seed, seconds, trace):
    """Run one measurement; return (human lines, parsed result)."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError("remora_perfbench exited with code %d" %
                           proc.returncode)
    return proc.stdout.strip().splitlines()[:-1], parse_result(proc.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    try:
        binary = build()
        lines, res = run_bench(binary, args.workload, args.seed,
                               args.seconds, args.trace)
    except (RuntimeError, ValueError, OSError,
            subprocess.TimeoutExpired) as err:
        print("perfbench: " + str(err), file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
