#!/usr/bin/env python3
"""Consistency self-test: the benchmark models the system the gates check.

    python3 perfbench/selftest.py

1. `remora_perfbench --selftest` replays bench_scaling_clients' n8 rows
   (client seeds 1000+i, a 2 s window, a 200 ms drain, every client
   drawing its target among the 8 shared hot files). Its ops_per_sec,
   server_util and mean_latency_ms for DX and HY must equal, at the 6
   significant digits BenchReport writes, both the live
   bench_scaling_clients (built from bench/) and the checked-in
   bench/baselines/BENCH_scaling_clients.json. A baseline row that only
   the live bench also misses is reported as a stale baseline, not as a
   benchmark fault; it must still be within bench_diff's default 5%.
2. dx_mix and hy_mix complete with no failed op and every check passing,
   and DX beats HY on sim_ops_per_s and server_cpu_us_per_op (Fig. 3).
3. It prints, without judging them, the two wire-recovery baseline facts
   README.md records: dx_mix_lossy with --drop-rate 0 (the reliable wire
   on, nothing dropped) and with --window-ms 8000 (one long window).

Exit status 0 when every check holds.
"""

import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BASELINE = os.path.join(run.ROOT, "bench", "baselines",
                        "BENCH_scaling_clients.json")
KEYS = ["n8.%s.%s" % (scheme, metric) for scheme in ("dx", "hy")
        for metric in ("ops_per_sec", "server_util", "mean_latency_ms")]
BENCH_DIFF_TOL = 0.05


def six_digits(v):
    return float("%.6g" % v)


def report_metrics(path):
    with open(path) as f:
        return {m["name"]: m["value"] for m in json.load(f)["metrics"]}


def run_extra(binary, extra, trace, seconds=1):
    """dx_mix_lossy at seed 1 with diagnostic overrides; its result."""
    out = subprocess.run(
        [binary, "--workload", "dx_mix_lossy", "--seed", "1", "--seconds",
         str(seconds), "--trace", str(trace)] + extra,
        capture_output=True, text=True, check=True, timeout=170).stdout
    res = run.parse_result(out)
    ops = [line for line in out.splitlines() if line.startswith("ops:")]
    return res, {k: v["value"] for k, v in res["metrics"].items()}, ops


def print_baseline_facts(binary):
    res, m, _ = run_extra(binary, ["--drop-rate", "0"], 0)
    _, layer, _ = run_extra(binary, ["--drop-rate", "0"], 1)
    print("fact 1, reliable wire at 0%% loss: %.0f ops/s, %d of %d ops "
          "failed, %.2f retransmits per wire message, %.2f messages per op" % (
              m["sim_ops_per_s"], res["failed"], res["attempted"],
              layer["rmem.wire.retransmits_per_msg"],
              layer["rmem.wire.msgs_per_op"]))
    res, m, ops = run_extra(binary, ["--window-ms", "8000"], 0, seconds=4)
    print("fact 2, 5%% loss over 8-s windows: %.0f ops/s, %d of %d ops "
          "failed (ok_frac %.3f); %s" % (m["sim_ops_per_s"], res["failed"],
                                         res["attempted"], m["ok_frac"],
                                         " ".join(ops)))


def main():
    failures = []
    binary = run.build()
    reference = run.build("scaling_reference")

    out = subprocess.run([binary, "--selftest"], capture_output=True,
                         text=True, check=True, timeout=170).stdout
    mine = json.loads(out.strip().splitlines()[-1])
    with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
        subprocess.run([reference], cwd=tmp, check=True, timeout=170,
                       stdout=subprocess.DEVNULL)
        live = report_metrics(os.path.join(tmp,
                                           "BENCH_scaling_clients.json"))
    baseline = report_metrics(BASELINE)

    print("%-24s %14s %14s %14s  verdict" % ("metric", "perfbench",
                                             "live bench", "baseline"))
    for key in KEYS:
        d = six_digits(mine[key])
        verdict = "exact"
        if d != live[key]:
            verdict = "PERFBENCH != LIVE BENCH"
            failures.append(key)
        elif d != baseline[key]:
            off = abs(d - baseline[key]) / abs(baseline[key])
            verdict = "stale baseline (%+.4f%%)" % (
                100 * (d - baseline[key]) / baseline[key])
            if off > BENCH_DIFF_TOL:
                failures.append(key)
                verdict += " OUTSIDE bench_diff tolerance"
        print("%-24s %14.6g %14.6g %14.6g  %s" % (key, d, live[key],
                                                   baseline[key], verdict))
    for scheme in ("dx", "hy"):
        if mine["n8.%s.failed" % scheme] != 0:
            failures.append("n8.%s.failed" % scheme)

    results = {}
    for workload in ("dx_mix", "hy_mix"):
        _, res = run.run_bench(binary, workload, 1, 2, 0)
        results[workload] = {k: v["value"] for k, v in res["metrics"].items()}
        print("%-8s correct=%s attempted=%d failed=%d sim_ops_per_s=%.1f "
              "server_cpu_us_per_op=%.2f" % (
                  workload, res["correct"], res["attempted"], res["failed"],
                  results[workload]["sim_ops_per_s"],
                  results[workload]["server_cpu_us_per_op"]))
        if not res["correct"] or res["failed"] != 0:
            failures.append(workload + " correctness")
    dx, hy = results["dx_mix"], results["hy_mix"]
    if not dx["sim_ops_per_s"] > hy["sim_ops_per_s"]:
        failures.append("DX throughput does not beat HY")
    if not dx["server_cpu_us_per_op"] < hy["server_cpu_us_per_op"]:
        failures.append("DX server load does not beat HY")

    print_baseline_facts(binary)

    if failures:
        print("SELFTEST FAILED: " + ", ".join(failures))
        return 1
    print("SELFTEST PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
