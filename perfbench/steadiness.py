#!/usr/bin/env python3
"""Steadiness report: is each metric steady enough for its bound?

    python3 perfbench/steadiness.py [--runs 10] [--seconds S]
                                    [--workloads dx_mix,hy_mix] [--trace 0]

Runs every workload --runs times, each with another seed (1..runs), and
prints per metric the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and their distance as a share of the
median. With --trace 0 each spread is compared with the metric's bound in
BENCHMARK.json: "ok" within the bound, "steady" within a third of it;
setup_s is reported but exempt, as its bound limits drift between
medians, not spread. Then it repeats the first seed and flags every
simulated-time metric that is not bit-identical between the two runs.
--seconds defaults to BENCHMARK.json's run_seconds.

Exit status 0 when every bounded spread is within its bound and every
simulated-time metric repeats exactly.
"""

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Metrics measured on the simulated clock: fixed by the seed.
SIMULATED = {
    "sim_ops_per_s", "latency_p50_us", "latency_p99_us",
    "server_cpu_us_per_op", "net_bytes_per_op", "ok_frac",
}
# Per-layer metrics fixed by the seed (the rest are host-time probes).
SIMULATED_PREFIXES = ("net.", "mem.", "rmem.", "rpc.", "dfs.",
                      "obs.critpath.")
SIMULATED_LAYER = {"sim.events_per_op", "sim.peak_pending_events",
                   "sim.cancelled_pending_frac", "sim.blocked_tasks"}


def is_simulated(name):
    return (name in SIMULATED or name in SIMULATED_LAYER or
            name.startswith(SIMULATED_PREFIXES))


def load_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    binary = run.build()
    bad = []

    for workload in args.workloads.split(","):
        values = {}
        first = None
        for seed in range(1, args.runs + 1):
            _, res = run.run_bench(binary, workload, seed, args.seconds,
                                   args.trace)
            if first is None:
                first = res
            print("%s seed %d: correct=%s attempted=%d failed=%d" % (
                workload, seed, res["correct"], res["attempted"],
                res["failed"]), flush=True)
            if not res["correct"]:
                bad.append("%s seed %d incorrect" % (workload, seed))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])

        print("\n%s: %d runs of %d s" % (workload, args.runs, args.seconds))
        print("  %-40s %14s %14s %14s %8s %6s  %s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name) if args.trace == 0 else None
            verdict = ""
            if bound is not None and name != "setup_s":
                if spread <= bound / 3:
                    verdict = "steady"
                elif spread <= bound:
                    verdict = "ok"
                else:
                    verdict = "OUTSIDE BOUND"
                    bad.append("%s %s spread %.4f" % (workload, name,
                                                      spread))
            print("  %-40s %14.6g %14.6g %14.6g %8.4f %6s  %s" % (
                name, med, q1, q3, spread,
                "" if bound is None else "%.2f" % bound, verdict))

        _, again = run.run_bench(binary, workload, 1, args.seconds,
                                 args.trace)
        drift = [name for name, m in first["metrics"].items()
                 if is_simulated(name) and
                 again["metrics"][name]["value"] != m["value"]]
        if drift:
            bad.append("%s not bit-identical: %s" % (workload,
                                                     ", ".join(drift)))
            print("  NOT BIT-IDENTICAL at seed 1: " + ", ".join(drift))
        else:
            print("  simulated-time metrics bit-identical at seed 1")

    if bad:
        print("\nUNSTEADY: " + "; ".join(bad))
        return 1
    print("\nall bounded metrics within their bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
