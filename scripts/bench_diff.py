#!/usr/bin/env python3
"""Diff two bench JSON artifacts (BENCH_kernel.json / BENCH_throughput.json).

Used by CI to surface perf regressions automatically: the previous run's
artifacts are restored from the actions cache, compared against the fresh
ones, and every measurement is printed as a delta. Exits 0 always — host
runners are noisy, so regressions are surfaced as GitHub warning
annotations, not hard failures. A missing baseline is not an error (first
run on a branch).

Usage: bench_diff.py BASELINE.json CURRENT.json [--regress-pct 20]
"""
import argparse
import json
import os
import sys


def flatten(doc):
    """-> {measurement label: {metric: value}} for either bench schema."""
    out = {}
    for m in doc.get("measurements", []):
        if "workload" in m:  # kernel_stress
            label = m["workload"]
            metrics = {"events_per_s": m.get("events_per_s")}
        else:  # throughput_batch
            label = "%s/b%d" % (m.get("network", "?"), m.get("batch", 0))
            metrics = {"images_per_s": m.get("images_per_s")}
        out[label] = {k: v for k, v in metrics.items() if v is not None}
    total = doc.get("total_events_per_s")
    if total is not None:
        out["TOTAL"] = {"events_per_s": total}
    sweep = doc.get("sim_knob_sweep")
    if isinstance(sweep, dict) and sweep.get("speedup") is not None:
        # Artifact-cache win on the sim-knob sweep (higher is better).
        out["sim_knob/%s" % sweep.get("network", "?")] = {
            "cached_speedup": sweep["speedup"]}
    rob = doc.get("rob_scaling")
    if isinstance(rob, dict) and rob.get("flatness") is not None:
        # Host simulate time at ROB 16 over ROB 256 (higher is better): a
        # drop means issue cost grows with the ROB again.
        out["rob_scaling/%s" % rob.get("network", "?")] = {"flatness": rob["flatness"]}
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--regress-pct", type=float, default=20.0,
                    help="warn when a higher-is-better metric drops more than this")
    args = ap.parse_args()

    if not os.path.exists(args.current):
        print("::warning::bench_diff: current artifact %s missing" % args.current)
        return 0
    cur = flatten(json.load(open(args.current)))
    if not os.path.exists(args.baseline):
        print("bench_diff: no baseline %s (first run?) — nothing to compare" % args.baseline)
        for label, metrics in cur.items():
            for metric, value in metrics.items():
                print("  %-24s %-14s %12.3g" % (label, metric, value))
        return 0
    base = flatten(json.load(open(args.baseline)))

    name = os.path.basename(args.current)
    print("bench_diff: %s (vs previous run)" % name)
    worst = None
    for label, metrics in cur.items():
        for metric, value in metrics.items():
            prev = base.get(label, {}).get(metric)
            if prev in (None, 0):
                print("  %-24s %-14s %12.3g  (new)" % (label, metric, value))
                continue
            pct = 100.0 * (value - prev) / prev
            print("  %-24s %-14s %12.3g -> %-12.3g %+7.1f%%"
                  % (label, metric, prev, value, pct))
            if worst is None or pct < worst[0]:
                worst = (pct, label, metric)
    if worst and worst[0] < -args.regress_pct:
        print("::warning title=perf regression in %s::%s %s dropped %.1f%% vs previous run"
              % (name, worst[1], worst[2], -worst[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
