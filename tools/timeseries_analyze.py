#!/usr/bin/env python3
"""Analyze a ptm-timeseries-v1 JSONL stream.

Reads the interval stream written by --timeseries FILE
and reports, per run in the file:

  * a per-interval table: commit/abort deltas, abort rate, committed
    tx per megacycle, and the host events/sec gauge;
  * run phases, detected by comparing each interval's commit rate to
    the run's median rate — consecutive intervals below half the
    median form a "cold" or "stalled" phase, those above 1.5x form a
    "burst" (warm-up ramps and contention collapses stand out
    immediately);
  * the whole-run vs steady-state (second-half) throughput split;
  * the final top-K hot pages by attributed conflicts (the heatmap
    is cumulative, so the last record carries run totals).

With --json the same analysis is emitted as one machine-readable
document; --top N bounds the hot-page listing (default 8). A stream
ptm_schema.read_timeseries rejects (wrong schema tag, broken interval
sequence) is reported and exits 1 with no analysis.

Usage:
    timeseries_analyze.py TS.jsonl [--json] [--top N]
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ptm_schema import read_file, read_timeseries  # noqa: E402


def rate(iv, key):
    """Per-megacycle rate of counter delta @key over the interval."""
    ticks = iv["t1"] - iv["t0"]
    if ticks <= 0:
        return 0.0
    return iv.get("d", {}).get(key, 0) / (ticks / 1e6)


def median(values):
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def detect_phases(intervals, lo=0.5, hi=1.5):
    """Classify each interval against the median commit rate.

    Returns a list of phases: contiguous interval ranges labelled
    "normal", "cold" (rate < lo * median) or "burst"
    (rate > hi * median). Zero-span flush records are ignored.
    """
    usable = [iv for iv in intervals if iv["t1"] > iv["t0"]]
    rates = [rate(iv, "tx.commits") for iv in usable]
    med = median(rates)

    def label(r):
        if med == 0.0:
            return "normal"
        if r < lo * med:
            return "cold"
        if r > hi * med:
            return "burst"
        return "normal"

    phases = []
    for iv, r in zip(usable, rates):
        tag = label(r)
        if phases and phases[-1]["label"] == tag:
            p = phases[-1]
            p["t1"] = iv["t1"]
            p["intervals"] += 1
            p["commits"] += iv.get("d", {}).get("tx.commits", 0)
        else:
            phases.append({
                "label": tag, "t0": iv["t0"], "t1": iv["t1"],
                "intervals": 1,
                "commits": iv.get("d", {}).get("tx.commits", 0),
            })
    return phases, med


def analyze_run(header, intervals, top_n):
    """Produce the analysis dict for one run's interval stream."""
    total = {"commits": 0, "aborts": 0, "events": 0}
    for iv in intervals:
        d = iv.get("d", {})
        total["commits"] += d.get("tx.commits", 0)
        total["aborts"] += d.get("tx.aborts", 0)
        total["events"] += iv.get("events", 0)

    t_begin = intervals[0]["t0"] if intervals else 0
    t_end = intervals[-1]["t1"] if intervals else 0
    span = t_end - t_begin

    # Steady state: intervals starting in the second half of the run.
    half = t_begin + span // 2
    steady_commits = 0
    steady_span = 0
    for iv in intervals:
        if iv["t0"] < half:
            continue
        steady_commits += iv.get("d", {}).get("tx.commits", 0)
        steady_span += iv["t1"] - iv["t0"]

    phases, med = detect_phases(intervals)

    hot = []
    for iv in reversed(intervals):
        if iv.get("hot_pages"):
            hot = iv["hot_pages"][:top_n]
            break

    rows = []
    for iv in intervals:
        d = iv.get("d", {})
        commits = d.get("tx.commits", 0)
        aborts = d.get("tx.aborts", 0)
        attempts = commits + aborts
        rows.append({
            "n": iv["n"], "t0": iv["t0"], "t1": iv["t1"],
            "commits": commits, "aborts": aborts,
            "abort_rate": aborts / attempts if attempts else 0.0,
            "tx_per_mcycle": rate(iv, "tx.commits"),
            "events_per_sec": iv.get("events_per_sec", 0.0),
        })

    return {
        "system": header.get("system"),
        "seed": header.get("seed"),
        "cores": header.get("cores"),
        "interval": header.get("interval"),
        "ticks": span,
        "commits": total["commits"],
        "aborts": total["aborts"],
        "events": total["events"],
        "tx_per_mcycle": total["commits"] / (span / 1e6) if span
        else 0.0,
        "steady_tx_per_mcycle":
            steady_commits / (steady_span / 1e6) if steady_span
            else 0.0,
        "median_tx_per_mcycle": med,
        "intervals": rows,
        "phases": phases,
        "hot_pages": hot,
    }


def print_run(run_no, a):
    print(f"run {run_no}: {a['system']} seed={a['seed']} "
          f"cores={a['cores']} interval={a['interval']} "
          f"ticks={a['ticks']}")
    print(f"  commits {a['commits']}  aborts {a['aborts']}  "
          f"events {a['events']}")
    print(f"  throughput {a['tx_per_mcycle']:.1f} tx/Mcyc whole-run, "
          f"{a['steady_tx_per_mcycle']:.1f} tx/Mcyc steady-state "
          f"(median interval {a['median_tx_per_mcycle']:.1f})")

    print(f"  {'n':>4} {'t0':>12} {'t1':>12} {'commits':>8} "
          f"{'aborts':>7} {'abort%':>7} {'tx/Mcyc':>8} {'ev/sec':>10}")
    for r in a["intervals"]:
        print(f"  {r['n']:>4} {r['t0']:>12} {r['t1']:>12} "
              f"{r['commits']:>8} {r['aborts']:>7} "
              f"{100.0 * r['abort_rate']:>6.1f}% "
              f"{r['tx_per_mcycle']:>8.1f} "
              f"{r['events_per_sec']:>10.3g}")

    print("  phases:")
    for p in a["phases"]:
        print(f"    {p['label']:>6}  [{p['t0']}, {p['t1']})  "
              f"{p['intervals']} interval(s), {p['commits']} commits")

    if a["hot_pages"]:
        print("  hot pages (conflicts, cumulative):")
        for e in a["hot_pages"]:
            page = "?" if e["page"] < 0 else str(e["page"])
            print(f"    page {page:>8}  count {e['count']:>8}  "
                  f"(err <= {e['err']})")
    else:
        print("  hot pages: none recorded")


def main():
    ap = argparse.ArgumentParser(
        description="Analyze a ptm-timeseries-v1 JSONL stream.")
    ap.add_argument("stream", help="JSONL file from --timeseries")
    ap.add_argument("--json", action="store_true",
                    help="emit the analysis as JSON instead of tables")
    ap.add_argument("--top", type=int, default=8, metavar="N",
                    help="hot pages to list (default 8)")
    args = ap.parse_args()

    runs, errors = read_file(args.stream, read_timeseries)
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    if errors:
        return 1
    analyses = [analyze_run(header, intervals, args.top)
                for header, intervals in runs]

    if args.json:
        json.dump({"schema": "ptm-timeseries-analysis-v1",
                   "runs": analyses}, sys.stdout, indent=1)
        print()
    else:
        for i, a in enumerate(analyses):
            if i:
                print()
            print_run(i, a)
    return 0


if __name__ == "__main__":
    sys.exit(main())
