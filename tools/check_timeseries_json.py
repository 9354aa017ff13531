#!/usr/bin/env python3
"""Reconciliation checker for ptm-timeseries-v1 streams.

Runs ptm_sim with --timeseries and --stats-json on the contended KV
workload (zipf 0.99), reads both outputs with ptm_schema (which
checks the header, the interval records, dense n, contiguous [t0, t1)
tick spans, positive deltas and the one trailing final=true flush),
and checks:

  * the file holds exactly one run, for the configured system and
    interval, every non-final interval spanning exactly that period
    and the last one reaching the run's end;
  * EXACT reconciliation: for every counter, the sum of its per-
    interval deltas equals the final total in the ptm-stats-v1 JSON
    of the same run, and likewise for every distribution's samples
    and sum -- the stream provably loses nothing;
  * per-interval hot_pages arrays (the run enables --heatmap), with
    a non-empty array by the final record under zipf 0.99;
  * a control run without --timeseries must not create the file.

With --self-test these checks run against mutations of a crafted
stream instead of driving the simulator.

Usage:
    check_timeseries_json.py PATH_TO_PTM_SIM
    check_timeseries_json.py --self-test
"""

import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ptm_schema import (DELETE, FORMATS, SAMPLES,  # noqa: E402
                        mutate, read_file, read_stats, read_timeseries,
                        rejections, report, run_json)

INTERVAL = 20000


def reconcile(intervals, stats_doc):
    """Delta sums across the stream must equal the final stat totals."""
    errors = []
    sums = {}
    dist_sums = {}
    for iv in intervals:
        for path, delta in iv.get("d", {}).items():
            sums[path] = sums.get(path, 0) + delta
        for path, rec in iv.get("dist", {}).items():
            cur = dist_sums.setdefault(path, [0, 0.0])
            cur[0] += rec.get("samples", 0)
            cur[1] += rec.get("sum", 0.0)

    groups = stats_doc.get("groups", {})
    finals = {}
    dist_finals = {}
    for gname, stats in groups.items():
        for sname, stat in stats.items():
            path = f"{gname}.{sname}"
            if stat.get("kind") == "counter":
                finals[path] = stat.get("value", 0)
            elif stat.get("kind") == "distribution":
                dist_finals[path] = (stat.get("samples", 0),
                                     stat.get("sum", 0.0))

    for path, total in finals.items():
        if sums.get(path, 0) != total:
            errors.append(
                f"counter {path}: delta sum {sums.get(path, 0)} != "
                f"final total {total}")
    for path in sums:
        if path not in finals:
            errors.append(f"stream names unknown counter {path!r}")

    for path, (samples, total) in dist_finals.items():
        got = dist_sums.get(path, [0, 0.0])
        if got[0] != samples:
            errors.append(
                f"distribution {path}: sample delta sum {got[0]} != "
                f"final samples {samples}")
        # Sums are doubles accumulated in a different order; allow
        # only rounding-level slack.
        if abs(got[1] - total) > max(1e-6 * abs(total), 1e-6):
            errors.append(
                f"distribution {path}: sum of deltas {got[1]} != "
                f"final sum {total}")
    for path in dist_sums:
        if path not in dist_finals:
            errors.append(f"stream names unknown distribution {path!r}")
    return errors


def check_stream(runs, stats_doc, interval=INTERVAL):
    if len(runs) != 1:
        return [f"stream holds {len(runs)} runs, expected one"]
    header, intervals = runs[0]
    errors = reconcile(intervals, stats_doc)
    if header["system"] != "sel-ptm":
        errors.append(f"header.system {header['system']!r} != 'sel-ptm'")
    if header["interval"] != interval:
        errors.append(f"header.interval {header['interval']!r} != "
                      "--timeseries-interval")
    for k, iv in enumerate(intervals[:-1]):
        if iv["t1"] - iv["t0"] != interval:
            errors.append(f"interval {k}: span {iv['t1'] - iv['t0']} != "
                          f"configured {interval}")
    # The stream covers the whole run: the final record's t1 is at or
    # past the manifest cycle count.
    cycles = stats_doc["manifest"]["cycles"]
    if intervals[-1]["t1"] < cycles:
        errors.append(f"stream ends at {intervals[-1]['t1']} before run "
                      f"end {cycles}")
    # --timeseries implies --heatmap: cumulative hot_pages on each
    # record, non-empty by the final one under zipf 0.99.
    missing = [k for k, iv in enumerate(intervals) if "hot_pages" not in iv]
    if missing:
        errors.append(f"interval {missing[0]}: hot_pages missing")
    elif not intervals[-1]["hot_pages"]:
        errors.append("final hot_pages empty under zipf=0.99 (contended "
                      "run must attribute conflicts)")
    return errors


def check_run(ptm_sim):
    ptm_sim = os.path.abspath(ptm_sim)
    with tempfile.TemporaryDirectory() as tmp:
        ts_path = os.path.join(tmp, "ts.jsonl")
        stats_path = os.path.join(tmp, "stats.json")
        stats_doc, errors = run_json([
            ptm_sim, "--workload", "kv", "--system", "sel-ptm",
            "--scale", "0", "--threads", "4", "--wl-opt", "zipf=0.99",
            "--timeseries", ts_path, "--timeseries-interval",
            str(INTERVAL), "--stats-json", stats_path],
            read_stats, "stats", out=stats_path)
        if errors:
            return errors
        runs, errors = read_file(ts_path, read_timeseries)
        if errors:
            return errors
        errors = check_stream(runs, stats_doc)

        # Off by default: without --timeseries no file appears.
        off_path = os.path.join(tmp, "off.jsonl")
        proc = subprocess.run(
            [ptm_sim, "--workload", "kv", "--system", "sel-ptm",
             "--scale", "0", "--threads", "4"],
            capture_output=True, text=True, cwd=tmp)
        if proc.returncode != 0:
            errors.append(f"control run exited {proc.returncode}")
        if os.path.exists(off_path):
            errors.append("control run created a timeseries file")
        if "ptm-timeseries-v1" in proc.stdout or \
                "ptm-timeseries-v1" in proc.stderr:
            errors.append("control run streamed timeseries records")
    return errors


def self_test():
    """The run checks on mutations of ptm_schema's sample stream (two
    100-tick intervals of 5 commits each); the stream's structure rules
    run in ptm_schema's own self-test."""
    stream = SAMPLES["timeseries"]

    def check(doc):
        runs, errors = read_timeseries(FORMATS["timeseries"][1](
            doc["stream"]))
        return errors or check_stream(runs, doc["stats"], interval=100)

    return report(rejections(check, {"stream": stream, "stats": {
        "manifest": {"cycles": 200},
        "groups": {"tx": {"commits": {"kind": "counter", "value": 10}}}}}, [
        (["stats", "groups", "tx", "commits", "value"], 12,
         "delta sum 10"),
        (["stats", "groups", "tx", "commits"], DELETE, "unknown counter"),
        (["stats", "groups", "tx", "lat"], {"kind": "distribution",
                                            "samples": 1, "sum": 2.0},
         "sample delta sum 0"),
        (["stream"], stream * 2, "holds 2 runs"),
        (["stream", 0, "system"], "vtm", "header.system"),
        (["stream", 0, "interval"], 50, "header.interval"),
        (["stream"], mutate(mutate(stream, [1, "t1"], 150), [2, "t0"], 150),
         "span 150 != configured 100"),
        (["stats", "manifest", "cycles"], 300, "before run end 300"),
        (["stream", 1, "hot_pages"], DELETE, "hot_pages missing"),
        (["stream", 2, "hot_pages"], [], "final hot_pages empty"),
    ]))


def main():
    if len(sys.argv) == 2 and sys.argv[1] == "--self-test":
        return self_test()
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    errors = check_run(sys.argv[1])
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print("timeseries: " + ("ok" if not errors else
                            f"{len(errors)} error(s)"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
