#!/usr/bin/env python3
"""Diff two ptm-benchsuite-v1 baselines and flag perf regressions.

Rows are matched within each bench by the join key formed from their
identity fields (all string- and bool-valued fields except
"verified"): app, system, mode, config, policy, abort_rate, ...
Numeric metrics listed in THRESHOLDS are then gated: a relative
*increase* beyond the metric's noise threshold is a regression and the
tool exits 1. A verified=true row turning false is always a
regression, as is a baseline row that disappeared. Other shared
numeric fields are reported informationally when they drift by more
than --report-threshold but never fail the comparison.

The simulator is fully deterministic for a given seed, so the
thresholds only need to absorb intentional modelling changes, not
host noise; wall-clock values are never compared.

Usage:
    bench_compare.py OLD.json NEW.json [--report-threshold PCT]
    bench_compare.py --self-test
"""

import argparse
import copy
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ptm_schema import read_benchsuite, read_file  # noqa: E402

# metric -> allowed relative increase before it counts as a regression.
# Cost-like metrics only: a *decrease* is never flagged.
THRESHOLDS = {
    "cycles": 0.01,            # headline metric: 1% noise budget
    "prof_total_ticks": 0.01,  # must track cycles by construction
    "prof_tx_exec": 0.05,
    # Execution vs. local-hit attribution: a batch that charged its
    # hits to non_tx (or the reverse) moves ticks between these two.
    "prof_non_tx": 0.05,
    "prof_stall_l1": 0.05,
    "prof_stall_l2": 0.05,
    "prof_stall_mem": 0.05,
    "prof_stall_xlat": 0.05,
    "prof_fault_swap": 0.05,
    "aborts": 0.10,
    # Serving-workload tail latency (bench_kv): p99 is sensitive to
    # abort-path changes, so give it a wider but still binding budget.
    "p99_commit_latency": 0.15,
    # Durable-commit stall tail (bench_kv rows produced under
    # --durability wal): only present when both baselines logged
    # commits, so volatile baselines never trip it.
    "p99_durable_commit_latency": 0.15,
}

# metric -> allowed relative *decrease* before it counts as a
# regression. Goodness metrics only: an increase is never flagged.
# Steady-state throughput integrates over half-run commit deltas, so
# its noise floor is wider than the cycle budget.
THRESHOLDS_DECREASE = {
    "steady_tx_per_sec_1ghz": 0.10,
}


def row_key(row):
    """Join key: every string/bool identity field, sorted by name."""
    parts = []
    for k in sorted(row):
        v = row[k]
        if k != "verified" and isinstance(v, (str, bool)):
            parts.append(f"{k}={v}")
    return " ".join(parts) or "<row>"


def index_rows(rows):
    out = {}
    for row in rows:
        key = row_key(row)
        n = 2
        base = key
        while key in out:  # repeated identical keys get a suffix
            key = f"{base} #{n}"
            n += 1
        out[key] = row
    return out


def compare(old, new, report_threshold):
    """Return (regressions, notes): lists of human-readable strings."""
    regressions = []
    notes = []
    old_benches = old.get("benches", {})
    new_benches = new.get("benches", {})

    for bench in sorted(old_benches):
        if bench not in new_benches:
            regressions.append(f"{bench}: bench missing from new baseline")
            continue
        old_rows = index_rows(old_benches[bench])
        new_rows = index_rows(new_benches[bench])
        for key, orow in old_rows.items():
            nrow = new_rows.get(key)
            if nrow is None:
                regressions.append(f"{bench}: row gone: {key}")
                continue
            if orow.get("verified") is True and \
                    nrow.get("verified") is False:
                regressions.append(
                    f"{bench}: {key}: run no longer verifies")
            for metric in sorted(set(orow) & set(nrow)):
                ov, nv = orow[metric], nrow[metric]
                if isinstance(ov, bool) or isinstance(nv, bool):
                    continue
                if not isinstance(ov, (int, float)) or \
                        not isinstance(nv, (int, float)):
                    continue
                if ov == nv:
                    continue
                rel = (nv - ov) / ov if ov else float("inf")
                thr = THRESHOLDS.get(metric)
                thr_dec = THRESHOLDS_DECREASE.get(metric)
                if thr is not None and rel > thr:
                    regressions.append(
                        f"{bench}: {key}: {metric} {ov} -> {nv} "
                        f"(+{100.0 * rel:.1f}% > {100.0 * thr:.0f}% "
                        "budget)")
                elif thr_dec is not None and -rel > thr_dec:
                    regressions.append(
                        f"{bench}: {key}: {metric} {ov} -> {nv} "
                        f"({100.0 * rel:.1f}% < -{100.0 * thr_dec:.0f}% "
                        "budget)")
                elif abs(rel) > report_threshold:
                    notes.append(
                        f"{bench}: {key}: {metric} {ov} -> {nv} "
                        f"({100.0 * rel:+.1f}%)")
        for key in new_rows:
            if key not in old_rows:
                notes.append(f"{bench}: new row: {key}")
    for bench in sorted(new_benches):
        if bench not in old_benches:
            notes.append(f"{bench}: new bench (no baseline)")
    return regressions, notes


def self_test():
    """Exercise the comparison logic on crafted baseline pairs."""
    base = {
        "schema": "ptm-benchsuite-v1",
        "label": "a",
        "benches": {
            "bench_table1": [
                {"app": "fft", "system": "sel-ptm", "cycles": 1000000,
                 "prof_total_ticks": 4000000, "verified": True},
                {"app": "lu", "system": "vtm", "cycles": 2000000,
                 "prof_total_ticks": 8000000, "verified": True},
            ],
        },
    }
    failures = []

    # 1. Identical baselines must pass clean.
    regs, _ = compare(base, copy.deepcopy(base), 0.10)
    if regs:
        failures.append(f"identical pair flagged: {regs}")

    # 2. An injected 10% cycles slowdown must be detected.
    slow = copy.deepcopy(base)
    slow["benches"]["bench_table1"][0]["cycles"] = 1100000
    regs, _ = compare(base, slow, 0.10)
    if not any("cycles" in r for r in regs):
        failures.append("10% cycles slowdown not detected")

    # 3. A change within the noise budget must NOT be flagged.
    near = copy.deepcopy(base)
    near["benches"]["bench_table1"][0]["cycles"] = 1005000  # +0.5%
    regs, _ = compare(base, near, 0.10)
    if regs:
        failures.append(f"+0.5% cycles inside budget flagged: {regs}")

    # 4. A speedup must not be flagged (thresholds gate increases only).
    fast = copy.deepcopy(base)
    fast["benches"]["bench_table1"][0]["cycles"] = 800000
    regs, notes = compare(base, fast, 0.10)
    if regs:
        failures.append(f"speedup flagged as regression: {regs}")
    if not notes:
        failures.append("-20% cycles drift not reported as a note")

    # 5. verified flipping false must be a regression.
    bad = copy.deepcopy(base)
    bad["benches"]["bench_table1"][1]["verified"] = False
    regs, _ = compare(base, bad, 0.10)
    if not any("verifies" in r for r in regs):
        failures.append("verified=false not detected")

    # 6. A p99 commit-latency blowup (bench_kv rows) must be detected,
    # but only beyond its 15% budget.
    lat = copy.deepcopy(base)
    lat["benches"]["bench_table1"][0]["p99_commit_latency"] = 10000.0
    tail = copy.deepcopy(lat)
    tail["benches"]["bench_table1"][0]["p99_commit_latency"] = 12000.0
    regs, _ = compare(lat, tail, 0.10)
    if not any("p99_commit_latency" in r for r in regs):
        failures.append("+20% p99 commit latency not detected")
    near_tail = copy.deepcopy(lat)
    near_tail["benches"]["bench_table1"][0]["p99_commit_latency"] = \
        11000.0
    regs, _ = compare(lat, near_tail, 0.50)
    if regs:
        failures.append(f"+10% p99 inside budget flagged: {regs}")

    # 7. A steady-state throughput drop (bench_kv rows) must be
    # detected beyond its 10% budget; gains must never be flagged.
    tput = copy.deepcopy(base)
    tput["benches"]["bench_table1"][0]["steady_tx_per_sec_1ghz"] = \
        500000.0
    drop = copy.deepcopy(tput)
    drop["benches"]["bench_table1"][0]["steady_tx_per_sec_1ghz"] = \
        400000.0
    regs, _ = compare(tput, drop, 0.50)
    if not any("steady_tx_per_sec_1ghz" in r for r in regs):
        failures.append("-20% steady throughput not detected")
    gain = copy.deepcopy(tput)
    gain["benches"]["bench_table1"][0]["steady_tx_per_sec_1ghz"] = \
        700000.0
    regs, _ = compare(tput, gain, 0.50)
    if regs:
        failures.append(f"steady throughput gain flagged: {regs}")
    near_drop = copy.deepcopy(tput)
    near_drop["benches"]["bench_table1"][0]["steady_tx_per_sec_1ghz"] = \
        475000.0
    regs, _ = compare(tput, near_drop, 0.50)
    if regs:
        failures.append(f"-5% steady throughput inside budget "
                        f"flagged: {regs}")

    # 8. A durable-commit latency blowup (bench_kv rows produced with
    # --durability wal) must be detected beyond its 15% budget, and a
    # pair where only the new row carries the field (volatile old
    # baseline) must not be compared.
    dur = copy.deepcopy(base)
    dur["benches"]["bench_table1"][0]["p99_durable_commit_latency"] = \
        600.0
    dur_slow = copy.deepcopy(dur)
    dur_slow["benches"]["bench_table1"][0][
        "p99_durable_commit_latency"] = 750.0
    regs, _ = compare(dur, dur_slow, 0.50)
    if not any("p99_durable_commit_latency" in r for r in regs):
        failures.append("+25% p99 durable commit latency not detected")
    dur_near = copy.deepcopy(dur)
    dur_near["benches"]["bench_table1"][0][
        "p99_durable_commit_latency"] = 650.0
    regs, _ = compare(dur, dur_near, 0.50)
    if regs:
        failures.append(f"+8% durable p99 inside budget flagged: {regs}")
    regs, _ = compare(base, dur, 0.50)
    if any("p99_durable_commit_latency" in r for r in regs):
        failures.append("one-sided p99_durable_commit_latency compared")

    # 9. Ticks moved between non_tx and stall_l1 (hits charged as
    # execution, or the reverse) must be detected beyond the 5%
    # budget in either direction of the move.
    prof = copy.deepcopy(base)
    prof["benches"]["bench_table1"][0].update(
        {"prof_non_tx": 100000, "prof_stall_l1": 100000})
    moved = copy.deepcopy(prof)
    moved["benches"]["bench_table1"][0].update(
        {"prof_non_tx": 190000, "prof_stall_l1": 10000})
    regs, _ = compare(prof, moved, 0.50)
    if not any("prof_non_tx" in r for r in regs):
        failures.append("hits charged to non_tx not detected")
    regs, _ = compare(moved, prof, 0.50)
    if not any("prof_stall_l1" in r for r in regs):
        failures.append("execution charged to stall_l1 not detected")
    near_prof = copy.deepcopy(prof)
    near_prof["benches"]["bench_table1"][0].update(
        {"prof_non_tx": 104000, "prof_stall_l1": 96000})
    regs, _ = compare(prof, near_prof, 0.50)
    if regs:
        failures.append(f"+4% prof_non_tx inside budget flagged: {regs}")

    # 10. A vanished row must be a regression.
    gone = copy.deepcopy(base)
    gone["benches"]["bench_table1"].pop(0)
    regs, _ = compare(base, gone, 0.10)
    if not any("row gone" in r for r in regs):
        failures.append("missing row not detected")

    for f in failures:
        print(f"self-test FAIL: {f}", file=sys.stderr)
    print("self-test: " + ("ok" if not failures else
                           f"{len(failures)} failure(s)"))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(
        description="Diff two ptm-benchsuite-v1 baselines.")
    ap.add_argument("old", nargs="?", help="baseline (old) suite JSON")
    ap.add_argument("new", nargs="?", help="candidate (new) suite JSON")
    ap.add_argument("--report-threshold", type=float, default=10.0,
                    metavar="PCT",
                    help="report (not fail) other metric drifts beyond "
                         "this percentage (default 10)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the threshold logic on crafted pairs")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.old or not args.new:
        ap.error("OLD and NEW baseline files are required")

    old, errors = read_file(args.old, read_benchsuite, args.old)
    new, errs = read_file(args.new, read_benchsuite, args.new)
    for e in errors + errs:
        print(f"error: {e}", file=sys.stderr)
    if errors or errs:
        return 2

    if old.get("smoke") != new.get("smoke"):
        print("error: comparing a smoke baseline against a full-scale "
              "one is meaningless", file=sys.stderr)
        return 2

    regressions, notes = compare(old, new,
                                 args.report_threshold / 100.0)
    for n in notes:
        print(f"note: {n}")
    for r in regressions:
        print(f"REGRESSION: {r}")
    print(f"{args.old} ({old.get('label')}) -> {args.new} "
          f"({new.get('label')}): {len(regressions)} regression(s), "
          f"{len(notes)} note(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
