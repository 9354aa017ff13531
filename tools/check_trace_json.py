#!/usr/bin/env python3
"""Validator for the simulator's trace output.

Modes:

  check_trace_json.py validate FILE [--require-slice] [--require-flow]
                                    [--require-counter]
      Validate one trace file. The format is auto-detected: a
      ptm-trace-v1 JSONL stream (one object per line, schema header
      first) or a Chrome trace-event JSON object (a "traceEvents"
      array, as loaded by Perfetto / chrome://tracing). The --require-*
      flags additionally demand at least one transaction duration
      slice, one conflict flow pair, and one counter track sample.

  check_trace_json.py drive PTM_SIM
      Run PTM_SIM on the tiny fft workload for every system kind and
      on a durable (--durability wal) kv run, tracing in both formats,
      and validate each file. Each Chrome run also writes --stats-json:
      every counter track must end at that run's final stat value
      (vts.live_shadow_pages at shadow_allocs - shadow_frees). A JSONL
      run carrying counter_sample events (the retired trace-ring
      counter sampler) fails the reader as an unknown event.

  check_trace_json.py --self-test
      Run the invariant checks against mutations of crafted traces.

ptm_schema's readers check each format's structure; on top this
checks the trace invariants: ticks never go backwards on a core within
a capture, Chrome timestamps are sorted, every E closes an open B on
its track, and flow starts match finishes.

Exits non-zero with a message per failure if any check fails.
"""

import functools
import json
import os
import sys
import tempfile
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ptm_schema import (FORMATS, SAMPLES, SYSTEMS,  # noqa: E402
                        read_chrome_trace, read_file, read_stats,
                        read_trace, rejections, report, run_json)

REQUIRE = {"slice": ("B", "transaction slices"),
           "flow": ("s", "conflict flow events"),
           "counter": ("C", "counter samples")}


def check_jsonl(data, where):
    # The ring is recorded in tick order and snapshotted oldest-first.
    errors = []
    for cap in data["captures"]:
        last = {}
        for e in cap["events"]:
            core = e.get("core", -1)
            if e["t"] < last.get(core, 0):
                errors.append(f"{where}: tick {e['t']} goes backwards "
                              f"on core {core}")
            last[core] = e["t"]
    return errors


def check_chrome(doc, where, require=()):
    errors = []
    events = doc["traceEvents"]
    # Per-(pid, tid) stack depth: the stream is sorted, so every E
    # must close an open B and depth never goes negative.
    depth = Counter()
    last_ts = None
    for i, e in enumerate(events):
        if e["ph"] != "M":
            if last_ts is not None and e["ts"] < last_ts:
                errors.append(f"{where}: event {i} ts {e['ts']} < "
                              f"previous {last_ts}")
            last_ts = e["ts"]
        track = (e.get("pid"), e.get("tid"))
        depth[track] += {"B": 1, "E": -1}.get(e["ph"], 0)
        if depth[track] < 0:
            errors.append(f"{where}: event {i}: E without open B on "
                          f"track {track}")
            depth[track] = 0
    n = Counter(e["ph"] for e in events)
    if n["B"] != n["E"]:
        errors.append(f"{where}: {n['B']} B slices vs {n['E']} E slices")
    errors += [f"{where}: track {t} left {d} slices open"
               for t, d in depth.items() if d]
    if n["s"] != n["f"]:
        errors.append(f"{where}: {n['s']} flow starts vs {n['f']} "
                      "finishes")
    for flag in require:
        ph, what = REQUIRE[flag]
        if not n[ph]:
            errors.append(f"{where}: no {what}")
    return errors


def check_counters(doc, stats, where):
    """Each "C" track's last point equals the run's final stat."""
    last = {e["name"]: e["args"]["value"]
            for e in doc["traceEvents"] if e["ph"] == "C"}
    groups = stats["groups"]

    def total(path):
        group, stat = path.split(".", 1)
        return groups.get(group, {}).get(stat, {}).get("value")

    errors = [] if last else [f"{where}: no counter tracks"]
    for name, value in sorted(last.items()):
        want = total(name)
        if name == "vts.live_shadow_pages":
            net = total("vts.shadow_allocs") - total("vts.shadow_frees")
            if want != net:
                errors.append(f"{where}: {name} is {want}, not "
                              f"shadow_allocs - shadow_frees = {net}")
        if want is None:
            errors.append(f"{where}: track {name} has no stat")
        elif value != want:
            errors.append(f"{where}: {name} ends at {value}, the stat "
                          f"total is {want}")
    return errors


def read_checked(text, where, require=()):
    """Reader-shaped: (document, structure and invariant errors)."""
    if '"traceEvents"' in text.split("\n", 1)[0]:
        doc, errors = read_chrome_trace(text, where)
        return doc, errors or check_chrome(doc, where, require)
    data, errors = read_trace(text, where)
    if require:
        errors.append(f"{where}: --require-* flags apply to chrome "
                      "format only")
    return data, errors or check_jsonl(data, where)


def drive(ptm_sim):
    # (label, extra ptm_sim arguments): fft on every system, plus one
    # durable kv run for the persist-category events.
    runs = [(system, ["--workload", "fft", "--system", system])
            for system in SYSTEMS]
    runs.append(("kv-wal", ["--workload", "kv", "--system", "sel-ptm",
                            "--durability", "wal"]))
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in runs:
            for fmt in ("jsonl", "chrome"):
                out = os.path.join(tmp, f"{name}.{fmt}")
                stats = os.path.join(tmp, f"{name}.stats.json")
                label = f"{name}/{fmt}"
                cmd = [ptm_sim, *args, "--scale", "0", "--threads", "2",
                       "--trace", out, "--trace-format", fmt]
                if fmt == "chrome":
                    cmd += ["--stats-json", stats]
                doc, errs = run_json(cmd, read_checked, label, out=out)
                if fmt == "chrome" and doc is not None:
                    st, serrs = read_file(stats, read_stats, label)
                    errs += serrs or check_counters(doc, st, label)
                print(f"{label:16s} "
                      f"{'ok' if not errs else f'{len(errs)} error(s)'}")
                failures += errs
    return failures


def self_test():
    def jsonl(recs):
        return read_checked(FORMATS["trace"][1](recs), "trace")[1]

    def chrome(doc):
        return read_checked(json.dumps(doc), "chrome", REQUIRE)[1]

    def counters(doc):
        stats = {"groups": {"tx": {"commits": {"value": 3}}, "vts": {
            "shadow_allocs": {"value": 5}, "shadow_frees": {"value": 2},
            "live_shadow_pages": {"value": 3}}}}
        return check_counters(doc, stats, "counters")

    tracks = {"traceEvents": [
        {"ph": "C", "name": name, "ts": ts, "pid": 1,
         "args": {"value": value}}
        for name, ts, value in (("tx.commits", 5, 2),
                                ("tx.commits", 9, 3),
                                ("vts.live_shadow_pages", 9, 3))]}

    return report(rejections(counters, tracks, [
        (["traceEvents", 1, "args", "value"], 2, "tx.commits ends at 2"),
        (["traceEvents", 2, "args", "value"], 4,
         "vts.live_shadow_pages ends at 4"),
        (["traceEvents", 2, "name"], "tx.bogus", "tx.bogus has no stat"),
        (["traceEvents"], [], "no counter tracks"),
    ]) + rejections(jsonl, SAMPLES["trace"], [
        ([4, "t"], 4, "tick 4 goes backwards on core 0"),
    ]) + rejections(chrome, SAMPLES["chrome"], [
        (["traceEvents", 4, "ts"], 1, "ts 1 < previous 6"),
        (["traceEvents", 5, "ph"], "i", "1 B slices vs 0 E"),
        (["traceEvents", 5, "tid"], 7, "E without open B"),
        (["traceEvents", 1, "ph"], "E", "E without open B"),
        (["traceEvents", 3, "ph"], "i", "1 flow starts vs 0"),
        (["traceEvents", 4, "ph"], "i", "no counter samples"),
        (["traceEvents"], [SAMPLES["chrome"]["traceEvents"][0]],
         "no transaction slices"),
        (["traceEvents"], [SAMPLES["chrome"]["traceEvents"][i]
                           for i in (1, 4, 5)], "no conflict flow"),
    ]))


def main():
    args = sys.argv[1:]
    if args == ["--self-test"]:
        return self_test()
    if not args:
        print(__doc__, file=sys.stderr)
        return 2
    mode, args = args[0], args[1:]
    if mode == "drive":
        if len(args) != 1:
            print(__doc__, file=sys.stderr)
            return 2
        failures = drive(args[0])
    elif mode == "validate":
        flags = {a for a in args if a.startswith("--")}
        paths = [a for a in args if not a.startswith("--")]
        if flags - {f"--require-{r}" for r in REQUIRE} or not paths:
            print(__doc__, file=sys.stderr)
            return 2
        failures = []
        reader = functools.partial(
            read_checked, require=[f.split("-")[-1] for f in flags])
        for p in paths:
            _, errs = read_file(p, reader)
            print(f"{os.path.basename(p):16s} "
                  f"{'ok' if not errs else f'{len(errs)} error(s)'}")
            failures += errs
    else:
        print(__doc__, file=sys.stderr)
        return 2
    for e in failures:
        print(f"error: {e}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
