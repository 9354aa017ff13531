#!/usr/bin/env python3
"""Validator for the simulator's trace output.

Two modes:

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
      and validate each file.

Exits non-zero with a message per failure if any check fails.
"""

import json
import os
import subprocess
import sys
import tempfile

SYSTEMS = ["serial", "locks", "copy-ptm", "sel-ptm", "vtm", "vc-vtm"]

EVENT_NAMES = {
    "tx_begin", "tx_restart", "tx_commit", "tx_abort", "conflict_edge",
    "spt_hit", "spt_miss", "spt_evict", "tav_hit", "tav_miss",
    "tav_evict", "walk_start", "walk_end", "shadow_alloc",
    "shadow_free", "sel_flip", "page_fault", "swap_out", "swap_in",
    "overflow_spill", "line_evict", "writeback", "ctx_switch",
    "watchpoint", "counter_sample", "chaos_inject", "watchdog_trip",
    "starvation_grant", "wal_append", "wal_flush", "crash_cut",
}

CATEGORIES = {
    "tx", "conflict", "meta", "page", "cache", "os", "watch", "sample",
    "chaos", "persist",
}

# Optional event-line fields and the JSON types they must carry.
EV_FIELDS = {
    "core": int, "th": int, "tx": int, "tx2": int,
    "a": int, "b": int, "v": (int, float), "c": int,
}

# The only events that may carry the "c" field (proc / attempt begin).
C_FIELD_EVENTS = {"tx_begin", "tx_commit", "tx_abort"}


def check_jsonl(lines, label):
    """Validate a ptm-trace-v1 stream; returns a list of errors."""
    errors = []
    try:
        header = json.loads(lines[0])
    except (json.JSONDecodeError, IndexError) as e:
        return [f"{label}: bad header line: {e}"]
    if header.get("schema") != "ptm-trace-v1":
        errors.append(f"{label}: bad schema tag "
                      f"{header.get('schema')!r}")
    if not isinstance(header.get("git"), str):
        errors.append(f"{label}: header missing git string")
    captures = header.get("captures")
    if not isinstance(captures, int) or captures < 0:
        errors.append(f"{label}: bad captures count {captures!r}")

    seen_captures = 0
    cur_events = 0
    cur_meta = None
    # Ticks must be nondecreasing per (capture, core) — the ring is
    # recorded in tick order and snapshotted oldest-first.
    last_tick = {}
    for n, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            errors.append(f"{label}:{n}: invalid JSON: {e}")
            continue
        ty = obj.get("type")
        if ty == "capture":
            if cur_meta is not None and cur_events > cur_meta:
                errors.append(
                    f"{label}: capture has {cur_events} events, "
                    f"more than its recorded={cur_meta}")
            seen_captures += 1
            cur_events = 0
            last_tick = {}
            if not isinstance(obj.get("label"), str):
                errors.append(f"{label}:{n}: capture missing label")
            for field in ("recorded", "dropped"):
                if not isinstance(obj.get(field), int):
                    errors.append(
                        f"{label}:{n}: capture missing {field!r}")
            series = obj.get("series")
            if not isinstance(series, list) or any(
                    not isinstance(s, str) for s in series):
                errors.append(
                    f"{label}:{n}: capture series not a string list")
            cur_meta = obj.get("recorded", 0)
        elif ty == "ev":
            if seen_captures == 0:
                errors.append(
                    f"{label}:{n}: event before any capture line")
            cur_events += 1
            tick = obj.get("t")
            if not isinstance(tick, int) or tick < 0:
                errors.append(f"{label}:{n}: bad tick {tick!r}")
                continue
            if obj.get("ev") not in EVENT_NAMES:
                errors.append(
                    f"{label}:{n}: unknown event {obj.get('ev')!r}")
            if obj.get("cat") not in CATEGORIES:
                errors.append(
                    f"{label}:{n}: unknown category "
                    f"{obj.get('cat')!r}")
            for field, want in EV_FIELDS.items():
                if field in obj and not isinstance(obj[field], want):
                    errors.append(
                        f"{label}:{n}: field {field!r} has type "
                        f"{type(obj[field]).__name__}")
            core = obj.get("core", -1)
            if tick < last_tick.get(core, 0):
                errors.append(
                    f"{label}:{n}: tick {tick} goes backwards on "
                    f"core {core}")
            last_tick[core] = tick
            extra = set(obj) - {"type", "t", "ev", "cat"} - set(EV_FIELDS)
            if "c" in obj and obj.get("ev") not in C_FIELD_EVENTS:
                extra.add("c")
            if extra:
                errors.append(
                    f"{label}:{n}: unexpected fields {sorted(extra)}")
        else:
            errors.append(f"{label}:{n}: unknown line type {ty!r}")
    if seen_captures != captures:
        errors.append(
            f"{label}: header says {captures} captures, found "
            f"{seen_captures}")
    return errors


def check_chrome(doc, label, require_slice=False, require_flow=False,
                 require_counter=False):
    """Validate a Chrome trace-event object; returns errors."""
    errors = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return [f"{label}: no traceEvents array"]

    begins = ends = flows_s = flows_f = counters = 0
    # Per-(pid, tid) stack depth: every E must close an open B and the
    # stream is sorted, so depth never goes negative.
    depth = {}
    last_ts = None
    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph not in ("B", "E", "i", "s", "f", "C", "M"):
            errors.append(f"{label}: event {i} has bad ph {ph!r}")
            continue
        if ph != "M":
            ts = e.get("ts")
            if not isinstance(ts, (int, float)):
                errors.append(f"{label}: event {i} has bad ts")
                continue
            if last_ts is not None and ts < last_ts:
                errors.append(
                    f"{label}: event {i} ts {ts} < previous {last_ts}")
            last_ts = ts
        track = (e.get("pid"), e.get("tid"))
        if ph == "B":
            begins += 1
            depth[track] = depth.get(track, 0) + 1
            if not e.get("name", "").startswith("tx "):
                errors.append(
                    f"{label}: slice {i} has odd name "
                    f"{e.get('name')!r}")
        elif ph == "E":
            ends += 1
            depth[track] = depth.get(track, 0) - 1
            if depth[track] < 0:
                errors.append(
                    f"{label}: event {i}: E without open B on "
                    f"track {track}")
        elif ph == "s":
            flows_s += 1
        elif ph == "f":
            flows_f += 1
            if e.get("bp") != "e":
                errors.append(
                    f"{label}: flow finish {i} missing bp=e")
        elif ph == "C":
            counters += 1

    if begins != ends:
        errors.append(
            f"{label}: {begins} B slices vs {ends} E slices")
    for track, d in depth.items():
        if d != 0:
            errors.append(
                f"{label}: track {track} left {d} slices open")
    if flows_s != flows_f:
        errors.append(
            f"{label}: {flows_s} flow starts vs {flows_f} finishes")
    if require_slice and begins == 0:
        errors.append(f"{label}: no transaction slices")
    if require_flow and flows_s == 0:
        errors.append(f"{label}: no conflict flow events")
    if require_counter and counters == 0:
        errors.append(f"{label}: no counter samples")
    return errors


def check_file(path, label=None, require_slice=False,
               require_flow=False, require_counter=False):
    label = label or os.path.basename(path)
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        return [f"{label}: {e}"]
    if not text.strip():
        return [f"{label}: empty file"]
    # Chrome output is one JSON object; JSONL's first line is an
    # object too, but the whole file is not.
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict) and "traceEvents" in doc:
        return check_chrome(doc, label, require_slice, require_flow,
                            require_counter)
    errors = check_jsonl(text.splitlines(), label)
    if require_slice or require_flow or require_counter:
        errors.append(
            f"{label}: --require-* flags apply to chrome format only")
    return errors


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
                cmd = [ptm_sim, *args, "--scale", "0", "--threads", "2",
                       "--trace", out, "--trace-format", fmt]
                proc = subprocess.run(cmd, capture_output=True,
                                      text=True)
                label = f"{name}/{fmt}"
                if proc.returncode != 0:
                    failures.append(
                        f"{label}: ptm_sim exited {proc.returncode}: "
                        f"{proc.stderr.strip()}")
                    continue
                errs = check_file(out, label)
                status = "ok" if not errs else f"{len(errs)} error(s)"
                print(f"{label:16s} {status}")
                failures.extend(errs)
    return failures


def main():
    args = sys.argv[1:]
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
        unknown = flags - {"--require-slice", "--require-flow",
                           "--require-counter"}
        if unknown or not paths:
            print(__doc__, file=sys.stderr)
            return 2
        failures = []
        for p in paths:
            errs = check_file(
                p,
                require_slice="--require-slice" in flags,
                require_flow="--require-flow" in flags,
                require_counter="--require-counter" in flags)
            status = "ok" if not errs else f"{len(errs)} error(s)"
            print(f"{os.path.basename(p):16s} {status}")
            failures.extend(errs)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    for e in failures:
        print(f"error: {e}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
