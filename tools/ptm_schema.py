#!/usr/bin/env python3
"""The simulator's machine-readable output formats, declared once.

Every ptm-* format a tool in this directory reads is defined here:
its vocabularies (each mirrors the C++ enum that prints it), one field
table per record kind, and one reader per format. A reader takes the
raw text, checks the schema tag and the structure, and returns
``(data, errors)``; an empty error list means the input is well
formed. Checkers add only the runs they make and the invariants of
their format; analyzers refuse input a reader rejects.

  format              written by                     reader
  ptm-stats-v1        ptm_sim --stats-json           read_stats
  ptm-trace-v1        --trace (jsonl)                read_trace
  Chrome trace        --trace-format chrome          read_chrome_trace
  ptm-timeseries-v1   --timeseries                   read_timeseries
  ptm-postmortem-v1   --postmortem                   read_postmortem
  ptm-bench-v1        bench_* --json                 read_bench
  ptm-benchsuite-v1   bench_runner.py                read_benchsuite

A new event, bucket or field name is added in its C++ enum and in
this file, nowhere else.

Usage:
    ptm_schema.py --self-test
"""

import copy
import json
import os
import re
import subprocess
import sys

NUM = (int, float)
SCALAR = (str, int, float, bool)

# --- Vocabularies -----------------------------------------------------

# --system names (SystemKind).
SYSTEMS = ("serial", "locks", "copy-ptm", "sel-ptm", "vtm", "vc-vtm")

# TraceEventType names that reach the trace ring (traceEventName);
# observer-only records such as tx_wasted never do.
TRACE_EVENTS = frozenset({
    "tx_begin", "tx_restart", "tx_commit", "tx_abort", "conflict_edge",
    "spt_hit", "spt_miss", "spt_evict", "tav_hit", "tav_miss",
    "tav_evict", "walk_start", "walk_end", "shadow_alloc",
    "shadow_free", "sel_flip", "page_fault", "swap_out", "swap_in",
    "overflow_spill", "line_evict", "writeback", "ctx_switch",
    "watchpoint", "chaos_inject", "watchdog_trip", "starvation_grant",
    "wal_append", "wal_flush", "crash_cut",
})

# TraceCat names that reach the trace ring.
TRACE_CATEGORIES = frozenset({
    "tx", "conflict", "meta", "page", "cache", "os", "watch", "chaos",
    "persist",
})

# AbortReason in enum order: a tx_abort event's "a" field indexes it.
# The same names key the tx.aborts_<cause> counters, the heatmap's
# abort sections and post-mortem node causes.
ABORT_CAUSES = ("conflict", "nontx", "multiwriter", "explicit")

# PostmortemTrigger kinds.
TRIGGER_KINDS = frozenset({
    "watchdog", "starvation-grant", "audit-violation", "chaos-inject",
    "abort-threshold",
})

# A post-mortem node is an abort, or the chain's terminal winner.
NODE_CAUSES = frozenset(ABORT_CAUSES) | {"terminal"}

# CycleProfiler buckets (per-core ticks) and supervisor charges.
PROF_BUCKETS = frozenset({
    "idle", "non_tx", "tx_useful", "tx_wasted", "stall_l1", "stall_l2",
    "stall_mem", "stall_xlat", "fault_swap", "tx_begin", "tx_commit",
    "tx_abort", "tx_persist", "ctx_switch", "barrier",
})
PROF_CHARGES = frozenset({
    "meta_lookup", "tav_lookup", "commit_cleanup", "abort_cleanup",
    "overflow_spill", "false_stall", "page_fault", "swap_io",
    "committed_tx_ticks", "aborted_tx_ticks", "log_flush",
})

# Chrome trace-event phases the exporter writes.
CHROME_PHASES = frozenset({"B", "E", "i", "s", "f", "C", "M"})

# Stat groups every ptm-stats-v1 document carries, and per system the
# group of its transactional-memory supervisor.
STAT_GROUPS = ("sys", "tx", "mem", "os", "core0", "events", "flightrec")
SUPERVISOR_GROUPS = {"serial": (), "locks": (), "copy-ptm": ("vts",),
                     "sel-ptm": ("vts",), "vtm": ("vtm",),
                     "vc-vtm": ("vtm",)}

# Manifest fields that measure the host, not the simulation: the only
# ones two runs of one configuration may disagree on.
HOST_MANIFEST_FIELDS = ("wall_seconds", "git", "events_per_sec",
                        "sim_events_per_sec", "sim_ticks_per_wall_sec")
# The time-series interval fields that measure the host.
HOST_INTERVAL_FIELDS = ("wall_seconds", "events_per_sec",
                        "ticks_per_wall_sec")

# --- Field tables -------------------------------------------------------
#
# {field: want}, where want is a type or tuple of types, a frozenset
# (the value must be one of its names), a nested table, a one-element
# list [want] (a list whose items each match want), or Opt(want) (the
# field may be absent).


class Opt:
    """A field that may be absent."""

    def __init__(self, want):
        self.want = want


KILLER = {"tx": int, "kills": int, "wasted_ticks": int}
FORENSICS = {
    "depth": int, "generations": int, "live_records": int,
    "retired_records": int, "dropped_records": int,
    "wasted_ticks_total": int, "dropped_wasted_ticks": int,
    "max_wasted_ticks": int, "max_wasted_tx": int, "deepest_chain": int,
    "postmortems": int, "dropped_reports": int, "armed": bool,
    "top_killers": [KILLER],
}
PROFILE = {
    "elapsed_ticks": int, "cores": [{"total": int, "ticks": dict}],
    "supervisor": dict, "host": Opt({
        "sample_interval": int, "sites": [{
            "name": str, "events": int, "sampled": int,
            "sampled_ns": int, "estimated_ns": int}]}),
}
# A space-saving top-k entry; its err never exceeds its count.
HOT_PAGE = {"page": int, "count": int, "err": int}
HOT_SECTION = {"total": int, "pages": [HOT_PAGE]}
HOT_COUNTERS = ("spt_misses", "tav_misses", "shadow_allocs")
HOT_PAGES = {
    "k": int,
    "conflicts": dict(HOT_SECTION, blocks=[
        {"block": int, "count": int, "err": int}]),
    "aborts": {c: HOT_SECTION for c in ABORT_CAUSES},
    **{s: HOT_SECTION for s in HOT_COUNTERS},
}
STATS = {
    "manifest": {
        "tool": str, "workload": str, "system": str, "granularity": str,
        "seed": NUM, "threads": NUM, "scale": NUM,
        "workload_options": dict, "cycles": NUM, "verified": bool,
        "wall_seconds": NUM, "events_per_sec": NUM,
        "sim_events_per_sec": NUM, "sim_ticks_per_wall_sec": NUM,
        "git": str, "params": dict},
    "groups": dict,
    "profile": Opt(PROFILE),
    "hot_pages": Opt(HOT_PAGES),
    "forensics": Opt(FORENSICS),
}
# One table per stat kind ("kind" selects it).
STAT_KINDS = {
    "counter": {"value": int},
    "scalar": {"value": NUM},
    "average": {"mean": NUM, "samples": NUM},
    "time_weighted": {"mean": NUM},
    "distribution": {
        "samples": NUM, "sum": NUM, "mean": NUM, "min": NUM, "max": NUM,
        "p50": NUM, "p95": NUM, "p99": NUM, "bucket_lo": NUM,
        "bucket_width": NUM, "underflow": NUM, "overflow": NUM,
        "counts": [int],
    },
}

TRACE_HEADER = {"git": str, "captures": int}
TRACE_CAPTURE = {"label": str, "recorded": int, "dropped": int}
TRACE_EVENT = {
    "type": str, "t": int, "ev": TRACE_EVENTS, "cat": TRACE_CATEGORIES,
    **{f: Opt(int) for f in ("core", "th", "tx", "tx2", "a", "b", "c")},
    "v": Opt(NUM),
}
# The only events that may carry "c" (proc / attempt begin).
C_FIELD_EVENTS = frozenset({"tx_begin", "tx_commit", "tx_abort"})

TS_HEADER = {"system": str, "seed": NUM, "cores": NUM, "interval": NUM}
TS_INTERVAL = {
    "n": int, "t0": int, "t1": int, "final": bool, "wall_seconds": NUM,
    "events": int, "events_per_sec": NUM, "ticks_per_wall_sec": NUM,
    "events_per_tick": NUM, "d": dict, "dist": dict,
    "hot_pages": Opt([HOT_PAGE]),
}

POSTMORTEM = {
    "trigger": {"kind": TRIGGER_KINDS, "tick": int, "tx": int,
                "detail": str},
    "repro": str, "generations": int, "chain_depth": int,
    "nodes": [{"id": int, "tx": int, "tick": int, "attempt": int,
               "cause": NODE_CAUSES, "where": int, "page": int,
               "winner": int, "generation": int}],
    "edges": [{"from": int, "to": int}],
    "records": [{
        "tx": int, "thread": int, "proc": int, "first_begin": int,
        "last_begin": int, "end_tick": int, "committed": bool,
        "attempts": int, "aborts": int, "kills": int, "spt_misses": int,
        "tav_misses": int, "shadow_allocs": int, "wasted_ticks": int,
        "lost_ticks": int, "recent_aborts": list}],
    "flightrec": {"depth": int, "live": int, "retired": int,
                  "dropped_records": int, "dropped_wasted_ticks": int},
}

# Bench rows are flat objects of scalars; their fields vary by bench.
BENCH_ROWS = [dict]
BENCH = {"bench": str, "git": str, "rows": BENCH_ROWS}
BENCHSUITE = {"label": str, "git": str, "smoke": bool, "benches": dict}

# --- Validators ---------------------------------------------------------


def check_fields(obj, spec, where):
    """Check obj against a field table; returns a list of errors."""
    if not isinstance(obj, dict):
        return [f"{where}: not an object"]
    errors = []
    for name, want in spec.items():
        optional = isinstance(want, Opt)
        if name in obj:
            errors += _check_value(obj[name], want.want if optional
                                   else want, where, name)
        elif not optional:
            errors.append(f"{where}: missing {name!r}")
    return errors


def _check_value(v, want, where, name):
    if isinstance(want, dict):
        return check_fields(v, want, f"{where} {name}")
    if isinstance(want, list):
        if not isinstance(v, list):
            return [f"{where}: {name} has type {type(v).__name__}"]
        return [e for i, x in enumerate(v)
                for e in _check_value(x, want[0], where, f"{name}[{i}]")]
    if isinstance(want, frozenset):
        return [] if isinstance(v, str) and v in want else \
            [f"{where}: unknown {name} {v!r}"]
    return [] if isinstance(v, want) else \
        [f"{where}: {name} has type {type(v).__name__}"]


def check_tag(doc, tag, where):
    got = doc.get("schema") if isinstance(doc, dict) else None
    if got == tag:
        return []
    return [f"{where}: bad schema tag {got!r} (expected {tag!r})"]


def check_names(counts, vocab, what, where):
    """A {name: int} map whose names must all come from vocab."""
    unknown = sorted(set(counts) - vocab)
    errors = [f"{where}: unknown {what} {unknown}"] if unknown else []
    if not all(isinstance(v, int) for v in counts.values()):
        errors.append(f"{where}: {what} values not all int")
    return errors


def check_hot_entries(entries, where):
    """Space-saving bounds: an entry's err never exceeds its count."""
    return [f"{where}[{i}]: err {e['err']} > count {e['count']}"
            for i, e in enumerate(entries) if e["err"] > e["count"]]


def hot_sections(hot):
    """(name, section) for every page list of a hot_pages section."""
    return [("conflicts", hot["conflicts"])] + \
        [(f"aborts.{c}", hot["aborts"][c]) for c in ABORT_CAUSES] + \
        [(s, hot[s]) for s in HOT_COUNTERS]


def check_rows(rows, where):
    """Bench rows: a non-empty list of flat objects of scalars."""
    if not rows:
        return [f"{where}: no rows"]
    return [f"{where}: row {i} is not a flat object"
            for i, row in enumerate(rows)
            if not all(isinstance(v, SCALAR) for v in row.values())]


# --- Readers ------------------------------------------------------------


def _load(text, tag, where):
    """Parse one JSON object carrying schema tag (None: no tag)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        return None, [f"{where}: invalid JSON: {e}"]
    if not isinstance(doc, dict):
        return None, [f"{where}: not a JSON object"]
    errors = check_tag(doc, tag, where) if tag else []
    return (None if errors else doc), errors


def _jsonl(lines, where, first):
    """Parse JSON lines numbered from first: ([(where, obj)], errors)."""
    recs, errors = [], []
    for n, line in enumerate(lines, first):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            errors.append(f"{where}:{n}: invalid JSON: {e}")
            continue
        if isinstance(obj, dict):
            recs.append((f"{where}:{n}", obj))
        else:
            errors.append(f"{where}:{n}: not a JSON object")
    return recs, errors


def read_stats(text, where="stats"):
    """ptm-stats-v1: manifest, stat groups and the optional profile,
    hot_pages and forensics sections."""
    doc, errors = _load(text, "ptm-stats-v1", where)
    if doc is None:
        return None, errors
    errors = check_fields(doc, STATS, where)
    if errors:
        return doc, errors
    for gname, group in doc["groups"].items():
        if not isinstance(group, dict):
            errors.append(f"{where} {gname}: group not an object")
            continue
        for sname, stat in group.items():
            w = f"{where} {gname}.{sname}"
            kind = stat.get("kind") if isinstance(stat, dict) else None
            if kind not in STAT_KINDS:
                errors.append(f"{w}: unknown kind {kind!r}")
            else:
                errors += check_fields(stat, STAT_KINDS[kind], w)
    prof = doc.get("profile")
    if prof is not None:
        w = f"{where} profile"
        if prof["elapsed_ticks"] <= 0:
            errors.append(f"{w}: bad elapsed_ticks {prof['elapsed_ticks']}")
        for i, core in enumerate(prof["cores"]):
            errors += check_names(core["ticks"], PROF_BUCKETS, "buckets",
                                  f"{w} core {i}")
        errors += check_names(prof["supervisor"], PROF_CHARGES,
                              "charges", f"{w} supervisor")
        if "host" in prof and prof["host"]["sample_interval"] < 1:
            errors.append(f"{w} host: bad sample_interval")
    hot = doc.get("hot_pages")
    if hot is not None:
        w = f"{where} hot_pages"
        if hot["k"] < 1:
            errors.append(f"{w}: bad k {hot['k']}")
        for name, sec in hot_sections(hot):
            for key in ("pages", "blocks"):
                errors += check_hot_entries(sec.get(key, []),
                                            f"{w} {name}.{key}")
    return doc, errors


def read_trace(text, where="trace"):
    """ptm-trace-v1 JSONL: a header line, then per capture one capture
    line and its events. Returns {"header", "captures"}, each capture
    its capture line plus an "events" list."""
    recs, errors = _jsonl(text.splitlines(), where, 1)
    header = recs.pop(0)[1] if recs else None
    tag = check_tag(header, "ptm-trace-v1", where)
    if tag:
        return None, tag + errors[:1]
    errors += check_fields(header, TRACE_HEADER, where)
    captures = []
    for w, obj in recs:
        ty = obj.get("type")
        if ty == "capture":
            errors += check_fields(obj, TRACE_CAPTURE, w)
            captures.append(dict(obj, events=[]))
        elif ty == "ev":
            errs = check_fields(obj, TRACE_EVENT, w)
            extra = set(obj) - set(TRACE_EVENT)
            if "c" in obj and obj.get("ev") not in C_FIELD_EVENTS:
                extra.add("c")
            if extra:
                errs.append(f"{w}: unexpected fields {sorted(extra)}")
            if isinstance(obj.get("t"), int) and obj["t"] < 0:
                errs.append(f"{w}: negative tick {obj['t']}")
            if not captures:
                errs.append(f"{w}: event before any capture line")
            elif not errs:
                captures[-1]["events"].append(obj)
            errors += errs
        else:
            errors.append(f"{w}: unknown line type {ty!r}")
    if len(captures) != header.get("captures"):
        errors.append(f"{where}: header says {header.get('captures')} "
                      f"captures, found {len(captures)}")
    for cap in captures:
        if isinstance(cap.get("recorded"), int) and \
                len(cap["events"]) > cap["recorded"]:
            errors.append(f"{where}: capture {cap.get('label')!r} has "
                          f"{len(cap['events'])} events, more than its "
                          f"recorded={cap['recorded']}")
    return {"header": header, "captures": captures}, errors


def read_chrome_trace(text, where="trace"):
    """The Chrome trace-event export: a {"traceEvents": [...]} object."""
    doc, errors = _load(text, None, where)
    if doc is None:
        return None, errors
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return None, [f"{where}: no traceEvents array"]
    for i, e in enumerate(events):
        w = f"{where} event {i}"
        errs = check_fields(e, {"ph": CHROME_PHASES}, w)
        if not errs:
            ph = e["ph"]
            if ph != "M" and not isinstance(e.get("ts"), NUM):
                errs.append(f"{w}: bad ts {e.get('ts')!r}")
            if ph == "B" and not str(e.get("name")).startswith("tx "):
                errs.append(f"{w}: slice has odd name {e.get('name')!r}")
            if ph == "f" and e.get("bp") != "e":
                errs.append(f"{w}: flow finish missing bp=e")
        errors += errs
    return doc, errors


def read_timeseries(text, where="timeseries"):
    """ptm-timeseries-v1 JSONL: per run one header record, then its
    interval records (dense n, contiguous [t0, t1) spans, positive
    counter deltas, final=true on the last only). One file may hold
    several runs. Returns [(header, [intervals])]."""
    recs, errors = _jsonl(text.splitlines(), where, 1)
    runs = []
    for w, rec in recs:
        kind = rec.get("type")
        if kind == "header":
            errors += check_tag(rec, "ptm-timeseries-v1", w)
            errors += check_fields(rec, TS_HEADER, w)
            runs.append((rec, []))
        elif kind == "interval":
            errs = check_fields(rec, TS_INTERVAL, w) or check_hot_entries(
                rec.get("hot_pages", []), f"{w} hot_pages")
            if not runs:
                errs.append(f"{w}: interval before header")
            elif not errs:
                runs[-1][1].append(rec)
            errors += errs
        else:
            errors.append(f"{w}: unknown record type {kind!r}")
    if not runs:
        errors.append(f"{where}: no ptm-timeseries-v1 header record")
    for r, (_, intervals) in enumerate(runs):
        errors += _check_intervals(intervals, f"{where} run {r}")
    return runs, errors


def _check_intervals(intervals, where):
    if not intervals:
        return [f"{where}: no interval records"]
    errors = []
    prev_t1 = None
    for k, iv in enumerate(intervals):
        w = f"{where} interval {k}"
        t0, t1 = iv["t0"], iv["t1"]
        if iv["n"] != k:
            errors.append(f"{w}: n={iv['n']} not dense")
        if t1 < t0:
            errors.append(f"{w}: t1 {t1} < t0 {t0}")
        if prev_t1 is not None and t0 != prev_t1:
            errors.append(f"{w}: t0 {t0} != previous t1 {prev_t1} "
                          "(gap or overlap in tick coverage)")
        prev_t1 = t1
        if iv["final"] != (k == len(intervals) - 1):
            errors.append(f"{w}: final={iv['final']} (must be true on "
                          "the last record only)")
        for path, delta in iv["d"].items():
            if not isinstance(delta, int) or delta <= 0:
                errors.append(f"{w}: d[{path!r}]={delta!r} (deltas are "
                              "positive integers; zero deltas are "
                              "omitted)")
    return errors


_SPACE = re.compile(r"\s*")


def read_postmortem(text, where="postmortem"):
    """ptm-postmortem-v1: concatenated JSON documents, one per capture.
    Returns the list of documents."""
    docs, errors = [], []
    dec = json.JSONDecoder()
    i = _SPACE.match(text).end()
    while i < len(text):
        try:
            doc, i = dec.raw_decode(text, i)
        except json.JSONDecodeError as e:
            errors.append(f"{where}: invalid JSON: {e}")
            break
        w = f"{where} doc {len(docs)}"
        errs = check_tag(doc, "ptm-postmortem-v1", w)
        errors += errs or check_fields(doc, POSTMORTEM, w) or \
            _check_graph(doc, w)
        docs.append(doc)
        i = _SPACE.match(text, i).end()
    if not docs and not errors:
        errors.append(f"{where}: no ptm-postmortem-v1 documents")
    return docs, errors


def _check_graph(doc, where):
    """Dense node ids and edges between existing nodes."""
    nodes = doc["nodes"]
    errors = [] if nodes else [f"{where}: no nodes"]
    errors += [f"{where} node {k}: id {n['id']} not dense"
               for k, n in enumerate(nodes) if n["id"] != k]
    errors += [f"{where} edge {k}: dangling endpoint {e['from']} -> "
               f"{e['to']}" for k, e in enumerate(doc["edges"])
               if not (0 <= e["from"] < len(nodes)
                       and 0 <= e["to"] < len(nodes))]
    return errors


def read_bench(text, where="bench"):
    """ptm-bench-v1: one bench binary's result rows."""
    doc, errors = _load(text, "ptm-bench-v1", where)
    if doc is None:
        return None, errors
    errors = check_fields(doc, BENCH, where)
    return doc, errors or check_rows(doc["rows"], where)


def read_benchsuite(text, where="benchsuite"):
    """ptm-benchsuite-v1: bench_runner.py's merged baseline."""
    doc, errors = _load(text, "ptm-benchsuite-v1", where)
    if doc is None:
        return None, errors
    errors = check_fields(doc, BENCHSUITE, where)
    for bench, rows in doc.get("benches", {}).items() if not errors \
            else ():
        errors += _check_value(rows, BENCH_ROWS, where, bench) or \
            check_rows(rows, f"{where} {bench}")
    return doc, errors


def read_file(path, reader, where=None):
    """Read path with one of the readers above."""
    where = where or os.path.basename(path)
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        return None, [f"{where}: {e}"]
    return reader(text, where)


def run_json(cmd, reader, where, out=None):
    """Run cmd, require exit 0 and read its output with reader.

    The output is cmd's stdout, or the file out when given.
    """
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        return None, [f"{where}: {os.path.basename(cmd[0])} exited "
                      f"{proc.returncode}: {proc.stderr.strip()[-500:]}"]
    if out is not None:
        return read_file(out, reader, where)
    return reader(proc.stdout, where)


# --- Self-test ------------------------------------------------------------


def _hot(total, entries):
    return {"total": total, "pages": entries}


# One valid document per format, the base of every mutation below and
# of the checkers' own self-tests. JSONL formats are lists of records.
SAMPLES = {
    "stats": {
        "schema": "ptm-stats-v1",
        "manifest": {
            "tool": "ptm_sim", "workload": "fft", "system": "Sel-PTM",
            "granularity": "blk-only", "seed": 1, "threads": 2,
            "scale": 0, "workload_options": {}, "cycles": 100,
            "verified": True, "wall_seconds": 0.5, "events_per_sec": 2.0,
            "sim_events_per_sec": 2.0, "sim_ticks_per_wall_sec": 200.0,
            "git": "v1", "params": {}},
        "groups": {
            **{g: {"n": {"kind": "counter", "value": 1}} for g in (
                "mem", "os", "core0", "events", "vts")},
            "flightrec": {"dropped_records": {"kind": "counter",
                                              "value": 0}},
            "sys": {"cycles": {"kind": "scalar", "value": 100}},
            "tx": {
                "aborts_conflict": {"kind": "counter", "value": 2},
                "avg": {"kind": "average", "mean": 1.5, "samples": 2},
                "live": {"kind": "time_weighted", "mean": 0.5},
                "lat": {"kind": "distribution", "samples": 2, "sum": 9,
                        "mean": 4.5, "min": 4, "max": 5, "p50": 4,
                        "p95": 5, "p99": 5, "bucket_lo": 0,
                        "bucket_width": 8, "underflow": 0,
                        "overflow": 0, "counts": [2, 0]}}},
        "profile": {
            "elapsed_ticks": 100,
            "cores": [{"total": 100, "ticks": {"idle": 40, "non_tx": 60}}],
            "supervisor": {"meta_lookup": 3},
            "host": {"sample_interval": 32, "sites": [
                {"name": "cpu", "events": 9, "sampled": 1,
                 "sampled_ns": 10, "estimated_ns": 320}]}},
        "hot_pages": {
            "k": 4,
            "conflicts": {"total": 3, "pages": [
                {"page": 1, "count": 2, "err": 0},
                {"page": 2, "count": 1, "err": 0}],
                "blocks": [{"block": 64, "count": 3, "err": 0}]},
            "aborts": {c: _hot(2, [{"page": 1, "count": 2, "err": 0}])
                       if c == "conflict" else _hot(0, [])
                       for c in ABORT_CAUSES},
            **{s: _hot(0, []) for s in HOT_COUNTERS}},
        "forensics": {
            **{f: 0 for f, t in FORENSICS.items() if t is int},
            "depth": 256, "max_wasted_tx": -1, "armed": False,
            "top_killers": [{"tx": 3, "kills": 2, "wasted_ticks": 0},
                            {"tx": 1, "kills": 1, "wasted_ticks": 7}]},
    },
    "trace": [
        {"schema": "ptm-trace-v1", "git": "v1", "captures": 1},
        {"type": "capture", "label": "fft/Sel-PTM", "recorded": 3,
         "dropped": 0},
        {"type": "ev", "t": 5, "ev": "tx_begin", "cat": "tx", "core": 0,
         "tx": 1, "c": 0},
        {"type": "ev", "t": 7, "ev": "conflict_edge", "cat": "conflict",
         "core": 1, "tx": 1, "tx2": 2, "a": 4096},
        {"type": "ev", "t": 9, "ev": "tx_commit", "cat": "tx", "core": 0,
         "tx": 1, "v": 1.5},
    ],
    "chrome": {"traceEvents": [
        {"ph": "M", "name": "process_name", "pid": 1, "tid": 0},
        {"ph": "B", "name": "tx 1", "ts": 5, "pid": 1, "tid": 0},
        {"ph": "s", "name": "conflict", "ts": 6, "pid": 1, "tid": 1,
         "id": 1},
        {"ph": "f", "name": "conflict", "ts": 6, "pid": 1, "tid": 0,
         "id": 1, "bp": "e"},
        {"ph": "C", "name": "tx.commits", "ts": 8, "pid": 1},
        {"ph": "E", "ts": 9, "pid": 1, "tid": 0},
    ]},
    "timeseries": [
        {"schema": "ptm-timeseries-v1", "type": "header",
         "system": "sel-ptm", "seed": 1, "cores": 4, "interval": 100},
        *({"type": "interval", "n": n, "t0": 100 * n,
           "t1": 100 * (n + 1), "final": n == 1, "wall_seconds": 0.001,
           "events": 10, "events_per_sec": 1e4,
           "ticks_per_wall_sec": 1e5, "events_per_tick": 0.1,
           "d": {"tx.commits": 5}, "dist": {},
           "hot_pages": [{"page": 3, "count": 2, "err": 1}]}
          for n in (0, 1)),
    ],
    "postmortem": [{
        "schema": "ptm-postmortem-v1",
        "trigger": {"kind": "watchdog", "tick": 100, "tx": 1,
                    "detail": "test"},
        "repro": "--seed 1", "generations": 8, "chain_depth": 1,
        "nodes": [
            {"id": 0, "tx": 1, "tick": 90, "attempt": 1,
             "cause": "conflict", "where": 4096, "page": 1, "winner": 2,
             "generation": 0},
            {"id": 1, "tx": 2, "tick": 80, "attempt": 1,
             "cause": "conflict", "where": 4096, "page": 1, "winner": -1,
             "generation": 1}],
        "edges": [{"from": 0, "to": 1}],
        "records": [
            {"tx": tx, "thread": 0, "proc": 0, "first_begin": 1,
             "last_begin": 1, "end_tick": 0, "committed": False,
             "attempts": 2, "aborts": 1, "kills": 0, "spt_misses": 0,
             "tav_misses": 0, "shadow_allocs": 0, "wasted_ticks": 0,
             "lost_ticks": 5, "recent_aborts": []} for tx in (1, 2)],
        "flightrec": {"depth": 256, "live": 2, "retired": 0,
                      "dropped_records": 0, "dropped_wasted_ticks": 0},
    }],
    "bench": {"schema": "ptm-bench-v1", "bench": "bench_fig4",
              "git": "v1", "rows": [{"app": "fft", "system": "sel-ptm",
                                     "cycles": 100, "verified": True}]},
    "benchsuite": {"schema": "ptm-benchsuite-v1", "label": "seed",
                   "git": "v1", "smoke": True, "benches": {
                       "bench_fig4": [{"app": "fft", "cycles": 100}]}},
}


def _lines(records):
    return "\n".join(json.dumps(r) for r in records) + "\n"


# format -> (reader, serializer of its sample)
FORMATS = {
    "stats": (read_stats, json.dumps),
    "trace": (read_trace, _lines),
    "chrome": (read_chrome_trace, json.dumps),
    "timeseries": (read_timeseries, _lines),
    "postmortem": (read_postmortem,
                   lambda docs: "\n".join(json.dumps(d, indent=1)
                                          for d in docs)),
    "bench": (read_bench, json.dumps),
    "benchsuite": (read_benchsuite, json.dumps),
}

DELETE = object()


def mutate(doc, path, value):
    """A copy of doc with the field at path set to value (or deleted)."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def rejections(check, base, cases):
    """Failures among cases: (path, value, want) mutations of base
    that check(doc) -> errors does not reject with an error naming
    want. The unmutated base must pass."""
    failures = []
    errs = check(base)
    if errs:
        failures.append(f"valid sample flagged: {errs}")
    for path, value, want in cases:
        errs = check(mutate(base, path, value))
        if not any(want in e for e in errs):
            failures.append(f"{path} = {value!r} not rejected with "
                            f"{want!r}: {errs}")
    return failures


def report(failures):
    for f in failures:
        print(f"self-test FAIL: {f}", file=sys.stderr)
    print("self-test: " + ("ok" if not failures else
                           f"{len(failures)} failure(s)"))
    return 1 if failures else 0


# format -> one (path, value, want) mutation per declared rule.
MUTATIONS = {
    "stats": [
        (["schema"], "ptm-stats-v0", "expected 'ptm-stats-v1'"),
        (["groups"], [], "groups has type list"),
        (["manifest", "cycles"], DELETE, "missing 'cycles'"),
        (["manifest", "verified"], "yes", "verified has type str"),
        (["groups", "tx", "avg", "kind"], "gauge", "unknown kind"),
        (["groups", "tx", "lat", "p95"], DELETE, "missing 'p95'"),
        (["groups", "tx", "lat", "counts"], [1.5], "counts[0] has type"),
        (["groups", "sys"], 7, "group not an object"),
        (["profile", "cores", 0, "ticks", "bogus"], 1,
         "unknown buckets"),
        (["profile", "supervisor", "bogus"], 1, "unknown charges"),
        (["profile", "elapsed_ticks"], 0, "bad elapsed_ticks"),
        (["profile", "host", "sites", 0, "sampled_ns"], DELETE,
         "missing 'sampled_ns'"),
        (["profile", "host", "sample_interval"], 0,
         "bad sample_interval"),
        (["hot_pages", "k"], 0, "bad k"),
        (["hot_pages", "conflicts", "pages", 0, "err"], 3,
         "err 3 > count 2"),
        (["hot_pages", "conflicts", "blocks"], DELETE,
         "missing 'blocks'"),
        (["hot_pages", "aborts", "nontx"], DELETE, "missing 'nontx'"),
        (["hot_pages", "tav_misses", "pages"], {}, "pages has type"),
        (["forensics", "max_wasted_tx"], DELETE,
         "missing 'max_wasted_tx'"),
        (["forensics", "armed"], DELETE, "missing 'armed'"),
        (["forensics", "top_killers", 0, "kills"], "2",
         "kills has type str"),
    ],
    "trace": [
        ([0, "schema"], "ptm-trace-v2", "expected 'ptm-trace-v1'"),
        ([0, "captures"], 2, "header says 2 captures"),
        ([0, "git"], DELETE, "missing 'git'"),
        ([2], "tx_begin", "not a JSON object"),
        ([1, "recorded"], DELETE, "missing 'recorded'"),
        ([1, "recorded"], 2, "more than its recorded=2"),
        ([1, "type"], "bogus", "unknown line type"),
        ([2, "ev"], "tx_wasted", "unknown ev"),
        ([2, "ev"], "counter_sample", "unknown ev"),
        ([2, "cat"], "observer", "unknown cat"),
        ([2, "t"], -1, "negative tick"),
        ([2, "t"], DELETE, "missing 't'"),
        ([3, "tx2"], "2", "tx2 has type str"),
        ([3, "zz"], 1, "unexpected fields ['zz']"),
        ([3, "c"], 1, "unexpected fields ['c']"),
        ([1], {"type": "ev", "t": 1, "ev": "tx_begin", "cat": "tx"},
         "event before any capture"),
    ],
    "chrome": [
        (["traceEvents"], {}, "no traceEvents array"),
        (["traceEvents", 4, "ph"], "X", "unknown ph"),
        (["traceEvents", 4, "ts"], "8", "bad ts"),
        (["traceEvents", 1, "name"], "gc", "odd name"),
        (["traceEvents", 3, "bp"], DELETE, "missing bp=e"),
    ],
    "timeseries": [
        ([0, "schema"], "bogus", "expected 'ptm-timeseries-v1'"),
        ([0, "type"], "headr", "unknown record type"),
        ([0, "interval"], "100", "interval has type str"),
        ([1, "events_per_sec"], DELETE, "missing 'events_per_sec'"),
        ([1, "final"], 0, "final has type int"),
        ([1, "n"], 5, "not dense"),
        ([2, "t0"], 150, "gap or overlap"),
        ([2, "t1"], 50, "t1 50 < t0 100"),
        ([1, "final"], True, "last record only"),
        ([2, "final"], False, "last record only"),
        ([1, "d", "tx.commits"], 0, "positive integers"),
        ([1, "hot_pages", 0, "err"], 3, "err 3 > count 2"),
        ([0], {"type": "interval"}, "interval before header"),
        ([1], SAMPLES["timeseries"][0], "run 0: no interval records"),
    ],
    "postmortem": [
        ([0, "schema"], "ptm-stats-v1", "expected 'ptm-postmortem-v1'"),
        ([0, "trigger", "kind"], "oops", "unknown kind 'oops'"),
        ([0, "trigger", "detail"], DELETE, "missing 'detail'"),
        ([0, "repro"], None, "repro has type NoneType"),
        ([0, "nodes"], [], "no nodes"),
        ([0, "nodes", 1, "id"], 7, "not dense"),
        ([0, "nodes", 1, "cause"], "timeout", "unknown cause"),
        ([0, "nodes", 0, "page"], DELETE, "missing 'page'"),
        ([0, "edges", 0, "to"], 7, "dangling endpoint"),
        ([0, "records", 1, "recent_aborts"], 0,
         "recent_aborts has type int"),
        ([0, "flightrec", "live"], DELETE, "missing 'live'"),
    ],
    "bench": [
        (["schema"], "ptm-benchsuite-v1", "expected 'ptm-bench-v1'"),
        (["bench"], DELETE, "missing 'bench'"),
        (["rows"], [], "no rows"),
        (["rows", 0, "cycles"], [1], "not a flat object"),
    ],
    "benchsuite": [
        (["schema"], "ptm-bench-v1", "expected 'ptm-benchsuite-v1'"),
        (["smoke"], "yes", "smoke has type str"),
        (["benches", "bench_fig4"], {}, "bench_fig4 has type dict"),
        (["benches", "bench_fig4"], [], "bench_fig4: no rows"),
    ],
}


def self_test():
    failures = []
    for fmt, (reader, dump) in FORMATS.items():
        def check(doc):
            return reader(dump(doc), fmt)[1]
        failures += [f"{fmt}: {f}" for f in
                     rejections(check, SAMPLES[fmt], MUTATIONS[fmt])]
    # Input that is not the format at all.
    for fmt, (reader, _) in FORMATS.items():
        for text in ("", "[]", "{"):
            if not reader(text, fmt)[1]:
                failures.append(f"{fmt}: {text!r} accepted")
    return report(failures)


if __name__ == "__main__":
    if sys.argv[1:] != ["--self-test"]:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(self_test())
