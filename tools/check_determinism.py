#!/usr/bin/env python3
"""Determinism gate: two runs of one configuration must agree exactly.

Runs each configuration twice and diffs every output stream it writes:
the ptm-stats-v1 document, the trace (ptm-trace-v1 JSONL, or the
Chrome export when the configuration asks for it), the
ptm-timeseries-v1 stream and any ptm-postmortem-v1 documents. Each
stream is read through its tools/ptm_schema.py reader. Every simulated
quantity must be bit-identical; only host fields are dropped first:
the manifest's HOST_MANIFEST_FIELDS, the trace's and the Chrome
export's git revision, and the time series' HOST_INTERVAL_FIELDS. Any
other divergence means the simulator's behavior depends on host state
(iteration order, pointer values, allocation reuse) and fails the
gate.

With --against OTHER_PTM_SIM the matrix runs once on each of the two
binaries instead of twice on one: the same gate then says that a
change left every output of the other build untouched.

A configuration whose run fails (non-zero exit, unreadable output) is
reported FAIL with the failure and the remaining configurations still
run; the exit status is non-zero if any configuration failed or
diverged. --self-test checks that against a stub binary that always
exits 1.

Usage:
    check_determinism.py <ptm_sim> [--against <other ptm_sim>]
                         [extra args...]
    check_determinism.py --self-test

With no extra args a default matrix of configurations is exercised.
"""

import contextlib
import io
import os
import stat
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ptm_schema import (HOST_INTERVAL_FIELDS, HOST_MANIFEST_FIELDS,  # noqa: E402
                        read_chrome_trace, read_file, read_postmortem,
                        read_stats, read_timeseries, read_trace, run_json)

DEFAULT_CONFIGS = [
    ["--workload", "fft", "--system", "sel-ptm", "--gran", "wd:cache",
     "--scale", "0", "--swap", "--quantum", "6000"],
    ["--workload", "radix", "--system", "copy-ptm", "--gran", "blk",
     "--scale", "0", "--daemon", "9000"],
    ["--workload", "lu", "--system", "sel-ptm",
     "--gran", "wd:cache+mem", "--scale", "0", "--lazy-migrate",
     "--profile"],
    ["--workload", "water", "--system", "vtm", "--scale", "0",
     "--swap"],
    # Wide machine: the banked interconnect must stay deterministic
    # too. Its trace is the Chrome export.
    ["--workload", "fft", "--system", "sel-ptm", "--scale", "0",
     "--cores", "16", "--mem-banks", "4", "--trace-format", "chrome"],
    # Transactional fast-forward batches, the redo log's capture order
    # and footprint-only commit/abort cleanup.
    ["--workload", "kv", "--system", "sel-ptm", "--scale", "0",
     "--durability", "wal"],
    # Every observer on, with post-mortems: the heatmap's hot_pages in
    # the stats and the time series, the profile, the auditor, and the
    # flight recorder's abort-threshold captures.
    ["--workload", "kv", "--system", "sel-ptm", "--scale", "0",
     "--threads", "4", "--heatmap", "--profile", "--audit",
     "--postmortem-on-abort", "4"],
    # Sixteen word-granularity writers on a skewed key set: lines carry
    # more marks than the two a line holds inline, so the mark lists
    # spill to the heap.
    ["--workload", "kv", "--system", "sel-ptm", "--gran", "wd:cache",
     "--scale", "0", "--cores", "16", "--threads", "16"],
    # The overflow path: flushing tx lines on every daemon context
    # switch spills them to the VTS. Block-granularity lazy migrations
    # with Fill/SpecDeposit/Cwb/Toggle/Evict watchpoint records, ...
    ["--workload", "fft", "--system", "sel-ptm", "--scale", "0",
     "--flush-ctxsw", "--daemon", "3000", "--lazy-migrate",
     "--watch-addr", "4100"],
    # ... per-word migrations and foreign-writer fills, ...
    ["--workload", "lu", "--system", "sel-ptm", "--gran", "wd:cache+mem",
     "--scale", "0", "--flush-ctxsw", "--daemon", "3000",
     "--lazy-migrate"],
    # ... and Copy-PTM backups and abort restores, with Fill/Cwb/
    # Restore watchpoint records, ...
    ["--workload", "radix", "--system", "copy-ptm", "--scale", "0",
     "--flush-ctxsw", "--daemon", "3000", "--watch-addr", "5568"],
    # ... also per word: overflowed readers' and writers' marks on
    # filled lines, fresh backups behind Committing writers and abort
    # restores that skip units another writer holds.
    ["--workload", "kv", "--system", "copy-ptm", "--gran", "wd:cache+mem",
     "--scale", "0", "--flush-ctxsw", "--daemon", "3000"],
    # LRU evictions: ocean at scale 1 overflows VC-VTM's XADC and
    # victim cache, ...
    ["--workload", "ocean", "--system", "vc-vtm", "--scale", "1"],
    # ... and a chaos squeeze shrinks the SPT and TAV caches to 4
    # entries while the overflow path runs.
    ["--workload", "fft", "--system", "sel-ptm", "--scale", "0",
     "--flush-ctxsw", "--daemon", "3000", "--chaos", "--chaos-plan",
     "squeeze", "--chaos-interval", "3000"],
    # One ring for the trace and the flight recorder: a conflict-only
    # trace, and post-mortems built from a ring that overflows.
    ["--workload", "kv", "--system", "sel-ptm", "--scale", "0",
     "--threads", "4", "--trace-categories", "conflict",
     "--trace-buffer-events", "2048", "--postmortem-on-abort", "4"],
]


def scrub_stats(doc):
    for field in HOST_MANIFEST_FIELDS:
        doc["manifest"].pop(field)
    return doc


def scrub_trace(doc):
    doc["header"].pop("git")
    return doc


def scrub_chrome(doc):
    doc["otherData"].pop("git")
    return doc


def scrub_timeseries(runs):
    for _, intervals in runs:
        for iv in intervals:
            for field in HOST_INTERVAL_FIELDS:
                iv.pop(field)
    return runs


class RunFailed(Exception):
    """A run exited non-zero or wrote a stream its reader rejects."""


def run_once(sim, args, tmp, tag):
    """Run one configuration; return {stream: scrubbed data}.

    Raises RunFailed when the run or one of its streams fails.
    """
    chrome = "--trace-format" in args and \
        args[args.index("--trace-format") + 1] == "chrome"
    out = {s: Path(tmp) / f"{tag}.{s}"
           for s in ("stats", "trace", "timeseries", "postmortem")}
    cmd = [sim, *args, "--stats-json", str(out["stats"]),
           "--trace", str(out["trace"]),
           "--timeseries", str(out["timeseries"]),
           "--timeseries-interval", "20000",
           "--postmortem", str(out["postmortem"])]
    where = " ".join(cmd)
    read, scrub = (read_chrome_trace, scrub_chrome) if chrome \
        else (read_trace, scrub_trace)
    streams = {
        "stats": (*run_json(cmd, read_stats, where, out=out["stats"]),
                  scrub_stats),
        "trace": (*read_file(out["trace"], read), scrub),
        "timeseries": (*read_file(out["timeseries"], read_timeseries),
                       scrub_timeseries),
    }
    # Post-mortems exist only where a trigger fired.
    if out["postmortem"].exists():
        streams["postmortem"] = (*read_file(out["postmortem"],
                                            read_postmortem), list)
    result = {}
    for name, (data, errors, scrub) in streams.items():
        if errors:
            raise RunFailed(f"{name}: " + "\n  ".join(errors[:20]))
        result[name] = scrub(data)
    return result


def diff_paths(a, b, prefix=""):
    """Yield human-readable paths where two JSON values differ."""
    if type(a) is not type(b):
        yield f"{prefix}: type {type(a).__name__} vs {type(b).__name__}"
        return
    if isinstance(a, dict):
        for k in sorted(set(a) | set(b)):
            p = f"{prefix}.{k}" if prefix else str(k)
            if k not in a or k not in b:
                yield f"{p}: present in only one run"
            else:
                yield from diff_paths(a[k], b[k], p)
    elif isinstance(a, (list, tuple)):
        if len(a) != len(b):
            yield f"{prefix}: length {len(a)} vs {len(b)}"
            return
        for i, (x, y) in enumerate(zip(a, b)):
            yield from diff_paths(x, y, f"{prefix}[{i}]")
    elif a != b:
        yield f"{prefix}: {a!r} vs {b!r}"


def compare(sim, sim_b, configs):
    """Run each configuration on sim and sim_b and print one verdict per
    configuration. Returns the number of failed runs and diverged
    streams."""
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, cfg in enumerate(configs):
            label = " ".join(cfg)
            try:
                a = run_once(sim, cfg, tmp, f"{i}_a")
                b = run_once(sim_b, cfg, tmp, f"{i}_b")
            except RunFailed as e:
                failures += 1
                print(f"FAIL [{label}] run failed: {e}")
                continue
            bad = 0
            for name in sorted(set(a) | set(b)):
                diffs = list(diff_paths(a[name], b[name])) \
                    if name in a and name in b \
                    else ["written by only one run"]
                if diffs:
                    bad += 1
                    print(f"FAIL [{label}] {name}: {len(diffs)} "
                          "divergent field(s):")
                    for d in diffs[:20]:
                        print(f"  {d}")
            if not bad:
                print(f"OK   [{label}] {', '.join(sorted(a))}")
            failures += bad
    return failures


def self_test():
    """A binary that fails every run must be reported on every
    configuration, not only the first."""
    configs = [["--workload", "fft"], ["--workload", "lu"]]
    with tempfile.TemporaryDirectory() as tmp:
        stub = Path(tmp) / "failing_sim"
        stub.write_text("#!/bin/sh\necho stub failure >&2\nexit 1\n")
        stub.chmod(stub.stat().st_mode | stat.S_IEXEC)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            failures = compare(str(stub), str(stub), configs)
    reports = out.getvalue().split("FAIL [")[1:]
    problems = []
    if failures != len(configs):
        problems.append(f"{failures} failure(s) counted, expected "
                        f"{len(configs)}")
    for cfg in configs:
        head = f"{' '.join(cfg)}] run failed:"
        if not any(r.startswith(head) and "exited 1: stub failure" in r
                   for r in reports):
            problems.append(f"no FAIL report for [{' '.join(cfg)}]")
    for p in problems:
        print(f"self-test FAIL: {p}", file=sys.stderr)
    print("self-test: " + ("ok" if not problems else
                           f"{len(problems)} problem(s)"))
    return 1 if problems else 0


def main():
    argv = sys.argv[1:]
    if argv == ["--self-test"]:
        return self_test()
    other = None
    if "--against" in argv:
        i = argv.index("--against")
        if i + 1 >= len(argv):
            raise SystemExit("--against needs a ptm_sim path")
        other = argv[i + 1]
        del argv[i:i + 2]
    if not argv:
        raise SystemExit(__doc__)
    sim, extra = argv[0], argv[1:]
    configs = [extra] if extra else DEFAULT_CONFIGS
    failures = compare(sim, other or sim, configs)
    if failures:
        raise SystemExit(f"{failures} failed run(s) or diverged stream(s)"
                         " between " + ("the two binaries" if other
                                        else "identical runs"))
    what = f"against {other}" if other else "repeat runs"
    print(f"determinism: {len(configs)} configuration(s), {what} "
          "bit-identical")


if __name__ == "__main__":
    sys.exit(main())
