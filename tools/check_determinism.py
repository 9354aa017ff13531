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

Usage:
    check_determinism.py <ptm_sim> [--against <other ptm_sim>]
                         [extra args...]

With no extra args a default matrix of configurations is exercised.
"""

import os
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


def run_once(sim, args, tmp, tag):
    """Run one configuration; return {stream: scrubbed data}."""
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
            raise SystemExit(f"FAIL: {name} of {where}:\n" +
                             "\n".join(errors[:20]))
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


def main():
    argv = sys.argv[1:]
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
    sim_b = other or sim

    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, cfg in enumerate(configs):
            a = run_once(sim, cfg, tmp, f"{i}_a")
            b = run_once(sim_b, cfg, tmp, f"{i}_b")
            label = " ".join(cfg)
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
    if failures:
        raise SystemExit(f"{failures} stream(s) diverged between "
                         + ("the two binaries" if other
                            else "identical runs"))
    what = f"against {other}" if other else "repeat runs"
    print(f"determinism: {len(configs)} configuration(s), {what} "
          "bit-identical")


if __name__ == "__main__":
    main()
