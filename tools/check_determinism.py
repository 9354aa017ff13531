#!/usr/bin/env python3
"""Determinism gate: two identical ptm_sim runs must agree exactly.

Runs ``ptm_sim --stats-json`` twice with the same configuration and
seed, then diffs the two ptm-stats-v1 documents field by field. Every
simulated quantity — cycles, commits, aborts, cache counters, walk
distributions — must be bit-identical; only host-side fields (wall
time, git revision) are ignored. Any other divergence means the
simulator's behavior depends on host state (iteration order, pointer
values, allocation reuse) and fails the gate.

Usage:
    check_determinism.py <ptm_sim> [extra args...]

With no extra args a default matrix of configurations is exercised.
"""

import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ptm_schema import HOST_MANIFEST_FIELDS, read_stats, run_json  # noqa: E402

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
    # too.
    ["--workload", "fft", "--system", "sel-ptm", "--scale", "0",
     "--cores", "16", "--mem-banks", "4"],
    # Transactional fast-forward batches, the redo log's capture order
    # and footprint-only commit/abort cleanup.
    ["--workload", "kv", "--system", "sel-ptm", "--scale", "0",
     "--durability", "wal"],
]


def run_once(sim, args, out):
    cmd = [sim, *args, "--stats-json", str(out)]
    doc, errors = run_json(cmd, read_stats, " ".join(cmd), out=out)
    if errors:
        raise SystemExit("FAIL: " + "\n".join(errors))
    for field in HOST_MANIFEST_FIELDS:
        doc["manifest"].pop(field)
    return doc


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
    elif isinstance(a, list):
        if len(a) != len(b):
            yield f"{prefix}: length {len(a)} vs {len(b)}"
            return
        for i, (x, y) in enumerate(zip(a, b)):
            yield from diff_paths(x, y, f"{prefix}[{i}]")
    elif a != b:
        yield f"{prefix}: {a!r} vs {b!r}"


def main():
    if len(sys.argv) < 2:
        raise SystemExit(__doc__)
    sim = sys.argv[1]
    extra = sys.argv[2:]
    configs = [extra] if extra else DEFAULT_CONFIGS

    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, cfg in enumerate(configs):
            a = run_once(sim, cfg, Path(tmp) / f"{i}_a.json")
            b = run_once(sim, cfg, Path(tmp) / f"{i}_b.json")
            diffs = list(diff_paths(a, b))
            label = " ".join(cfg)
            if diffs:
                failures += 1
                print(f"FAIL [{label}]: {len(diffs)} divergent "
                      "field(s):")
                for d in diffs[:20]:
                    print(f"  {d}")
            else:
                print(f"OK   [{label}]")
    if failures:
        raise SystemExit(f"{failures} configuration(s) diverged "
                         "between identical runs")
    print(f"determinism: {len(configs)} configuration(s), repeat runs "
          "bit-identical")


if __name__ == "__main__":
    main()
