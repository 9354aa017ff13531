#!/usr/bin/env python3
"""Run the full bench suite and merge the results into one baseline.

Each bench binary is invoked with `--json <tmp> --profile` (plus
`--scale 0` under --smoke) and its ptm-bench-v1 document -- including
the prof_* cycle-decomposition fields -- is folded into a single

    { "schema": "ptm-benchsuite-v1",
      "label":  "<label>",
      "git":    "<git describe of the first bench>",
      "smoke":  true|false,
      "benches": { "<bench>": [ {row}, ... ], ... } }

suitable for committing as BENCH_<label>.json and diffing with
bench_compare.py. Simulated metrics (cycles, prof_* ticks, stat
counters) are deterministic for a given seed, so a committed smoke
baseline is a valid cross-machine regression gate. Host speed is
perfbench/run.py's concern, not this suite's.

`--jobs N` runs up to N bench binaries concurrently. The merged
document is byte-identical to a serial run: results are folded in the
fixed BENCHES order regardless of completion order, and each bench's
rows come from its own private temp file.

Usage:
    bench_runner.py --bench-dir BUILD/bench [--smoke] [--label NAME]
                    [--out FILE] [--only BENCH[,BENCH...]]
                    [--jobs N] [--extra-args "..."]
"""

import argparse
import concurrent.futures
import json
import os
import shlex
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ptm_schema import read_bench, run_json  # noqa: E402

BENCHES = [
    "bench_table1",
    "bench_fig4",
    "bench_fig5",
    "bench_kv",
    "bench_ablation_caches",
    "bench_ablation_commit_abort",
    "bench_ablation_ctxsw",
    "bench_ablation_shadow_free",
]


def run_bench(path, smoke, extra_args=()):
    """Run one bench binary; return its parsed ptm-bench-v1 document."""
    fd, tmp = tempfile.mkstemp(suffix=".json", prefix="bench_")
    os.close(fd)
    cmd = [path, "--json", tmp, "--profile"]
    if smoke:
        cmd += ["--scale", "0"]
    cmd += list(extra_args)
    try:
        doc, errors = run_json(cmd, read_bench, os.path.basename(path),
                               out=tmp)
    finally:
        os.unlink(tmp)
    if errors:
        raise RuntimeError("; ".join(errors))
    return doc


def main():
    ap = argparse.ArgumentParser(
        description="Run the bench suite and merge a ptm-benchsuite-v1 "
                    "baseline.")
    ap.add_argument("--bench-dir", required=True,
                    help="directory holding the bench_* binaries")
    ap.add_argument("--smoke", action="store_true",
                    help="run every bench at --scale 0 (tiny sizes)")
    ap.add_argument("--label", default="local",
                    help="baseline label recorded in the document")
    ap.add_argument("--out", default=None,
                    help="output file (default BENCH_<label>.json; "
                         "- = stdout)")
    ap.add_argument("--only", default=None,
                    help="comma-separated subset of benches to run")
    ap.add_argument("--jobs", type=int, default=1,
                    help="run up to N bench binaries concurrently "
                         "(default 1); the merged output is identical "
                         "to a serial run")
    ap.add_argument("--extra-args", default="",
                    help="extra arguments passed to every bench binary "
                         "(e.g. \"--mem-banks 4\")")
    args = ap.parse_args()
    if args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return 2

    names = BENCHES
    if args.only:
        names = [n for n in args.only.split(",") if n]
        unknown = [n for n in names if n not in BENCHES]
        if unknown:
            print(f"error: unknown bench(es): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2

    suite = {
        "schema": "ptm-benchsuite-v1",
        "label": args.label,
        "git": "",
        "smoke": bool(args.smoke),
        "benches": {},
    }
    extra = shlex.split(args.extra_args)
    paths = {}
    for name in names:
        path = os.path.join(args.bench_dir, name)
        if not os.path.exists(path):
            print(f"error: missing bench binary {path}", file=sys.stderr)
            return 2
        paths[name] = path

    def one(name):
        print(f"running {name}{' (smoke)' if args.smoke else ''} ...",
              file=sys.stderr)
        return run_bench(paths[name], args.smoke, extra)

    # Workers only produce (bench -> document); the merge below walks
    # `names` in declaration order, so the output is deterministic
    # regardless of completion order.
    results = {}
    try:
        if args.jobs == 1:
            for name in names:
                results[name] = one(name)
        else:
            with concurrent.futures.ThreadPoolExecutor(
                    max_workers=args.jobs) as pool:
                futs = {name: pool.submit(one, name) for name in names}
                for name in names:
                    results[name] = futs[name].result()
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    for name in names:
        doc = results[name]
        if not suite["git"]:
            suite["git"] = doc.get("git", "")
        suite["benches"][name] = doc.get("rows", [])

    out = args.out or f"BENCH_{args.label}.json"
    text = json.dumps(suite, indent=1, sort_keys=True) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as f:
            f.write(text)
        total = sum(len(r) for r in suite["benches"].values())
        print(f"wrote {out} ({len(suite['benches'])} benches, "
              f"{total} rows)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
