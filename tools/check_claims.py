#!/usr/bin/env python3
"""Paper-claims gate: the reproduced figures keep the paper's shape.

Runs bench_table1, bench_fig4 and bench_fig5 at --scale 1 and asserts
the orderings EXPERIMENTS.md reports as reproduced, not its numbers:

  fig4    VTM's fft and ocean speedups are below a third of Sel-PTM's
          and below a third of VTM's own speedup on lu and water (the
          paper's "decent speedups for three of the benchmarks, but no
          speedup on fft and ocean, due to the overhead of commits");
          Copy-PTM's average lies between VTM's and Sel-PTM's;
          Sel-PTM is the best TM system on every app, or tied for best.
  fig5    radix's aborts fall from blk-only to wd:cache to
          wd:cache+mem, which has none; every other app's speedup moves
          by at most 5 points across the three granularities.
  table1  ocean has the largest footprint (pages), lu has no aborts,
          radix has the most aborts.
  all     every run verifies.

Exit 0 when every claim holds, 1 naming each one that does not.
--self-test checks, without a build, that EXPERIMENTS.md's measured
rows pass and that each claim fails on a mutated copy of them.

Usage:
    check_claims.py --bench-dir BUILD/bench
    check_claims.py --self-test
"""

import argparse
import concurrent.futures
import copy
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ptm_schema import read_bench, run_json  # noqa: E402

BENCHES = ("table1", "fig4", "fig5")
PAPER_APPS = ("fft", "lu", "radix", "ocean", "water")
TM_SYSTEMS = ("VTM", "VC-VTM", "Copy-PTM", "Sel-PTM")
GRANULARITIES = ("blk-only", "wd:cache", "wd:cache+mem")
# Speedups this close (percentage points) count as tied for best.
TIE_POINTS = 0.5
# How far a granularity-insensitive app's speedup may move.
INSENSITIVE_POINTS = 5.0


def check(docs):
    """Return the claims broken by docs, {bench: [row, ...]}."""
    t1 = {r["app"]: r for r in docs["table1"] if "config" not in r}
    f4 = {(r["app"], r["system"]): r["speedup_pct"] for r in docs["fig4"]}
    f5 = {(r["app"], r["mode"]): r for r in docs["fig5"]}
    broken = []

    def claim(ok, what):
        if not ok:
            broken.append(what)

    decent = min(f4["lu", "VTM"], f4["water", "VTM"])
    for app in ("fft", "ocean"):
        vtm, sel = f4[app, "VTM"], f4[app, "Sel-PTM"]
        claim(vtm < sel / 3, f"fig4 {app}: VTM's +{vtm:.1f} % is not "
              f"below a third of Sel-PTM's +{sel:.1f} %")
        claim(vtm < decent / 3, f"fig4 {app}: VTM's +{vtm:.1f} % is not "
              f"below a third of its +{decent:.1f} % on lu and water")
    vtm, cp, sel = (f4["average", s] for s in ("VTM", "Copy-PTM", "Sel-PTM"))
    claim(vtm < cp < sel, f"fig4 average: Copy-PTM's +{cp:.1f} % is not "
          f"between VTM's +{vtm:.1f} % and Sel-PTM's +{sel:.1f} %")
    for app in PAPER_APPS:
        best = max(TM_SYSTEMS, key=lambda s: f4[app, s])
        claim(f4[app, "Sel-PTM"] >= f4[app, best] - TIE_POINTS,
              f"fig4 {app}: Sel-PTM's +{f4[app, 'Sel-PTM']:.1f} % trails "
              f"{best}'s +{f4[app, best]:.1f} %")

    aborts = [f5["radix", g]["aborts"] for g in GRANULARITIES]
    claim(aborts[0] > aborts[1] > aborts[2] == 0,
          f"fig5 radix: aborts {aborts} do not fall from blk-only to "
          "wd:cache to 0 at wd:cache+mem")
    for app in PAPER_APPS:
        if app == "radix":
            continue
        s = [f5[app, g]["speedup_pct"] for g in GRANULARITIES]
        claim(max(s) - min(s) <= INSENSITIVE_POINTS,
              f"fig5 {app}: speedup moves {max(s) - min(s):.1f} points "
              f"across granularities (at most {INSENSITIVE_POINTS:g})")

    others = [a for a in PAPER_APPS if a != "ocean"]
    claim(all(t1["ocean"]["pages"] > t1[a]["pages"] for a in others),
          "table1: ocean does not have the largest footprint")
    claim(t1["lu"]["aborts"] == 0,
          f"table1: lu has {t1['lu']['aborts']} aborts, not 0")
    others = [a for a in PAPER_APPS if a != "radix"]
    claim(all(t1["radix"]["aborts"] > t1[a]["aborts"] for a in others),
          "table1: radix does not have the most aborts")

    for bench in BENCHES:
        for r in docs[bench]:
            label = "/".join(str(r[k]) for k in ("app", "system", "mode",
                                                  "config") if k in r)
            claim(r.get("verified", True), f"{bench} {label}: not verified")
    return broken


def run_bench(bench_dir, bench):
    """Run one paper bench at scale 1; return its rows."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, f"{bench}.json")
        cmd = [os.path.join(bench_dir, f"bench_{bench}"), "--scale", "1",
               "--json", out]
        doc, errors = run_json(cmd, read_bench, f"bench_{bench}", out=out)
    if errors:
        raise SystemExit("\n".join(errors))
    return doc["rows"]


def report(broken):
    for what in broken:
        print(f"FAIL {what}")
    print("claims: " + ("all hold" if not broken
                        else f"{len(broken)} broken"))
    return 1 if broken else 0


# EXPERIMENTS.md's measured rows: Figure 4 speedups (locks, VTM, VC-VTM,
# Copy-PTM, Sel-PTM), Figure 5 (speedup, aborts) per granularity and
# Table 1 (pages, aborts).
SAMPLE_FIG4 = {
    "fft": (169, 28, 34, 151, 166), "lu": (198, 196, 196, 196, 196),
    "radix": (406, 102, 91, 140, 144), "ocean": (221, 14, 11, 128, 203),
    "water": (23, 113, 119, 124, 134), "average": (203, 90, 90, 148, 168),
}
SAMPLE_FIG5 = {
    "fft": ((166, 0), (165, 0), (165, 0)),
    "lu": ((196, 0), (196, 0), (196, 0)),
    "radix": ((144, 147), (256, 16), (374, 0)),
    "ocean": ((203, 0), (202, 0), (203, 0)),
    "water": ((134, 0), (129, 0), (129, 0)),
}
SAMPLE_TABLE1 = {"fft": (433, 0), "lu": (64, 0), "radix": (130, 147),
                 "ocean": (566, 0), "water": (72, 0)}


def sample_docs():
    fig4 = [{"app": app, "system": s, "speedup_pct": v, "verified": True}
            for app, vals in SAMPLE_FIG4.items()
            for s, v in zip(("locks",) + TM_SYSTEMS, vals)]
    for r in fig4:
        if r["app"] == "average":
            del r["verified"]
    fig5 = [{"app": app, "mode": g, "speedup_pct": v, "aborts": n,
             "verified": True}
            for app, vals in SAMPLE_FIG5.items()
            for g, (v, n) in zip(GRANULARITIES, vals)]
    table1 = [{"app": app, "pages": p, "aborts": n, "verified": True}
              for app, (p, n) in SAMPLE_TABLE1.items()]
    table1.append({"app": "fft", "config": "scale-c64", "aborts": 117924,
                   "verified": True})
    return {"table1": table1, "fig4": fig4, "fig5": fig5}


def set_field(bench, app, key, field, value):
    """A mutation: set field of the bench row for app (and key)."""
    def mutate(docs):
        for r in docs[bench]:
            if r["app"] == app and key in (None, r.get("system"),
                                           r.get("mode")) \
                    and "config" not in r:
                r[field] = value
    return mutate


# (mutation, a phrase the broken claim must contain)
MUTATIONS = [
    (set_field("fig4", "fft", "Sel-PTM", "speedup_pct", 80),
     "below a third of Sel-PTM"),
    (set_field("fig4", "ocean", "VTM", "speedup_pct", 70),
     "fig4 ocean: VTM"),
    (set_field("fig4", "water", "VTM", "speedup_pct", 60),
     "on lu and water"),
    (set_field("fig4", "average", "Copy-PTM", "speedup_pct", 170),
     "fig4 average"),
    (set_field("fig4", "water", "Copy-PTM", "speedup_pct", 140),
     "fig4 water: Sel-PTM"),
    (set_field("fig5", "radix", "wd:cache+mem", "aborts", 3),
     "fig5 radix"),
    (set_field("fig5", "radix", "wd:cache", "aborts", 147), "fig5 radix"),
    (set_field("fig5", "water", "wd:cache", "speedup_pct", 128),
     "fig5 water"),
    (set_field("table1", "fft", None, "pages", 600), "largest footprint"),
    (set_field("table1", "lu", None, "aborts", 2), "lu has 2 aborts"),
    (set_field("table1", "water", None, "aborts", 147), "most aborts"),
    (set_field("fig5", "ocean", "blk-only", "verified", False),
     "fig5 ocean/blk-only: not verified"),
]


def self_test():
    problems = []
    base = check(sample_docs())
    if base:
        problems.append(f"measured rows break claims: {base}")
    for mutate, want in MUTATIONS:
        docs = copy.deepcopy(sample_docs())
        mutate(docs)
        broken = check(docs)
        if not any(want in b for b in broken):
            problems.append(f"mutation expecting '{want}' broke {broken}")
    for p in problems:
        print(f"self-test FAIL: {p}", file=sys.stderr)
    print("self-test: " + ("ok" if not problems else
                           f"{len(problems)} problem(s)"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(
        description="Assert the paper's reproduced claims on the "
                    "scale-1 paper benches.")
    ap.add_argument("--bench-dir", help="directory holding the bench_* "
                    "binaries")
    ap.add_argument("--self-test", action="store_true",
                    help="check the claims against mutated sample rows")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.bench_dir:
        ap.error("--bench-dir is required")
    with concurrent.futures.ThreadPoolExecutor(len(BENCHES)) as pool:
        rows = pool.map(lambda b: run_bench(args.bench_dir, b), BENCHES)
        docs = dict(zip(BENCHES, rows))
    return report(check(docs))


if __name__ == "__main__":
    sys.exit(main())
