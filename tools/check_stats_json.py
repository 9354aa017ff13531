#!/usr/bin/env python3
"""Schema checker for ptm_sim --stats-json output.

Runs ptm_sim for every system kind at the tiny test scale and reads
each ptm-stats-v1 document with ptm_schema.read_stats (schema tag,
manifest, stat encodings and the optional sections). On top it checks
the invariants of the format: the stat groups each system must carry,
distribution percentile order, profile buckets that sum to every
core's total, space-saving hot-page totals, the forensics killer
ranking, and that the --profile, --heatmap and flight-recorder
sections appear exactly when switched on. Exits non-zero (with a
message per failure) if any run or check fails.

With --self-test the invariant checks run against mutations of a
crafted valid document instead of driving the simulator.

Usage:
    check_stats_json.py PATH_TO_PTM_SIM
    check_stats_json.py --self-test
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ptm_schema import (ABORT_CAUSES, DELETE, SAMPLES,  # noqa: E402
                        STAT_GROUPS, SUPERVISOR_GROUPS, SYSTEMS,
                        hot_sections, mutate, read_stats, rejections,
                        report, run_json)

FFT = ["--workload", "fft", "--scale", "0", "--threads", "2"]
SEL_FFT = FFT + ["--system", "sel-ptm"]
KV = ["--workload", "kv", "--system", "sel-ptm", "--scale", "0",
      "--threads", "4"]
WL_OPT = ["--workload", "kv", "--system", "sel-ptm", "--scale", "0",
          "--threads", "2", "--wl-opt", "zipf=0.5", "--wl-opt", "tx-ops=4"]


def check_groups(doc, system):
    """Verified run, required groups, distribution percentile order."""
    errors = []
    if not doc["manifest"]["verified"]:
        errors.append(f"{system}: run did not verify")
    groups = doc["groups"]
    for g in STAT_GROUPS + SUPERVISOR_GROUPS[system]:
        if not groups.get(g):
            errors.append(f"{system}: group {g!r} missing or empty")
    for gname, stats in groups.items():
        for sname, st in stats.items():
            if st["kind"] != "distribution":
                continue
            w = f"{system}: {gname}.{sname}"
            if not st["counts"]:
                errors.append(f"{w} counts empty")
            if not st["p50"] <= st["p95"] <= st["p99"]:
                errors.append(f"{w} percentiles not ordered: "
                              f"{st['p50']} / {st['p95']} / {st['p99']}")
            if st["samples"] and not (st["min"] <= st["p50"]
                                      and st["p99"] <= st["max"]):
                errors.append(f"{w} percentiles outside [min, max]")
    cycles = groups.get("sys", {}).get("cycles")
    if cycles and cycles["value"] != doc["manifest"]["cycles"]:
        errors.append(f"{system}: sys.cycles != manifest.cycles")
    return errors


def check_profile(doc):
    """--profile --host-profile: cycle accounting is exact, so every
    core's buckets sum to its total and every total is the run's
    elapsed ticks."""
    prof = doc.get("profile")
    if prof is None:
        return ["profile: section missing from --profile run"]
    errors = []
    if not prof["cores"]:
        errors.append("profile: cores empty")
    for i, core in enumerate(prof["cores"]):
        total = sum(core["ticks"].values())
        if total != core["total"]:
            errors.append(f"profile: core {i} bucket sum {total} != "
                          f"total {core['total']}")
        if core["total"] != prof["elapsed_ticks"]:
            errors.append(f"profile: core {i} total {core['total']} != "
                          f"elapsed_ticks {prof['elapsed_ticks']}")
    if not prof.get("host", {}).get("sites"):
        errors.append("profile: host sites missing under --host-profile")
    return errors


def check_hot_pages(doc):
    """--heatmap: each top-k list sorted by count; space-saving
    counters preserve totals exactly, so each section's page counts
    sum to its total, and the abort totals match the tx counters."""
    hot = doc.get("hot_pages")
    if hot is None:
        return ["hot_pages: section missing from --heatmap run"]
    errors = []
    if hot["conflicts"]["total"] < 1:
        errors.append("hot_pages: no conflicts attributed")
    for name, sec in hot_sections(hot):
        for key in ("pages", "blocks"):
            counts = [e["count"] for e in sec.get(key, [])]
            if counts != sorted(counts, reverse=True):
                errors.append(f"hot_pages: {name}.{key} not sorted by "
                              "count")
        page_sum = sum(e["count"] for e in sec["pages"])
        if page_sum != sec["total"]:
            errors.append(f"hot_pages: {name} page counts sum {page_sum} "
                          f"!= total {sec['total']} (space-saving must "
                          "preserve totals)")
    tx = doc["groups"].get("tx", {})
    for c in ABORT_CAUSES:
        counter = tx.get(f"aborts_{c}", {}).get("value")
        if counter is not None and hot["aborts"][c]["total"] != counter:
            errors.append(f"hot_pages: aborts.{c}.total "
                          f"{hot['aborts'][c]['total']} != "
                          f"tx.aborts_{c} {counter}")
    return errors


def check_forensics(doc):
    """The flight recorder is on by default: a plain run carries the
    section, disarmed, with no post-mortems and at most five killers
    ranked by kills."""
    f = doc.get("forensics")
    if f is None:
        return ["forensics: section missing from a default run"]
    errors = []
    if f["armed"] is not False:
        errors.append("forensics: default run reports armed != false")
    if f["postmortems"] != 0:
        errors.append("forensics: default run captured post-mortems")
    kills = [k["kills"] for k in f["top_killers"]]
    if len(kills) > 5:
        errors.append("forensics: top_killers longer than 5")
    if kills != sorted(kills, reverse=True):
        errors.append("forensics: top_killers not sorted by kills "
                      "descending")
    return errors


def check_workload_options(doc):
    """User-given --wl-opt values round-trip verbatim, and options left
    at their default still appear (the manifest records the resolved
    table, not just the overrides)."""
    errors = []
    wopts = doc["manifest"]["workload_options"]
    for key, want in (("zipf", "0.5"), ("tx-ops", "4")):
        if wopts.get(key) != want:
            errors.append(f"wl-opt: option {key!r} did not round-trip: "
                          f"{wopts.get(key)!r} != {want!r}")
    for key in ("keys", "ops", "scan-len"):
        if key not in wopts:
            errors.append(f"wl-opt: default option {key!r} not recorded")
    return errors


def check_off(doc, when, sections=(), groups=()):
    """Opt-in output is absent from a run made without its flag."""
    return [f"{s}: section present {when}" for s in sections if s in doc] \
        + [f"{g}: group present {when}" for g in groups
           if g in doc["groups"]]


def drive(ptm_sim):
    def run(where, args, check):
        doc, errs = run_json([ptm_sim, *args, "--stats-json", "-"],
                             read_stats, f"{where} run")
        return errs or check(doc)

    def check_system(system):
        # The plain sel-ptm run is also --profile's control and the
        # flight recorder's default run.
        if system == "sel-ptm":
            return lambda d: check_groups(d, system) + check_forensics(d) \
                + check_off(d, "without --profile", ["profile"])
        return lambda d: check_groups(d, system)

    results = [(s, run(s, FFT + ["--system", s], check_system(s)))
               for s in SYSTEMS]
    results += [
        ("profile", run("profile", SEL_FFT + ["--profile",
                                              "--host-profile"],
                        check_profile)),
        ("wl-opt", run("wl-opt", WL_OPT, check_workload_options)),
        ("hot_pages", run("hot_pages", KV + ["--wl-opt", "zipf=0.99",
                                             "--heatmap"], check_hot_pages)
         + run("hot_pages control", KV, lambda d: check_off(
             d, "without --heatmap", ["hot_pages"]))),
        # --flightrec-depth 0 removes the recorder entirely.
        ("forensics", run("depth-0", SEL_FFT + ["--flightrec-depth", "0"],
                          lambda d: check_off(d, "with --flightrec-depth 0",
                                              ["forensics"], ["flightrec"]))),
    ]
    failures = []
    for label, errs in results:
        print(f"{label:10s} "
              f"{'ok' if not errs else str(len(errs)) + ' error(s)'}")
        failures += errs
    return failures


def self_test():
    def check(doc):
        return check_groups(doc, "sel-ptm") + check_profile(doc) + \
            check_hot_pages(doc) + check_forensics(doc)

    def check_plain(doc):
        return check_off(doc, "without flags", ["profile", "hot_pages",
                                                "forensics"], ["vts"])

    sample = SAMPLES["stats"]
    killer = {"tx": 1, "kills": 1, "lost_ticks": 0}
    plain = mutate(sample, ["groups", "vts"], DELETE)
    plain = {k: v for k, v in plain.items() if k not in
             ("profile", "hot_pages", "forensics")}
    wl = mutate(sample, ["manifest", "workload_options"], {
        "zipf": "0.5", "tx-ops": "4", "keys": "8", "ops": "9",
        "scan-len": "2"})
    return report(rejections(check, sample, [
        (["manifest", "verified"], False, "did not verify"),
        (["groups", "vts"], {}, "'vts' missing or empty"),
        (["groups", "mem"], DELETE, "'mem' missing or empty"),
        (["groups", "tx", "lat", "counts"], [], "counts empty"),
        (["groups", "tx", "lat", "p95"], 3, "not ordered"),
        (["groups", "tx", "lat", "min"], 5, "outside [min, max]"),
        (["groups", "sys", "cycles", "value"], 99, "sys.cycles"),
        (["profile"], DELETE, "section missing"),
        (["profile", "cores"], [], "cores empty"),
        (["profile", "cores", 0, "total"], 99, "bucket sum"),
        (["profile", "elapsed_ticks"], 99, "!= elapsed_ticks 99"),
        (["profile", "host"], DELETE, "host sites missing"),
        (["hot_pages"], DELETE, "section missing"),
        (["hot_pages", "conflicts", "total"], 4, "preserve totals"),
        (["hot_pages", "conflicts", "total"], 0, "no conflicts"),
        (["hot_pages", "conflicts", "pages", 1, "count"], 5,
         "not sorted"),
        (["hot_pages", "conflicts", "blocks"],
         [{"block": 0, "count": c, "err": 0} for c in (1, 2)],
         "blocks not sorted"),
        (["hot_pages", "tav_misses", "total"], 1, "tav_misses page"),
        (["groups", "tx", "aborts_conflict", "value"], 3,
         "!= tx.aborts_conflict 3"),
        (["forensics"], DELETE, "section missing"),
        (["forensics", "armed"], True, "armed != false"),
        (["forensics", "postmortems"], 1, "captured post-mortems"),
        (["forensics", "top_killers", 1, "kills"], 9, "not sorted"),
        (["forensics", "top_killers"], [killer] * 6, "longer than 5"),
    ]) + rejections(check_plain, plain, [
        (["profile"], sample["profile"], "profile: section present"),
        (["hot_pages"], sample["hot_pages"], "hot_pages: section"),
        (["forensics"], sample["forensics"], "forensics: section"),
        (["groups", "vts"], {}, "vts: group present"),
    ]) + rejections(check_workload_options, wl, [
        (["manifest", "workload_options", "zipf"], "0.6",
         "'zipf' did not round-trip"),
        (["manifest", "workload_options", "keys"], DELETE,
         "default option 'keys'"),
    ]))


def main():
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    failures = drive(sys.argv[1])
    for e in failures:
        print(f"error: {e}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
