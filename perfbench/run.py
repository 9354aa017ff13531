#!/usr/bin/env python3
"""The repository benchmark: three Sel-PTM workloads, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload kv-skew --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Run from the repository root. The first run configures and builds
perfbench/ (which builds the simulator library from src/) in Release
mode under $CARGO_TARGET_DIR, or .bench_build when that is unset.

Each simulation runs in its own perfbench_sim process, one at a time,
so peak RSS is per simulation and nothing else competes for the host.
--trace 0 repeats the untraced simulation for --seconds and reports the
end-to-end metrics as medians over the repeats. --trace 1 runs rounds
of (untraced, traced, flight-recorder-off) simulations for --seconds
and reports the per-layer metrics. Every simulation of one invocation
uses the same seed, and every one must produce identical simulated
statistics (the determinism guard). The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. A full
report (provenance, every repeat, every span) is written to
<build dir>/results/. README.md documents every metric.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPEATS = 3
SIM_TIMEOUT_S = 150
# The five child spans must cover the root span to within this share.
SPAN_TOLERANCE = 0.01
# Stat groups that hold modelled state; observers and the host event
# loop (events, core fast-forward counters, audit, flightrec) may differ
# between modes and are left out of the determinism guard.
GUARDED_GROUPS = ("sys", "tx", "mem", "os", "vts", "persist")
# Time-weighted averages close at the event queue's final tick, which
# the traced observers' periodic events can move past the last model
# event; their window, not the model, differs between modes.
UNGUARDED_STATS = ("vts.avg_live_dirty_pages", "sys.ideal_pct")
HOST_SITES = ("core.mem", "memory", "supervisor", "cpu", "core.step",
              "core.xlat", "os")
CHILD_SPANS = ("harness.system_init", "workloads.build", "harness.run",
               "harness.snapshot", "workloads.verify")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configure (once) and build perfbench_sim; returns its path."""
    out = build_dir() / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return out / "perfbench_sim"


def source_digest():
    """sha256 over the sources the benchmark builds (src/ + perfbench/)."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for p in sorted(top.rglob("*")):
            if p.is_file() and p.suffix in (".cc", ".hh", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def run_sim(binary, workload, seed, mode):
    """One simulation. Returns (record or None, failure reason or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--mode", mode]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=SIM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    if r.stderr:
        log(r.stderr.rstrip())
    try:
        rec = json.loads(r.stdout)
    except ValueError:
        return None, "exit %d without a result" % r.returncode
    st = rec["stats"]
    if not st["manifest"]["verified"]:
        return rec, "wrong result"
    if r.returncode != 0:
        return rec, "exit %d" % r.returncode
    if val(st, "sys", "hit_tick_limit"):
        return rec, "hit the tick limit"
    if val(st, "audit", "violations"):
        return rec, "%d audit violations" % val(st, "audit", "violations")
    return rec, None


def span_s(rec, name):
    for s in rec["run"]["spans"]:
        if s["name"] == name:
            return (s["end_ns"] - s["start_ns"]) * 1e-9
    raise KeyError(name)


def fingerprint(rec):
    st = rec["stats"]
    stats = {g + "." + k: v for g in GUARDED_GROUPS
             for k, v in st["groups"].get(g, {}).items()
             if g + "." + k not in UNGUARDED_STATS}
    return json.dumps([st["manifest"]["cycles"], stats], sort_keys=True)


def check_record(rec):
    """Benchmark-side consistency checks on one record; returns errors."""
    errs = []
    root = span_s(rec, "workload")
    children = sum(span_s(rec, n) for n in CHILD_SPANS)
    if abs(root - children) > SPAN_TOLERANCE * root:
        errs.append("child spans cover %.6f s of %.6f s" % (children, root))
    prof = rec["stats"].get("profile")
    if prof:
        for i, c in enumerate(prof["cores"]):
            if sum(c["ticks"].values()) != prof["elapsed_ticks"]:
                errs.append("core %d buckets do not sum to elapsed" % i)
    return errs


median = statistics.median


def val(st, group, stat):
    s = st["groups"].get(group, {}).get(stat)
    return s["value"] if s else 0


def dist(st, group, stat, pct):
    s = st["groups"].get(group, {}).get(stat)
    return s[pct] if s and s["samples"] else 0


def ratio(a, b):
    return a / b if b else 0.0


def cores(st):
    return [g for name, g in st["groups"].items()
            if name.startswith("core") and name[4:].isdigit()]


def end_to_end(plain):
    st = plain[0]["stats"]
    commits = val(st, "tx", "commits")
    aborts = val(st, "tx", "aborts")
    cycles = st["manifest"]["cycles"]
    return {
        "wall_s": (median([span_s(r, "workload") for r in plain]), "s"),
        "setup_s": (median([span_s(r, "harness.system_init") +
                            span_s(r, "workloads.build") for r in plain]),
                    "s"),
        "peak_rss_mb": (median([r["run"]["peak_rss_kb"] / 1024.0
                                for r in plain]), "MB"),
        "sim_cycles": (cycles, "cycles"),
        "tx_per_mcycle": (commits * 1e6 / cycles, "1/Mcycle"),
        "commit_p50_cycles": (dist(st, "tx", "commit_latency", "p50"),
                              "cycles"),
        "commit_p99_cycles": (dist(st, "tx", "commit_latency", "p99"),
                              "cycles"),
        "attempts_per_commit": (ratio(commits + aborts, commits), "ratio"),
    }


def per_layer(plain, traced, nofr):
    st = plain[0]["stats"]
    tst = traced[0]["stats"]
    prof = tst["profile"]
    core_ticks = prof["elapsed_ticks"] * len(prof["cores"])

    def share(bucket):
        return ratio(sum(c["ticks"][bucket] for c in prof["cores"]),
                     core_ticks)

    def overhead_pct(with_obs, without):
        # Pairs runs of one round, which sit close in time, so slow
        # drift in host speed cancels out of each ratio.
        base = {r["repeat"]: span_s(r, "harness.run") for r in without}
        return 100.0 * (median([span_s(r, "harness.run") / base[r["repeat"]]
                                for r in with_obs
                                if r["repeat"] in base]) - 1.0)

    charges = prof["supervisor"]
    run_s = median([span_s(r, "harness.run") for r in plain])
    events = val(st, "events", "executed")
    cs = cores(st)
    ops = sum(c["mem_ops"]["value"] + c["compute_ops"]["value"] for c in cs)
    commits = val(st, "tx", "commits")
    aborts = val(st, "tx", "aborts")
    l1, l2, miss = (val(st, "mem", k) for k in
                    ("l1_hits", "l2_hits", "misses"))
    committed_ticks = charges["committed_tx_ticks"]
    aborted_ticks = charges["aborted_tx_ticks"]

    m = {}
    for name in CHILD_SPANS:
        m[name + "_s"] = (median([span_s(r, name) for r in plain]), "s")
    m["sim.events"] = (events, "count")
    m["sim.events_per_op"] = (ratio(events, ops), "ratio")
    m["sim.ns_per_event"] = (ratio(run_s * 1e9, events), "ns")
    for site in HOST_SITES:
        m["sim.host_site_ms." + site] = (median([
            sum(s["estimated_ns"] for s in r["stats"]["profile"]["host"]
                ["sites"] if s["name"] == site) * 1e-6
            for r in traced]), "ms")
    m["sim.host_profile_coverage"] = (median([
        sum(s["estimated_ns"] for s in r["stats"]["profile"]["host"]
            ["sites"]) * 1e-9 / span_s(r, "harness.run")
        for r in traced]), "ratio")
    m["cpu.ops"] = (ops, "count")
    m["cpu.tx_op_share"] = (ratio(sum(c["tx_mem_ops"]["value"]
                                      for c in cs), ops), "ratio")
    m["cpu.ff_op_share"] = (ratio(sum(c["ff_ops"]["value"] for c in cs),
                                  ops), "ratio")
    m["cache.l1_hits"] = (l1, "count")
    m["cache.l2_hits"] = (l2, "count")
    m["cache.misses"] = (miss, "count")
    m["cache.l1_hit_ratio"] = (ratio(l1, l1 + l2 + miss), "ratio")
    m["cache.tlb_misses"] = (val(st, "os", "tlb_misses"), "count")
    m["cache.stall_l1_share"] = (share("stall_l1"), "ratio")
    m["cache.stall_l2_share"] = (share("stall_l2"), "ratio")
    for k in ("bus_transactions", "bus_busy_cycles", "cache_to_cache",
              "snoops_filtered", "dram_accesses", "tx_evictions",
              "conflicts"):
        m["mem." + k] = (val(st, "mem", k),
                         "cycles" if k.endswith("cycles") else "count")
    m["mem.stall_mem_share"] = (share("stall_mem"), "ratio")
    for k, stat in (("spt_hits", "spt_cache_hits"),
                    ("spt_misses", "spt_cache_misses"),
                    ("tav_hits", "tav_cache_hits"),
                    ("tav_misses", "tav_cache_misses"),
                    ("commit_walk_nodes", "commit_walk_nodes"),
                    ("abort_walk_nodes", "abort_walk_nodes"),
                    ("shadow_allocs", "shadow_allocs")):
        m["ptm." + k] = (val(st, "vts", stat), "count")
    m["ptm.supervisor_ticks"] = (sum(charges[c] for c in (
        "meta_lookup", "tav_lookup", "commit_cleanup", "abort_cleanup",
        "overflow_spill")), "cycles")
    m["ptm.commit_cleanup_p50_cycles"] = (
        dist(st, "vts", "commit_cleanup_latency", "p50"), "cycles")
    m["tx.commits"] = (commits, "count")
    m["tx.aborts"] = (aborts, "count")
    m["tx.aborts_conflict"] = (val(st, "tx", "aborts_conflict"), "count")
    m["tx.useful_ratio"] = (ratio(commits, commits + aborts), "ratio")
    m["tx.abort_share"] = (share("tx_abort"), "ratio")
    m["tx.wasted_tick_share"] = (
        ratio(aborted_ticks, aborted_ticks + committed_ticks), "ratio")
    m["vm.page_faults"] = (val(st, "os", "page_faults"), "count")
    m["vm.context_switches"] = (val(st, "os", "context_switches"), "count")
    m["vm.xlat_share"] = (share("stall_xlat"), "ratio")
    m["persist.log_bytes"] = (val(st, "persist", "log_bytes"), "bytes")
    m["persist.flush_stall_ticks"] = (
        val(st, "persist", "flush_stall_ticks"), "cycles")
    m["persist.wait_p50_cycles"] = (
        dist(st, "persist", "commit_persist_wait", "p50"), "cycles")
    m["persist.wait_p99_cycles"] = (
        dist(st, "persist", "commit_persist_wait", "p99"), "cycles")
    m["persist.share"] = (share("tx_persist"), "ratio")
    m["obs.trace_overhead_pct"] = (overhead_pct(traced, plain), "%")
    m["obs.flightrec_overhead_pct"] = (overhead_pct(plain, nofr), "%")
    return m


def measure(binary, workload, seed, seconds, trace):
    """Runs the simulations; returns (good records by mode, failures,
    rounds)."""
    rounds = [["plain"]]
    if trace:
        # Rotate the order so drift in host speed spreads over modes.
        base = ["plain", "traced", "noflightrec"]
        rounds = [base[i:] + base[:i] for i in range(3)]
    by_mode = {}
    failures = []
    start = time.monotonic()
    n = 0
    while True:
        for mode in rounds[n % len(rounds)]:
            t0 = time.monotonic()
            rec, why = run_sim(binary, workload, seed, mode)
            log("perfbench: %s %s #%d %.3f s%s" % (
                workload, mode, n, time.monotonic() - t0,
                "" if why is None else " FAILED: " + why))
            if why is not None:
                failures.append({"mode": mode, "repeat": n, "why": why})
            else:
                rec["repeat"] = n
                by_mode.setdefault(mode, []).append(rec)
        n += 1
        elapsed = time.monotonic() - start
        per_round = elapsed / n
        if n >= (1 if trace else MIN_REPEATS) and \
                elapsed + per_round > seconds:
            return by_mode, failures, n


def run_one(binary, args, trace, provenance):
    by_mode, failures, rounds = measure(binary, args.workload, args.seed,
                                        args.seconds, trace)
    attempted = rounds * (3 if trace else 1)
    errors = [f["why"] for f in failures]
    records = [r for rs in by_mode.values() for r in rs]
    prints = {fingerprint(r) for r in records}
    if len(prints) > 1:
        errors.append("determinism guard: %d distinct simulated results "
                      "across %d simulations" % (len(prints), len(records)))
    for r in records:
        errors += check_record(r)

    metrics = {}
    modes = ("plain", "traced", "noflightrec") if trace else ("plain",)
    if all(by_mode.get(m) for m in modes):
        metrics = (per_layer if trace else end_to_end)(
            *(by_mode[m] for m in modes))
    if not metrics:
        errors.append("no successful simulation to report from")

    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    provenance = dict(provenance)
    if records:
        man = records[0]["stats"]["manifest"]
        provenance.update(build=records[0]["run"]["build"],
                          system_params=man["params"],
                          workload=man["workload"], threads=man["threads"],
                          workload_options=man["workload_options"])
    report = {
        "provenance": provenance,
        "workload": args.workload, "seed": args.seed, "trace": trace,
        "seconds": args.seconds, "errors": errors, "failures": failures,
        "failed_run_ratio": ratio(len(failures), attempted),
        "repeats": [{"mode": r["run"]["mode"], "repeat": r["repeat"],
                     "trace_id": "%s/%d/%s/%d" % (
                         args.workload, args.seed, r["run"]["mode"],
                         r["repeat"]),
                     "peak_rss_kb": r["run"]["peak_rss_kb"],
                     "spans": r["run"]["spans"]} for r in records],
        "result": result,
    }
    out = build_dir() / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / ("%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                              trace))
    path.write_text(json.dumps(report, indent=1) + "\n")

    for e in errors:
        log("perfbench: ERROR: " + e)
    print("# %s seed %d trace %d: %d simulations, %d failed, report %s" % (
        args.workload, args.seed, trace, attempted, len(failures), path))
    if metrics and not trace:
        print("# commit percentiles over %d commits" %
              val(records[0]["stats"], "tx", "commits"))
    for k, (v, u) in metrics.items():
        print("%-34s %18.6f %s" % (k, v, u))
    print(json.dumps(result))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="kv-skew | fft-overflow | kv-durable-writes | all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    r = subprocess.run([str(binary), "--list"], capture_output=True,
                       text=True)
    if r.returncode != 0:
        raise SystemExit("perfbench: " + r.stderr.strip())
    names = r.stdout.split()
    if args.workload != "all" and args.workload not in names:
        raise SystemExit("perfbench: unknown workload %r (known: %s)" % (
            args.workload, ", ".join(names)))
    provenance = {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "command": sys.argv,
    }
    if args.workload != "all":
        run_one(binary, args, args.trace, provenance)
        return 0
    ok = True
    for name in names:
        for trace in (0, 1):
            args.workload = name
            ok &= run_one(binary, args, trace, provenance)["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
