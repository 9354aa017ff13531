#!/usr/bin/env python3
"""Schema and reconciliation checker for ptm-postmortem-v1 dumps.

Runs ptm_sim on the contended KV workload (zipf 0.99) with a retry
budget so the starvation token fires, post-mortem capture armed and a
tx-category trace, and validates the dump file (concatenated JSON
documents):

  * ptm_schema.read_postmortem: every document carries the schema
    tag, a known trigger kind, a repro line, well-typed nodes /
    edges / records sections, and edges reference valid node ids;
  * the abort-causality graph is a DAG: every edge goes to a strictly
    earlier tick (terminal nodes excepted), and a topological sort
    completes;
  * chain_depth lies between the deepest node generation and the
    generation bound;
  * records are sorted by tx id and every record's tx appears in the
    node list;
  * the run's ptm-stats-v1 "forensics" section reconciles with the
    flightrec group's dropped_records, and the number of dumped
    documents equals forensics.postmortems;
  * attempt ticks reconcile with the trace: the capture drops no
    events, and t - c (commit or abort tick minus the attempt's begin
    tick) summed over tx_abort events equals the profile's
    aborted_tx_ticks charge, and over tx_commit events its
    committed_tx_ticks charge;
  * off by default: a run without --postmortem / --postmortem-on-abort
    writes no dump, prints no post-mortem block, and reports
    armed=false with zero postmortems.

With --self-test these checks run against mutations of crafted inputs
(cyclic edges, tick ordering violation, unsorted records, dropped
trace events, attempt-tick mismatches, missing starvation grant, armed
control run) instead of driving the simulator.

Usage:
    check_postmortem_json.py PATH_TO_PTM_SIM
    check_postmortem_json.py --self-test
"""

import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ptm_schema import (DELETE, SAMPLES, mutate,  # noqa: E402
                        read_file, read_postmortem, read_stats,
                        read_trace, rejections, report)


def check_dag(doc, where):
    """The causality graph of one well-formed document."""
    errors = []
    nodes, records = doc["nodes"], doc["records"]
    adj = [[] for _ in nodes]
    for k, edge in enumerate(doc["edges"]):
        src, dst = nodes[edge["from"]], nodes[edge["to"]]
        adj[edge["from"]].append(edge["to"])
        # Victim-abort -> killer-abort edges go strictly back in time;
        # a terminal target (tick 0, no recorded abort) is the one
        # exception.
        if dst["tick"] != 0 and dst["tick"] >= src["tick"]:
            errors.append(f"{where}: edge {k}: target tick {dst['tick']} "
                          f"not strictly before source tick "
                          f"{src['tick']}")

    # Acyclicity via DFS three-coloring (independent of the tick
    # argument above, so a forged tick can't mask a cycle).
    color = [0] * len(nodes)

    def has_cycle(v):
        color[v] = 1
        for w in adj[v]:
            if color[w] == 1 or (color[w] == 0 and has_cycle(w)):
                return True
        color[v] = 2
        return False

    sys.setrecursionlimit(max(1000, 10 * len(nodes) + 100))
    if any(color[v] == 0 and has_cycle(v) for v in range(len(nodes))):
        errors.append(f"{where}: causality graph has a cycle")

    # A deduped node keeps the generation of the first path that
    # reached it, so chain_depth may exceed the deepest node's
    # generation -- but never sit below it or above the search bound.
    chain = doc["chain_depth"]
    max_gen = max(n["generation"] for n in nodes)
    if chain < max_gen:
        errors.append(f"{where}: chain_depth {chain} < deepest node "
                      f"generation {max_gen}")
    if chain > doc["generations"]:
        errors.append(f"{where}: chain_depth {chain} > generation bound "
                      f"{doc['generations']}")

    txs = [r["tx"] for r in records]
    if txs != sorted(set(txs)):
        errors.append(f"{where}: records not sorted ascending by tx")
    node_txs = {n["tx"] for n in nodes}
    errors += [f"{where}: record tx {tx} not in the node list"
               for tx in txs if tx not in node_txs]
    return errors


def reconcile_forensics(stats_doc, trace):
    """Forensics totals vs. the flightrec group, and the profile's
    attempt-tick charges vs. the traced commit and abort records."""
    errors = []
    forensics = stats_doc.get("forensics")
    if forensics is None:
        return ["stats json has no forensics section"]
    groups = stats_doc["groups"]
    dropped = groups.get("flightrec", {}).get("dropped_records", {}) \
        .get("value")
    if dropped != forensics["dropped_records"]:
        errors.append(f"flightrec.dropped_records {dropped} != forensics "
                      f"section {forensics['dropped_records']}")
    profile = stats_doc.get("profile")
    if profile is None:
        return errors + ["stats json has no profile section"]
    ticks = {"tx_commit": 0, "tx_abort": 0}
    for cap in trace["captures"]:
        if cap["dropped"]:
            errors.append(f"trace capture {cap['label']} dropped "
                          f"{cap['dropped']} events")
        for e in cap["events"]:
            if e["ev"] in ticks:
                ticks[e["ev"]] += e["t"] - e.get("c", 0)
    for ev, charge in (("tx_commit", "committed_tx_ticks"),
                       ("tx_abort", "aborted_tx_ticks")):
        want = profile["supervisor"].get(charge)
        if ticks[ev] != want:
            errors.append(f"{ev} attempt ticks {ticks[ev]} != profile "
                          f"{charge} {want}")
    return errors


def check_dump(docs, stats_doc, trace):
    """The armed run: every document's graph, the forensics and
    attempt-tick reconciliations, and a starvation-grant capture with a
    killer chain (the token fires under retry budget 6 and zipf
    0.99)."""
    errors = []
    for i, doc in enumerate(docs):
        errors += check_dag(doc, f"doc {i}")
    errors += reconcile_forensics(stats_doc, trace)
    forensics = stats_doc.get("forensics", {})
    if forensics.get("armed") is not True:
        errors.append("armed run reports forensics.armed != true")
    if forensics.get("postmortems") != len(docs):
        errors.append(f"forensics.postmortems "
                      f"{forensics.get('postmortems')} != {len(docs)} "
                      "dumped documents")
    grants = [d for d in docs if d["trigger"]["kind"] == "starvation-grant"]
    if not grants:
        errors.append("no starvation-grant post-mortem captured")
    elif not any(d["edges"] for d in grants):
        errors.append("starvation-grant post-mortems have no causality "
                      "edges")
    return errors


def check_control(stats_doc):
    """Off by default: a run without forensics flags is disarmed."""
    forensics = stats_doc.get("forensics")
    if forensics is None:
        return ["control run has no forensics section"]
    errors = []
    if forensics["armed"] is not False:
        errors.append("control run reports armed != false")
    if forensics["postmortems"] != 0:
        errors.append("control run captured post-mortems")
    return errors


def check_run(ptm_sim):
    ptm_sim = os.path.abspath(ptm_sim)
    run = [ptm_sim, "--workload", "kv", "--system", "sel-ptm",
           "--scale", "0", "--threads", "4", "--seed", "7",
           "--wl-opt", "zipf=0.99", "--retry-budget", "6"]
    with tempfile.TemporaryDirectory() as tmp:
        pm_path = os.path.join(tmp, "pm.json")
        stats_path = os.path.join(tmp, "stats.json")
        trace_path = os.path.join(tmp, "trace.jsonl")
        proc = subprocess.run(
            run + ["--profile", "--postmortem", pm_path,
                   "--stats-json", stats_path, "--trace", trace_path,
                   "--trace-categories", "tx"],
            capture_output=True, text=True)
        if proc.returncode != 0:
            return [f"ptm_sim exited {proc.returncode}: "
                    f"{proc.stderr.strip()[:500]}"]
        docs, errors = read_file(pm_path, read_postmortem)
        stats_doc, errs = read_file(stats_path, read_stats)
        errors += errs
        trace, errs = read_file(trace_path, read_trace)
        errors += errs
        if not errors:
            errors = check_dump(docs, stats_doc, trace)
        if "post-mortem" not in proc.stderr:
            errors.append("armed run printed no human post-mortem "
                          "block on stderr")

        off_stats = os.path.join(tmp, "off.json")
        proc = subprocess.run(run + ["--stats-json", off_stats],
                              capture_output=True, text=True, cwd=tmp)
        if proc.returncode != 0:
            errors.append(f"control run exited {proc.returncode}")
        if "post-mortem" in proc.stderr or "post-mortem" in proc.stdout:
            errors.append("control run printed a post-mortem block")
        off, errs = read_file(off_stats, read_stats)
        errors += errs or check_control(off)
    return errors


def self_test():
    doc = SAMPLES["postmortem"][0]
    failures = rejections(lambda d: check_dag(d, "doc"), doc, [
        (["edges"], [{"from": 0, "to": 1}, {"from": 1, "to": 0}],
         "cycle"),
        (["nodes", 1, "tick"], 95, "strictly before"),
        (["records"], doc["records"][::-1], "sorted"),
        (["records", 0, "tx"], 9, "tx 9 not in the node list"),
        (["chain_depth"], 0, "< deepest node generation 1"),
        (["chain_depth"], 9, "> generation bound 8"),
    ])
    # One aborted attempt (begin 5, abort 9) and its committed retry
    # (begin 12, commit 20): 4 aborted and 8 committed attempt ticks.
    stats = mutate(SAMPLES["stats"], ["profile", "supervisor"],
                   {"committed_tx_ticks": 8, "aborted_tx_ticks": 4})
    trace = {"captures": [{"label": "kv/Sel-PTM", "recorded": 4,
                           "dropped": 0, "events": [
        {"t": 5, "ev": "tx_begin", "tx": 1},
        {"t": 9, "ev": "tx_abort", "tx": 1, "c": 5},
        {"t": 12, "ev": "tx_restart", "tx": 1, "a": 2},
        {"t": 20, "ev": "tx_commit", "tx": 1, "c": 12}]}]}
    failures += rejections(
        lambda d: reconcile_forensics(d["stats"], d["trace"]),
        {"stats": stats, "trace": trace}, [
            (["stats", "groups", "flightrec", "dropped_records", "value"],
             2, "dropped_records 2"),
            (["stats", "profile"], DELETE, "no profile section"),
            (["trace", "captures", 0, "dropped"], 3, "dropped 3 events"),
            (["trace", "captures", 0, "events", 1, "c"], 6,
             "tx_abort attempt ticks 3 != profile aborted_tx_ticks 4"),
            (["trace", "captures", 0, "events", 3, "c"], 10,
             "tx_commit attempt ticks 10 != profile committed_tx_ticks 8"),
        ])
    armed = mutate(mutate(stats, ["forensics", "armed"], True),
                   ["forensics", "postmortems"], 1)
    grant = mutate(doc, ["trigger", "kind"], "starvation-grant")
    failures += rejections(
        lambda d: check_dump(d["docs"], d["stats"], trace),
        {"docs": [grant], "stats": armed}, [
            (["stats", "forensics", "armed"], False, "armed != true"),
            (["stats", "forensics"], DELETE, "postmortems None != 1"),
            (["docs"], [grant, grant], "postmortems 1 != 2"),
            (["docs", 0, "trigger", "kind"], "watchdog",
             "no starvation"),
            (["docs", 0, "edges"], [], "no causality edges"),
        ])
    failures += rejections(check_control, stats, [
        (["forensics"], DELETE, "no forensics section"),
        (["forensics", "armed"], True, "armed != false"),
        (["forensics", "postmortems"], 1, "captured post-mortems"),
    ])
    return report(failures)


def main():
    if len(sys.argv) == 2 and sys.argv[1] == "--self-test":
        return self_test()
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    errors = check_run(sys.argv[1])
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print("postmortem: " + ("ok" if not errors else
                            f"{len(errors)} error(s)"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
