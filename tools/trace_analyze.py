#!/usr/bin/env python3
"""Analysis toolkit for ptm-trace-v1 JSONL traces.

Reads a trace written with --trace FILE --trace-format jsonl and
reports, per capture:

  - an event census and the tick span covered by the ring buffer;
  - the conflict graph (winner -> loser edges with block addresses),
    its hottest edges, and the most conflicted blocks and pages;
  - abort chains: runs of conflict edges where the loser of one edge
    comes back as the winner of a later one (abort propagation);
  - wasted work: ticks spent in transaction attempts that aborted,
    versus ticks in attempts that committed.

Usage:
  trace_analyze.py FILE [--top N] [--json] [--dot FILE]

--top N   show the N hottest edges/blocks/pages (default 5)
--json    emit the full analysis as one JSON object on stdout
--dot     write the merged conflict graph in Graphviz DOT form

The file is read with ptm_schema.read_trace; a file it rejects (wrong
schema tag, malformed lines) is reported and exits 1 with no
analysis.
"""

import argparse
import json
import os
import sys
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ptm_schema import ABORT_CAUSES, read_file, read_trace  # noqa: E402

PAGE_SHIFT = 12
BLOCK_SHIFT = 6


def txname(tx):
    return "non-tx" if tx is None else f"tx{tx}"


def analyze(cap, top):
    ev = cap["events"]
    census = Counter(e["ev"] for e in ev)
    span = (ev[0]["t"], ev[-1]["t"]) if ev else (0, 0)

    # Conflict graph: winner -> loser, with per-block counts. A
    # missing "tx" field means the winner was a non-transactional
    # access (those always win arbitration).
    edges = Counter()
    blocks = Counter()
    pages = Counter()
    edge_list = []
    for e in ev:
        if e["ev"] != "conflict_edge":
            continue
        w, l = e.get("tx"), e.get("tx2")
        addr = e.get("a", 0)
        edges[(w, l)] += 1
        blocks[addr >> BLOCK_SHIFT] += 1
        pages[addr >> PAGE_SHIFT] += 1
        edge_list.append((e["t"], w, l))

    # Abort chains: when the loser of an edge later wins one, the
    # second victim's abort is (transitively) downstream of the first
    # edge. chain[tx] is the depth tx sits at; parents reconstruct the
    # deepest path.
    chain = {}
    parent = {}
    deepest, deepest_tx = 0, None
    for t, w, l in edge_list:
        if l is None:
            continue
        depth = chain.get(w, 0) + 1 if w is not None else 1
        if depth > chain.get(l, 0):
            chain[l] = depth
            parent[l] = (w, t)
            if depth > deepest:
                deepest, deepest_tx = depth, l
    chain_path = []
    tx = deepest_tx
    while tx is not None and len(chain_path) <= deepest:
        w, t = parent.get(tx, (None, None))
        chain_path.append({"tx": tx, "aborted_by": w, "tick": t})
        tx = w
    # Parents can deepen after a depth is recorded, so the walked
    # path is the authoritative hop count.
    deepest = len(chain_path)

    # Wasted work: every commit and abort record carries its attempt's
    # begin tick ("c"), so each closes an attempt of t - c ticks even
    # when the begin fell off the ring.
    wasted = useful = 0
    aborted_attempts = committed = 0
    abort_causes = Counter()
    for e in ev:
        kind = e["ev"]
        if kind == "tx_commit":
            useful += e["t"] - e.get("c", 0)
            committed += 1
        elif kind == "tx_abort":
            wasted += e["t"] - e.get("c", 0)
            aborted_attempts += 1
            reason = e.get("a", 0)
            abort_causes[ABORT_CAUSES[reason]
                         if 0 <= reason < len(ABORT_CAUSES)
                         else f"reason {reason}"] += 1

    total = wasted + useful
    return {
        "label": cap["label"],
        "recorded": cap["recorded"],
        "dropped": cap["dropped"],
        "tick_span": {"first": span[0], "last": span[1]},
        "event_census": dict(census.most_common()),
        "conflicts": {
            "edges": sum(edges.values()),
            "top_edges": [
                {"winner": txname(w), "loser": txname(l), "count": c}
                for (w, l), c in edges.most_common(top)],
            "top_blocks": [
                {"block": hex(b << BLOCK_SHIFT), "count": c}
                for b, c in blocks.most_common(top)],
            "top_pages": [
                {"page": hex(p << PAGE_SHIFT), "count": c}
                for p, c in pages.most_common(top)],
        },
        "abort_chain": {
            "deepest": deepest,
            "path": list(reversed(chain_path)),
        },
        "wasted_work": {
            "committed_attempts": committed,
            "aborted_attempts": aborted_attempts,
            "abort_causes": dict(abort_causes.most_common()),
            "useful_ticks": useful,
            "wasted_ticks": wasted,
            "wasted_pct": 100.0 * wasted / total if total else 0.0,
        },
    }


def write_dot(path, captures):
    """Merge every capture's conflict graph into one DOT digraph."""
    edges = Counter()
    for cap in captures:
        for e in cap["events"]:
            if e["ev"] == "conflict_edge":
                edges[(e.get("tx"), e.get("tx2"))] += 1
    with open(path, "w") as f:
        f.write("digraph conflicts {\n")
        f.write("  rankdir=LR;\n")
        for (w, l), c in edges.most_common():
            f.write(f'  "{txname(w)}" -> "{txname(l)}" '
                    f'[label="{c}"];\n')
        f.write("}\n")


def report(a, out):
    print(f"== {a['label']} ==", file=out)
    print(f"  events   {a['recorded']} recorded, {a['dropped']} "
          f"dropped, ticks {a['tick_span']['first']}.."
          f"{a['tick_span']['last']}", file=out)
    census = ", ".join(f"{k}:{v}"
                       for k, v in list(a["event_census"].items())[:8])
    print(f"  census   {census}", file=out)
    c = a["conflicts"]
    print(f"  conflict {c['edges']} edges", file=out)
    for e in c["top_edges"]:
        print(f"    {e['winner']:>8} -> {e['loser']:<8} x{e['count']}",
              file=out)
    if c["top_blocks"]:
        print("    hot blocks: " +
              ", ".join(f"{b['block']}({b['count']})"
                        for b in c["top_blocks"]), file=out)
        print("    hot pages:  " +
              ", ".join(f"{p['page']}({p['count']})"
                        for p in c["top_pages"]), file=out)
    ch = a["abort_chain"]
    if ch["deepest"]:
        path = " -> ".join(
            [txname(ch["path"][0]["aborted_by"])] +
            [txname(h["tx"]) for h in ch["path"]])
        print(f"  chains   deepest abort chain: {ch['deepest']} hops "
              f"({path})", file=out)
    w = a["wasted_work"]
    print(f"  work     {w['committed_attempts']} commits, "
          f"{w['aborted_attempts']} aborted attempts; "
          f"{w['wasted_ticks']} wasted / {w['useful_ticks']} useful "
          f"ticks ({w['wasted_pct']:.1f}% wasted)", file=out)
    if w["abort_causes"]:
        print("           causes: " +
              ", ".join(f"{k}:{v}"
                        for k, v in w["abort_causes"].items()),
              file=out)


def main():
    ap = argparse.ArgumentParser(
        description="Analyze a ptm-trace-v1 JSONL trace.")
    ap.add_argument("file")
    ap.add_argument("--top", type=int, default=5)
    ap.add_argument("--json", action="store_true")
    ap.add_argument("--dot", metavar="FILE")
    args = ap.parse_args()

    data, errors = read_file(args.file, read_trace)
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    if errors:
        return 1
    captures = data["captures"]

    analyses = [analyze(c, args.top) for c in captures]
    if args.dot:
        write_dot(args.dot, captures)
    if args.json:
        json.dump({"schema": "ptm-trace-analysis-v1",
                   "captures": analyses}, sys.stdout, indent=1)
        print()
    else:
        for a in analyses:
            report(a, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
