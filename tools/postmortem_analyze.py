#!/usr/bin/env python3
"""Summarize a ptm-postmortem-v1 dump file.

Reads the concatenated JSON documents a forensics-armed run appends to
its --postmortem file and reports:

  * trigger mix — how many captures each trigger kind produced;
  * killer rankings — transactions ordered by conflicts won (kills),
    with their abort/attempt counts and lost ticks, aggregated over
    every record in the dump (each transaction counted once, from its
    latest snapshot);
  * chain-depth histogram — how deep the abort-causality chains ran,
    one sample per capture;
  * page pressure — which pages the recorded abort events named, and,
    when --stats points at the run's ptm-stats-v1 JSON, whether each
    one also appears in the heatmap's hot-page top-k (a page that
    dominates post-mortems but is missing there usually means the
    heatmap k is too small).

--json emits the same analysis as one machine-readable document. Input
ptm_schema rejects (wrong schema tag, malformed documents) is reported
and exits 1 with no analysis.

Usage:
    postmortem_analyze.py DUMP_FILE [--stats STATS_JSON] [--top N]
                          [--json]
"""

import argparse
import json
import os
import sys
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ptm_schema import read_file, read_postmortem, read_stats  # noqa: E402


def analyze(docs, stats_doc=None, top=10):
    """Aggregate the dump into one analysis dict."""
    triggers = Counter(d["trigger"]["kind"] for d in docs)
    depth_hist = Counter(d["chain_depth"] for d in docs)
    # Latest snapshot per transaction: records are point-in-time
    # copies, so a tx seen in several captures keeps the newest one.
    records = {r["tx"]: r for d in docs for r in d["records"]}
    pages = Counter(n["page"] for d in docs for n in d["nodes"]
                    if n["page"] >= 0)
    killers = sorted((r for r in records.values() if r["kills"]),
                     key=lambda r: (-r["kills"], r["tx"]))[:top]

    hot = None
    if stats_doc is not None and "hot_pages" in stats_doc:
        hot = {e["page"]
               for e in stats_doc["hot_pages"]["conflicts"]["pages"]}
    page_rows = []
    for page, count in sorted(pages.items(),
                              key=lambda kv: (-kv[1], kv[0]))[:top]:
        row = {"page": page, "abort_events": count}
        if hot is not None:
            row["in_heatmap_topk"] = page in hot
        page_rows.append(row)

    return {
        "captures": len(docs),
        "triggers": dict(triggers),
        "repro": docs[0]["repro"],
        "killers": [{k: r[k] for k in (
            "tx", "kills", "attempts", "aborts", "lost_ticks",
            "committed")} for r in killers],
        "chain_depth_histogram": {
            str(d): depth_hist[d] for d in sorted(depth_hist)},
        "pages": page_rows,
        "heatmap_crossref": hot is not None,
    }


def print_report(a):
    print(f"captures: {a['captures']}")
    for kind in sorted(a["triggers"]):
        print(f"  {kind}: {a['triggers'][kind]}")
    if a["repro"]:
        print(f"repro: {a['repro']}")

    print("\nkiller ranking (by conflicts won):")
    if not a["killers"]:
        print("  none recorded")
    for r in a["killers"]:
        tail = " (committed)" if r["committed"] else ""
        print(f"  tx {r['tx']}: kills {r['kills']} "
              f"attempts {r['attempts']} aborts {r['aborts']} "
              f"lost {r['lost_ticks']}{tail}")

    print("\nchain depth histogram:")
    hist = a["chain_depth_histogram"]
    peak = max(hist.values(), default=1)
    for depth in sorted(hist, key=int):
        n = hist[depth]
        bar = "#" * max(1, round(40 * n / peak))
        print(f"  depth {depth:>2}: {n:>4} {bar}")

    print("\npage pressure (abort events naming the page):")
    if not a["pages"]:
        print("  no pages recorded")
    for row in a["pages"]:
        note = ""
        if "in_heatmap_topk" in row:
            note = ("  [heatmap top-k]" if row["in_heatmap_topk"]
                    else "  [NOT in heatmap top-k]")
        print(f"  page {row['page']}: {row['abort_events']}{note}")
    if a["pages"] and not a["heatmap_crossref"]:
        print("  (pass --stats with a --heatmap run's JSON to "
              "cross-reference the hot-page top-k)")


def main():
    ap = argparse.ArgumentParser(
        description="Summarize a ptm-postmortem-v1 dump file.")
    ap.add_argument("dump", help="file written by --postmortem")
    ap.add_argument("--stats", metavar="JSON",
                    help="ptm-stats-v1 JSON of the same run, for the "
                         "hot-page cross-reference")
    ap.add_argument("--top", type=int, default=10, metavar="N",
                    help="rows per ranking (default 10)")
    ap.add_argument("--json", action="store_true",
                    help="emit the analysis as JSON")
    args = ap.parse_args()

    docs, errors = read_file(args.dump, read_postmortem)
    stats_doc = None
    if args.stats:
        stats_doc, errs = read_file(args.stats, read_stats)
        errors += errs
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    if errors:
        return 1

    a = analyze(docs, stats_doc, top=args.top)
    if args.json:
        json.dump(a, sys.stdout, indent=2)
        print()
    else:
        print_report(a)
    return 0


if __name__ == "__main__":
    sys.exit(main())
