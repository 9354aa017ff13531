/**
 * @file
 * Post-mortem emission: ptm-postmortem-v1 JSON and the human block.
 *
 * The flight recorder (sim/flightrec) captures PostmortemReports; this
 * module serializes them. The System wires FlightRecorder::onReport to
 * these emitters at trigger time so dumps appear the moment the
 * starvation watchdog / auditor / chaos trigger fires, not at run end.
 *
 * Schema ptm-postmortem-v1 (one report per JSON document; a dump file
 * holds the run's reports as concatenated documents, like the
 * timeseries JSONL stream tools already parse with raw_decode):
 *
 *     { "schema": "ptm-postmortem-v1",
 *       "trigger": { "kind": "watchdog" | "starvation-grant" |
 *                            "audit-violation" | "chaos-inject" |
 *                            "abort-threshold",
 *                    "tick": N, "tx": N, "detail": "..." },
 *       "repro": "...",
 *       "generations": N, "chain_depth": N,
 *       "nodes": [ { "id": N, "tx": N, "tick": N, "attempt": N,
 *                    "cause": "conflict" | ..., "where": N | -1,
 *                    "page": N | -1, "winner": N | -1,
 *                    "generation": N }, ... ],
 *       "edges": [ { "from": N, "to": N }, ... ],
 *       "records": [ { "tx": N, "thread": N, "proc": N,
 *                      "first_begin": N, "last_begin": N,
 *                      "end_tick": N, "committed": bool,
 *                      "attempts": N, "aborts": N, "kills": N,
 *                      "spt_misses": N, "tav_misses": N,
 *                      "shadow_allocs": N, "lost_ticks": N,
 *                      "recent_aborts": [ { "tick": N, "attempt": N,
 *                                           "cause": "...",
 *                                           "where": N | -1,
 *                                           "winner": N | -1 },
 *                                         ... ] }, ... ],
 *       "flightrec": { "depth": N, "live": N, "retired": N,
 *                      "dropped_records": N } }
 *
 * "flightrec" is the ring at capture: its capacity in events, the
 * uncommitted and committed records folded, and the events it had
 * overwritten (non-zero marks a truncated history).
 *
 * Edges always point from a victim's abort node to an abort of its
 * killer at a strictly earlier tick (tick 0 = terminal node), so the
 * node list is already a reverse topological order; the checker
 * verifies acyclicity independently.
 */

#ifndef PTM_HARNESS_FORENSICS_IO_HH
#define PTM_HARNESS_FORENSICS_IO_HH

#include <ostream>

#include "sim/flightrec.hh"

namespace ptm
{

/** Emit @p r as one ptm-postmortem-v1 JSON document to @p os. */
void emitPostmortemJson(std::ostream &os, const FlightRecorder &rec,
                        const PostmortemReport &r);

/** Print the human-readable post-mortem block (repro line included). */
void printPostmortem(std::ostream &os, const FlightRecorder &rec,
                     const PostmortemReport &r);

} // namespace ptm

#endif // PTM_HARNESS_FORENSICS_IO_HH
