/**
 * @file
 * Trace serialization: ptm-trace-v1 JSONL and Chrome trace-event JSON.
 *
 * A TraceCapture is the portable result of one traced run: the ring
 * buffer's surviving events of the traced categories, the ring's
 * recorded/dropped totals (which also count the flight recorder's
 * record types), and the run's time-series capture. Front ends
 * collect one capture per run and write them all into a single file,
 * so a bench sweep lands as one Perfetto-loadable timeline.
 *
 * Schema ptm-trace-v1 (JSONL, one JSON object per line):
 *
 *     {"schema":"ptm-trace-v1","captures":N}
 *     {"type":"capture","label":"fft/sel-ptm","recorded":N,
 *      "dropped":N}
 *     {"type":"ev","t":TICK,"ev":"tx_begin","cat":"tx","core":C,
 *      "th":T,"tx":ID,"tx2":ID,"a":N,"b":N,"v":X}
 *     ...
 *
 * Event lines omit fields holding their default value (core/th when
 * unknown, tx/tx2 when 0, a/b when 0, v when 0.0) to keep the stream
 * compact; consumers default absent fields accordingly.
 *
 * The Chrome exporter renders each transaction attempt as a B/E
 * duration slice on its thread's track (threads, not cores: a
 * transaction survives preemption and core migration, so per-core
 * slices could interleave and break slice nesting), conflict edges as
 * s/f flow events from the winner's track to the loser's, and the
 * remaining event kinds as instant events. Its "C" counter tracks
 * (commits, aborts, conflicts, evictions, context switches, page
 * faults, shadow allocations and live shadow pages) are running sums
 * of the time series' counter deltas, one point per interval end; the
 * last point, at the run's end tick, equals the stats total. JSONL
 * carries no counters: use --timeseries for counters over time.
 */

#ifndef PTM_HARNESS_TRACE_IO_HH
#define PTM_HARNESS_TRACE_IO_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/timeseries.hh"
#include "sim/trace.hh"

namespace ptm
{

/** The portable result of one traced run. */
struct TraceCapture
{
    /** Display label, conventionally "workload/system". */
    std::string label;
    /** Surviving ring events of the traced categories, oldest first. */
    std::vector<TraceEvent> events;
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;
    /** The run's time series: the source of the Chrome counter tracks. */
    TimeseriesCapture timeseries;
};

/** Snapshot @p t and the run's time series @p ts, labelled @p label. */
TraceCapture captureTrace(const Tracer &t, std::string label,
                          TimeseriesCapture ts);

/** Emit captures as ptm-trace-v1 JSONL. */
void emitTraceJsonl(std::ostream &os,
                    const std::vector<TraceCapture> &caps);

/** Emit captures as Chrome trace-event JSON. */
void emitTraceChrome(std::ostream &os,
                     const std::vector<TraceCapture> &caps);

/**
 * Write captures to @p path ("-" = stdout) in @p fmt.
 * @return true on success; on failure @p err (if non-null) explains.
 */
bool writeTrace(const std::string &path, TraceFormat fmt,
                const std::vector<TraceCapture> &caps,
                std::string *err = nullptr);

} // namespace ptm

#endif // PTM_HARNESS_TRACE_IO_HH
