/**
 * @file
 * Machine-readable statistics emission.
 *
 * Serializes a run manifest (workload, system parameters, seed, build
 * id, wall time) plus a StatSnapshot as JSON — the "ptm-stats-v1"
 * schema consumed by tools/check_stats_json.py and any downstream
 * analysis. Also provides:
 *
 *  - JsonWriter: a small streaming JSON writer (escaping, commas,
 *    indentation) usable by any front end;
 *  - BenchRecorder: row-oriented "ptm-bench-v1" result files for the
 *    bench_* binaries' --json flag (BENCH_*.json trajectories);
 *  - the ptm-timeseries-v1 records the System streams, and the file
 *    and stream sinks every ptm-* document is written to.
 *
 * Schema ptm-stats-v1 (one run):
 *
 *     { "schema": "ptm-stats-v1",
 *       "manifest": { "tool": ..., "workload": ..., "system": ...,
 *                     "granularity": ..., "threads": N, "scale": N,
 *                     "workload_options": { "<key>": "<value>", ... },
 *                     "seed": N, "cycles": N, "verified": bool,
 *                     "wall_seconds": x, "events_per_sec": x,
 *                     "sim_ticks_per_wall_sec": x, "git": "...",
 *                     "params": { ... SystemParams ... } },
 *       "groups": { "<group>": { "<stat>": { "kind": "counter",
 *                                            "value": N }, ... } } }
 *
 * When a contention heatmap ran, a top-level "hot_pages" section
 * carries the per-metric top-K attributions (see emitRunJson).
 *
 * Stat encodings by kind: counter {value}, average {mean, samples},
 * time_weighted {mean}, scalar {value}, distribution {samples, sum,
 * mean, min, max, bucket_lo, bucket_width, underflow, overflow,
 * counts[]}.
 */

#ifndef PTM_HARNESS_STATS_IO_HH
#define PTM_HARNESS_STATS_IO_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <variant>
#include <vector>

#include "ptm/heatmap.hh"
#include "sim/config.hh"
#include "sim/flightrec.hh"
#include "sim/profile.hh"
#include "sim/stats.hh"
#include "sim/timeseries.hh"
#include "sim/types.hh"

namespace ptm
{

/**
 * Streaming JSON writer: handles escaping, commas and indentation.
 * The one JSON formatter of the simulator: every ptm-* document and
 * stream is written through it.
 *
 * Pretty (the default) indents two spaces per level; Compact writes
 * a document on one line with no whitespace, the JSONL records of the
 * trace and time-series streams. In either style a top-level object
 * ends its line, so one writer can emit a whole JSONL stream.
 * Integral numbers below 1e15 print as integers, others as "%.9g";
 * non-finite numbers print as null.
 */
class JsonWriter
{
  public:
    enum class Style { Pretty, Compact };

    explicit JsonWriter(std::ostream &os, Style style = Style::Pretty)
        : os_(os), compact_(style == Style::Compact)
    {}

    /** @name Structure */
    /// @{
    void beginObject();
    void endObject();
    /**
     * @param lines  Compact style: put each element, and the closing
     *               bracket, on a line of its own (the Chrome trace's
     *               traceEvents layout). Pretty style ignores it.
     */
    void beginArray(bool lines = false);
    void endArray();
    /** Next member's key (inside an object). */
    void key(const std::string &k);
    /// @}

    /** @name Values */
    /// @{
    void value(const std::string &v);
    void value(const char *v) { value(std::string(v)); }
    void value(double v);
    void value(std::uint64_t v);
    void value(std::int64_t v);
    void value(int v) { value(std::int64_t(v)); }
    void value(unsigned v) { value(std::uint64_t(v)); }
    void value(bool v);
    void null();
    /// @}

    /** key() + value() in one call. */
    template <typename T>
    void
    member(const std::string &k, T v)
    {
        key(k);
        value(v);
    }

  private:
    /** One open object or array. */
    struct Level
    {
        bool haveValue = false; //!< a value was already emitted
        bool lines = false;     //!< compact array, one element per line
    };

    void separate();
    void indent();

    std::ostream &os_;
    bool compact_;
    std::vector<Level> levels_;
    bool pending_key_ = false;
};

/** Write @p s JSON-escaped (with quotes) to @p os. */
void jsonEscape(std::ostream &os, const std::string &s);

/**
 * Write one document to @p path ("-" = stdout) by calling @p emit on
 * the open stream.
 * @return true on success; on failure @p err (if non-null) explains.
 */
bool writeOutput(const std::string &path,
                 const std::function<void(std::ostream &)> &emit,
                 std::string *err = nullptr);

/**
 * Resolve a stream sink for @p path: nullptr when empty, std::cerr
 * for "stderr", otherwise a process-lifetime file stream. The first
 * open of a file truncates it; subsequent opens within the process
 * (bench sweeps running many Systems) append, so one file carries
 * every run's stream back to back. The time-series and post-mortem
 * streams write through it.
 */
std::ostream *streamSink(const std::string &path);

/** Identification of one simulator run for the JSON manifest. */
struct RunManifest
{
    std::string tool;        //!< emitting binary ("ptm_sim", ...)
    std::string workload;
    /**
     * The run's resolved workload options (defaults filled in), in
     * declaration order; emitted as the "workload_options" object.
     * Same shape as WorkloadOptList.
     */
    std::vector<std::pair<std::string, std::string>> workloadOptions;
    unsigned threads = 0;
    int scale = 0;
    Tick cycles = 0;
    bool verified = false;
    double wallSeconds = 0;
    /** Host throughput: simulated events executed per wall-second. */
    double eventsPerSec = 0;
    /**
     * Host throughput over the event loop only (sys.run() span,
     * excluding workload build/verify): the scaling regression metric.
     */
    double simEventsPerSec = 0;
    /** Host throughput: simulated ticks per wall-second. */
    double simTicksPerWallSec = 0;
    /** Full system configuration; emitted when non-null. */
    const SystemParams *params = nullptr;
};

/** Build id baked in at configure time ("unknown" outside git). */
const char *gitDescribe();

/**
 * Emit one run as ptm-stats-v1 JSON. When @p prof is non-null and
 * enabled a top-level "profile" section is added:
 *
 *     "profile": { "elapsed_ticks": N,
 *                  "cores": [ { "total": N,
 *                               "ticks": { "<bucket>": N, ... } }, ... ],
 *                  "supervisor": { "<charge>": N, ... },
 *                  "host": { "sample_interval": N,
 *                            "sites": [ { "name": ..., "events": N,
 *                                         "sampled": N, "sampled_ns": N,
 *                                         "estimated_ns": N }, ... ] } }
 *
 * Every core's bucket ticks sum to its "total", which equals
 * "elapsed_ticks". "host" appears only when @p host is non-null and
 * enabled.
 *
 * When @p heat is non-null and enabled a top-level "hot_pages"
 * section is added:
 *
 *     "hot_pages": { "k": N,
 *                    "conflicts": { "total": N, "pages": [ ... ],
 *                                   "blocks": [ ... ] },
 *                    "aborts": { "<cause>": { "total": N,
 *                                             "pages": [ ... ] } },
 *                    "spt_misses": { "total": N, "pages": [ ... ] },
 *                    "tav_misses": { "total": N, "pages": [ ... ] },
 *                    "shadow_allocs": { "total": N, "pages": [ ... ] } }
 *
 * where each list entry is { "page": N | -1, "count": N, "err": N }
 * (blocks use "block"; -1 is the unattributed sentinel) and every
 * list's counts sum to its "total" when the key set fit within k.
 *
 * When @p forensics is non-null and enabled (the flight recorder ran)
 * a top-level "forensics" section is added:
 *
 *     "forensics": { "depth": N, "generations": N, "armed": bool,
 *                    "live_records": N, "retired_records": N,
 *                    "dropped_records": N, "max_lost_ticks": N,
 *                    "max_lost_tx": N | -1, "deepest_chain": N,
 *                    "postmortems": N, "dropped_reports": N,
 *                    "top_killers": [ { "tx": N, "kills": N,
 *                                       "lost_ticks": N }, ... ] }
 *
 * It is folded from the ring at the run's end: depth is the ring's
 * capacity in events, live/retired_records count the uncommitted and
 * committed transactions folded, dropped_records the events the ring
 * overwrote. max_lost_ticks and the killers' lost_ticks are wall ticks of
 * aborted attempts, the same arithmetic as the profile's
 * aborted_tx_ticks charge, over the folded records.
 */
void emitRunJson(std::ostream &os, const RunManifest &manifest,
                 const StatSnapshot &snap,
                 const ProfSnapshot *prof = nullptr,
                 const HostProfile *host = nullptr,
                 const HeatmapSnapshot *heat = nullptr,
                 const ForensicsSnapshot *forensics = nullptr);

/**
 * Write ptm-stats-v1 JSON to @p path ("-" = stdout).
 * @return true on success; on failure @p err (if non-null) explains.
 */
bool writeRunJson(const std::string &path, const RunManifest &manifest,
                  const StatSnapshot &snap, std::string *err = nullptr,
                  const ProfSnapshot *prof = nullptr,
                  const HostProfile *host = nullptr,
                  const HeatmapSnapshot *heat = nullptr,
                  const ForensicsSnapshot *forensics = nullptr);

/**
 * One top-K list as [{"<keyname>":N|-1,"count":N,"err":N}, ...] of at
 * most @p max entries (-1 is the unattributed sentinel): the
 * "hot_pages" lists of the stats document and the time series.
 */
void emitHeatList(JsonWriter &w, const char *keyname,
                  const std::vector<SpaceSavingTopK::Entry> &entries,
                  std::size_t max = SIZE_MAX);

/**
 * Emit the ptm-timeseries-v1 header record of one run (see
 * sim/timeseries.hh for the schema).
 */
void emitTimeseriesHeader(std::ostream &os, const std::string &system,
                          std::uint64_t seed, unsigned cores,
                          Tick interval);

/**
 * Emit one ptm-timeseries-v1 interval record; @p ts names its deltas.
 * When @p hot is non-null its first 8 entries (the heatmap's hottest
 * conflict pages) are added as "hot_pages".
 */
void emitTimeseriesInterval(
    std::ostream &os, const TimeseriesCapture &ts,
    const TimeseriesInterval &iv,
    const std::vector<SpaceSavingTopK::Entry> *hot = nullptr);

/**
 * Row-oriented results of one bench binary, written as ptm-bench-v1:
 *
 *     { "schema": "ptm-bench-v1", "bench": "...", "git": "...",
 *       "rows": [ { "<field>": <value>, ... }, ... ] }
 */
class BenchRecorder
{
  public:
    explicit BenchRecorder(std::string bench) : bench_(std::move(bench))
    {}

    /** Start a new result row. */
    BenchRecorder &
    beginRow()
    {
        rows_.emplace_back();
        return *this;
    }

    /** @name Add a field to the current row */
    /// @{
    BenchRecorder &field(const std::string &k, const std::string &v)
    {
        return add(k, v);
    }
    BenchRecorder &field(const std::string &k, const char *v)
    {
        return add(k, std::string(v));
    }
    BenchRecorder &field(const std::string &k, double v)
    {
        return add(k, v);
    }
    BenchRecorder &field(const std::string &k, std::uint64_t v)
    {
        return add(k, v);
    }
    BenchRecorder &field(const std::string &k, unsigned v)
    {
        return add(k, std::uint64_t(v));
    }
    BenchRecorder &field(const std::string &k, bool v)
    {
        return add(k, v);
    }
    /// @}

    /**
     * Write the accumulated rows to @p path ("-" = stdout; empty =
     * no-op so call sites need no flag check).
     * @return true on success or empty path.
     */
    bool writeJson(const std::string &path) const;

  private:
    using Value = std::variant<std::string, double, std::uint64_t, bool>;

    BenchRecorder &
    add(const std::string &k, Value v)
    {
        rows_.back().emplace_back(k, std::move(v));
        return *this;
    }

    std::string bench_;
    std::vector<std::vector<std::pair<std::string, Value>>> rows_;
};

} // namespace ptm

#endif // PTM_HARNESS_STATS_IO_HH
