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
 *    bench_* binaries' --json flag (BENCH_*.json trajectories).
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

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "ptm/heatmap.hh"
#include "sim/config.hh"
#include "sim/flightrec.hh"
#include "sim/profile.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace ptm
{

/** Streaming JSON writer: handles escaping, commas and indentation. */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os_(os) {}

    /** @name Structure */
    /// @{
    void beginObject();
    void endObject();
    void beginArray();
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
    void separate();
    void indent();

    std::ostream &os_;
    /** Nesting stack: true = a value was already emitted at the level. */
    std::vector<bool> have_value_;
    bool pending_key_ = false;
};

/** Write @p s JSON-escaped (with quotes) to @p os. */
void jsonEscape(std::ostream &os, const std::string &s);

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
 *                    "dropped_records": N, "wasted_ticks_total": N,
 *                    "dropped_wasted_ticks": N, "max_wasted_ticks": N,
 *                    "max_wasted_tx": N | -1, "deepest_chain": N,
 *                    "postmortems": N, "dropped_reports": N,
 *                    "top_killers": [ { "tx": N, "kills": N,
 *                                       "wasted_ticks": N }, ... ] }
 *
 * wasted_ticks_total covers dropped records too, so on runs that
 * finish before the tick limit it reconciles exactly with the
 * profiler's tx_wasted bucket (tools/check_postmortem_json.py gates
 * this).
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
    BenchRecorder &beginRow();

    /** @name Add a field to the current row */
    /// @{
    BenchRecorder &field(const std::string &k, const std::string &v);
    BenchRecorder &field(const std::string &k, const char *v);
    BenchRecorder &field(const std::string &k, double v);
    BenchRecorder &field(const std::string &k, std::uint64_t v);
    BenchRecorder &field(const std::string &k, unsigned v);
    BenchRecorder &field(const std::string &k, bool v);
    /// @}

    /**
     * Write the accumulated rows to @p path ("-" = stdout; empty =
     * no-op so call sites need no flag check).
     * @return true on success or empty path.
     */
    bool writeJson(const std::string &path) const;

  private:
    struct Field
    {
        enum class Kind { Str, Num, UInt, Bool };
        std::string key;
        Kind kind = Kind::Str;
        std::string s;
        double d = 0;
        std::uint64_t u = 0;
        bool b = false;
    };

    std::string bench_;
    std::vector<std::vector<Field>> rows_;
};

} // namespace ptm

#endif // PTM_HARNESS_STATS_IO_HH
