/**
 * @file
 * Interval time-series sampler over the statistics registry.
 *
 * At a configurable tick period the sampler reads every registered
 * Counter and Distribution and emits one **delta** record: how much
 * each monotonic statistic advanced during the interval, plus
 * host-throughput gauges computed from the event queue (simulated
 * events per wall-second, simulated ticks per wall-second, events per
 * tick). Scalars / averages are skipped — deltas of non-monotonic
 * values are meaningless.
 *
 * Records stream as "ptm-timeseries-v1" JSONL (one object per line)
 * so a long run is monitorable while in flight (`--timeseries -`
 * streams to stderr, `--timeseries FILE` to a file), and/or are kept
 * in memory for post-processing (bench_kv's steady-state throughput,
 * and the counter tracks of every Chrome trace). The sampler is the
 * one periodic reader of the stats registry.
 *
 * Schema ptm-timeseries-v1 (one line each):
 *
 *     {"schema":"ptm-timeseries-v1","type":"header","system":...,
 *      "seed":N,"cores":N,"interval":N}
 *     {"type":"interval","n":K,"t0":N,"t1":N,"final":bool,
 *      "wall_seconds":x,"events":N,"events_per_sec":x,
 *      "ticks_per_wall_sec":x,"events_per_tick":x,
 *      "d":{"<group.stat>":N,...},              // non-zero deltas
 *      "dist":{"<group.stat>":{"samples":N,"sum":x},...},
 *      "hot_pages":[{"page":N,"count":N,"err":N},...]}   // optional
 *
 * The delta sums reconcile exactly with the end-of-run ptm-stats-v1
 * totals: the baseline is taken before the first event executes and
 * the final record (final:true) is flushed after the last one, before
 * the front end snapshots the registry
 * (tools/check_timeseries_json.py gates this).
 *
 * Sampling runs at EventPriority::Stats — the lowest priority, pure
 * reads — so enabling it never perturbs simulated results.
 */

#ifndef PTM_SIM_TIMESERIES_HH
#define PTM_SIM_TIMESERIES_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace ptm
{

class EventQueue;

/**
 * By-value record of one sampled interval (and the capture of a whole
 * run). Counter/distribution deltas are stored sparsely — only stats
 * that advanced — indexed into TimeseriesCapture::counterNames /
 * distNames.
 */
struct TimeseriesInterval
{
    std::uint64_t n = 0;  //!< record index within the run
    Tick t0 = 0;          //!< interval start tick
    Tick t1 = 0;          //!< interval end tick
    bool final_ = false;  //!< end-of-run flush record
    double wallSeconds = 0;
    std::uint64_t events = 0; //!< events executed in the interval

    struct CounterDelta
    {
        std::size_t ref;
        std::uint64_t delta;
    };
    struct DistDelta
    {
        std::size_t ref;
        std::uint64_t samples;
        double sum;
    };
    std::vector<CounterDelta> counters;
    std::vector<DistDelta> dists;
};

/** In-memory capture of a run's time series (ExperimentResult). */
struct TimeseriesCapture
{
    bool enabled = false;
    Tick interval = 0;
    std::vector<std::string> counterNames;
    std::vector<std::string> distNames;
    std::vector<TimeseriesInterval> intervals;

    /** Delta of counter @p path in @p iv; 0 if absent/unchanged. */
    std::uint64_t delta(const TimeseriesInterval &iv,
                        const std::string &path) const;
};

/**
 * Resolve a stream sink for @p path: nullptr when empty, std::cerr
 * for "stderr", otherwise a process-lifetime file stream. The first
 * open of a file truncates it; subsequent opens within the process
 * (bench sweeps running many Systems) append, so one file carries
 * every run's stream back to back.
 */
std::ostream *timeseriesSink(const std::string &path);

class TimeseriesSampler
{
  public:
    /**
     * @param params  period / sink / capture configuration
     * @param reg     registry to walk (Counter + Distribution refs)
     * @param eq      event queue (tick clock and event-count gauges)
     */
    TimeseriesSampler(const TimeseriesParams &params,
                      const StatRegistry &reg, const EventQueue &eq);

    /** Header-record context (System wiring; all optional). */
    void setRunInfo(std::string system, std::uint64_t seed,
                    unsigned cores);

    /**
     * Provider of the per-interval "hot_pages" JSON array fragment
     * (ContentionHeatmap::hotPagesJson); unset = field omitted.
     */
    void setHotPages(std::function<std::string()> fn)
    {
        hot_pages_ = std::move(fn);
    }

    /**
     * Take the baselines and emit the header record. Call before the
     * first event executes so delta sums reconcile with final totals.
     */
    void start();

    /** Sample one interval (the periodic Stats-priority event body). */
    void sample() { takeSample(false); }

    /**
     * Flush the final partial interval (final:true). Call after the
     * last event executed, before the registry is snapshotted.
     */
    void finish() { takeSample(true); }

    /** The capture (valid any time; grows as intervals complete). */
    const TimeseriesCapture &capture() const { return capture_; }

    Tick interval() const { return params_.interval; }

  private:
    void takeSample(bool final_flush);
    void emitInterval(const TimeseriesInterval &iv);

    TimeseriesParams params_;
    const StatRegistry &reg_;
    const EventQueue &eq_;
    std::ostream *sink_ = nullptr;

    std::string system_;
    std::uint64_t seed_ = 0;
    unsigned cores_ = 0;
    std::function<std::string()> hot_pages_;

    /** Registry walk results, frozen at start(). */
    std::vector<const Counter *> counters_;
    std::vector<const Distribution *> dists_;
    std::vector<std::uint64_t> prev_counter_;
    std::vector<std::uint64_t> prev_dist_samples_;
    std::vector<double> prev_dist_sum_;

    std::uint64_t next_n_ = 0;
    Tick last_tick_ = 0;
    std::uint64_t last_events_ = 0;
    std::chrono::steady_clock::time_point last_wall_;
    bool started_ = false;

    TimeseriesCapture capture_;
};

} // namespace ptm

#endif // PTM_SIM_TIMESERIES_HH
