/**
 * @file
 * Experiment runner: builds a (system-kind × workload) configuration,
 * runs it to completion, verifies the functional result, and returns
 * the statistics — the building block of every reproduced table and
 * figure.
 */

#ifndef PTM_HARNESS_EXPERIMENT_HH
#define PTM_HARNESS_EXPERIMENT_HH

#include <string>

#include "harness/system.hh"
#include "harness/trace_io.hh"
#include "workloads/workload.hh"

namespace ptm
{

/** Result of one experiment run. */
struct ExperimentResult
{
    /**
     * By-value capture of every registered statistic, addressed by
     * "group.stat" paths (e.g. "tx.commits", "vts.shadow_allocs").
     * This is what the front ends and the JSON emitter consume.
     */
    StatSnapshot snapshot;
    /** The workload's functional result matched the host reference. */
    bool verified = false;
    Tick cycles = 0;
    /**
     * The run's event-trace buffer (empty unless params.trace.path was
     * set). Front ends collect these and write them with writeTrace().
     */
    TraceCapture trace;
    /**
     * Cycle-accounting capture (enabled == false unless
     * params.profile.enabled): per-core tick buckets summing to
     * elapsed, plus the supervisor overlay charges.
     */
    ProfSnapshot profile;
    /** Host-side event-loop profile (params.profile.host). */
    HostProfile host;
    /**
     * Invariant violations the auditor detected (empty unless
     * params.audit.enabled on a PTM system). A clean chaos run is one
     * with verified == true AND auditViolations.empty().
     */
    std::vector<AuditViolation> auditViolations;
    /** Full audit passes executed (params.audit.enabled). */
    std::uint64_t auditChecks = 0;
    /**
     * The run's fully resolved workload options (defaults filled in),
     * in declaration order — what the manifest records.
     */
    WorkloadOptList resolvedOptions;
    /**
     * Per-page contention attribution (enabled == false unless
     * params.heatmap.enabled): the "hot_pages" JSON section.
     */
    HeatmapSnapshot heatmap;
    /**
     * The run's in-memory time series (enabled == false unless
     * params.timeseries.capture or tracing): per-interval counter
     * deltas, the source of bench_kv's steady-state throughput and of
     * the trace's counter tracks.
     */
    TimeseriesCapture timeseries;
    /**
     * Flight-recorder capture (enabled == false only when
     * --flightrec-depth 0 removed the recorder): record/drop totals,
     * the record that lost the most ticks and killer rankings folded
     * from the ring — the "forensics" JSON section.
     */
    ForensicsSnapshot forensics;
    /**
     * The run stopped at an injected crash cut (--crash-at-tick or the
     * chaos crash fault; requires --durability wal). A crashed run is
     * never verified in-process — recovery replays the dump instead.
     */
    bool crashed = false;
    /** The crash-cut tick (0 when the run completed). */
    Tick crashTick = 0;
    /** Durable log-byte prefix at the cut (full log when completed). */
    std::uint64_t walDurableBytes = 0;
    /**
     * Host wall-clock seconds spent inside the event loop (the
     * sys.run() span only — workload build and verification excluded)
     * and the events it executed. sim_events_per_sec =
     * eventsExecuted / wallSeconds is the host-throughput field of
     * ptm_sim's manifest (machine-dependent; never compared across
     * machines).
     */
    double wallSeconds = 0;
    double eventsExecuted = 0;
};

/**
 * Run @p workload_name on a system of kind @p params.tmKind (the
 * synchronization mode is derived from it: Serial -> 1 thread plain,
 * Locks -> spinlocks, TM kinds -> transactions).
 *
 * @p scale is injected as the workload's "scale" option when it
 * declares one; @p wl_opts are further key=value options resolved
 * against the workload's option table (fatal when unknown/invalid —
 * front ends wanting a recoverable diagnostic use
 * resolveWorkloadOptions).
 */
ExperimentResult runWorkload(const std::string &workload_name,
                             SystemParams params, int scale = 1,
                             unsigned threads = 4,
                             const WorkloadOptList &wl_opts = {});

/**
 * Run @p sys to completion and capture what must be read before any
 * verification touches memory: cycles, event-loop wall time and
 * events executed, the stat snapshot, and the crash cut. With
 * collectObservers() it is the body of runWorkload, and of the benches
 * that build their System by hand.
 */
ExperimentResult runSystem(System &sys);

/**
 * Capture the observer outputs of the finished run on @p sys into
 * @p r: cycle and host profiles, audit results, heatmap, time series,
 * flight-recorder forensics and, when tracing, the trace buffer
 * labelled @p label. Separate from runSystem() because verification
 * reads memory and may page-fault into the profile and trace:
 * runWorkload collects after verifying, the hand-built benches before.
 */
void collectObservers(System &sys, const std::string &label,
                      ExperimentResult &r);

/** Percent speedup of @p par over @p serial: (serial/par - 1) * 100. */
double speedupPct(Tick serial, Tick par);

/**
 * Print @p r's audit violations to stderr as machine-greppable
 * "audit-violation: CHECK @TICK (WHERE): DETAIL" lines followed by one
 * "repro:" line rebuilding the failing invocation from @p params
 * (tools/chaos_sweep.py parses both).
 *
 * @param tool      front-end name for the repro line
 * @param workload  workload argument of the run ("" if not applicable)
 * @return the number of violations printed
 */
std::size_t reportAuditViolations(const char *tool,
                                  const std::string &workload,
                                  const SystemParams &params,
                                  const ExperimentResult &r);

} // namespace ptm

#endif // PTM_HARNESS_EXPERIMENT_HH
