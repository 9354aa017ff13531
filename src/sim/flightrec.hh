/**
 * @file
 * Transaction flight recorder and abort post-mortem forensics.
 *
 * The recorder keeps no state of its own: the trace ring keeps its
 * record types (ringTypes) beside the traced categories, so
 * post-mortems and traces read the same buffer. At a trigger and at
 * snapshot() it folds them into one FlightRecord per transaction:
 * begin/restart ticks, the most recent aborts (cause, address,
 * winner), retries, kills, SPT/TAV misses, shadow-page allocations and
 * the wall ticks its aborted attempts lost. `--flightrec-depth 0`
 * removes the recorder and its types from the ring.
 *
 * On a trigger — starvation-watchdog trip, starvation-token grant,
 * auditor violation, chaos injection, or a transaction reaching
 * `--postmortem-on-abort=N` aborts — the recorder reconstructs the
 * transitive abort-causality DAG (who killed whom, back K generations)
 * into a bounded PostmortemReport. Nodes are *abort events* (tx,
 * tick), not transactions, and every edge points from a victim's abort
 * to an abort of its killer at a strictly earlier tick, so the graph
 * is acyclic by construction (tools/check_postmortem_json.py verifies
 * this on the emitted `ptm-postmortem-v1` dump).
 *
 * Reconciliation invariants (pinned by the tests):
 *  - a record's lost ticks are `tick - a2` of each of its TxAbort
 *    records, the profiler overlay's own arithmetic, so over a ring
 *    that holds every transaction they sum exactly to the
 *    aborted_tx_ticks charge;
 *  - ring overflow is surfaced honestly: `flightrec.dropped_records`
 *    is the ring's overwritten-event count, so truncated forensics
 *    never read as complete.
 *
 * The recorder is a pure observer: it never feeds back into simulated
 * timing, so same-seed runs are bit-identical with forensics on or
 * off.
 */

#ifndef PTM_SIM_FLIGHTREC_HH
#define PTM_SIM_FLIGHTREC_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/flat_map.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace ptm
{

/** What fired a post-mortem capture. */
enum class PostmortemTrigger : std::uint8_t
{
    Watchdog,        //!< starvation-watchdog trip
    StarvationGrant, //!< retry-budget escalation to the token
    AuditViolation,  //!< PTM invariant auditor violation
    ChaosInject,     //!< chaos-injected explicit abort
    AbortThreshold,  //!< a tx reached --postmortem-on-abort=N
};

/** Stable schema name of a trigger ("watchdog", ...). */
const char *postmortemTriggerName(PostmortemTrigger t);

/** One recorded abort of one transaction attempt. */
struct FlightAbortEvent
{
    Tick tick = 0;
    unsigned attempt = 0;         //!< attempt number that aborted
    std::uint8_t cause = 0;       //!< unsigned(AbortReason)
    Addr where = invalidAddr;     //!< conflicting address, if any
    TxId winner = invalidTxId;    //!< killer transaction, if any
};

/** One transaction folded from the ring's records. */
struct FlightRecord
{
    /** Most recent abort events retained per transaction. */
    static constexpr unsigned maxAborts = 4;

    TxId id = invalidTxId;
    ThreadId thread = 0;
    ProcId proc = 0;
    Tick firstBegin = 0;
    Tick lastBegin = 0;   //!< begin tick of the latest attempt
    Tick endTick = 0;     //!< logical-commit tick; 0 while live
    bool committed = false;
    unsigned attempts = 0;
    unsigned abortCount = 0;
    std::uint64_t kills = 0;        //!< conflicts won (others aborted)
    std::uint64_t sptMisses = 0;
    std::uint64_t tavMisses = 0;
    std::uint64_t shadowAllocs = 0;
    /** Wall ticks of aborted attempts (attempt begin to abort, summed). */
    Tick lostTicks = 0;

    /** Newest-last ring of the most recent aborts (by abortCount). */
    FlightAbortEvent recentAborts[maxAborts];

    /** Number of valid entries in recentAborts. */
    unsigned
    storedAborts() const
    {
        return abortCount < maxAborts ? abortCount : maxAborts;
    }

    /** The @p i-th most recent abort (0 = newest); i < storedAborts. */
    const FlightAbortEvent &
    recentAbort(unsigned i) const
    {
        return recentAborts[(abortCount - 1 - i) % maxAborts];
    }
};

/** One node of the abort-causality DAG: an abort event of @c tx (or,
 *  for a transaction with no recorded abort, a terminal node: the
 *  default event, tick 0). */
struct PostmortemNode : FlightAbortEvent
{
    TxId tx = invalidTxId;
    unsigned generation = 0; //!< distance from the subject
};

/** Victim-abort -> killer-abort edge (indices into nodes). */
struct PostmortemEdge
{
    std::size_t from = 0;
    std::size_t to = 0;
};

/** One captured post-mortem: the DAG plus the involved records. */
struct PostmortemReport
{
    PostmortemTrigger trigger = PostmortemTrigger::Watchdog;
    Tick tick = 0;
    TxId subject = invalidTxId;
    std::string detail;
    std::vector<PostmortemNode> nodes; //!< subject's events first
    std::vector<PostmortemEdge> edges;
    /** Flight records of every transaction in nodes, sorted by id. */
    std::vector<FlightRecord> records;
    unsigned chainDepth = 0; //!< deepest generation reached
    /** The ring at capture: transactions folded, events dropped. */
    std::uint64_t liveTxs = 0;
    std::uint64_t retiredTxs = 0;
    std::uint64_t droppedRecords = 0;
};

/** Per-transaction kill ranking entry (forensics stats section). */
struct KillerRank
{
    TxId tx = invalidTxId;
    std::uint64_t kills = 0;
    Tick lostTicks = 0; //!< lost ticks of the *killer* itself
};

/** By-value capture of the recorder for results / emission. */
struct ForensicsSnapshot
{
    bool enabled = false;
    bool armed = false;
    std::uint64_t depth = 0;          //!< ring capacity, in events
    std::uint64_t liveTxs = 0;        //!< folded, not committed
    std::uint64_t retiredTxs = 0;     //!< folded, committed
    std::uint64_t droppedRecords = 0; //!< ring events overwritten
    /** The live or retained record that lost the most ticks. */
    Tick maxLostTicks = 0;
    TxId maxLostTx = invalidTxId;
    /** Deepest abort-causality chain over all records and reports. */
    unsigned deepestChain = 0;
    std::uint64_t postmortems = 0;
    std::uint64_t droppedReports = 0;
    std::vector<KillerRank> topKillers; //!< kills desc, id asc; <= 5
};

/** The ring's records folded per transaction (FlightRecorder::fold). */
using FlightRecords = FlatMap<TxId, FlightRecord>;

/**
 * The flight recorder: a reader of the trace ring (absent when depth
 * is 0). Armed, it subscribes to watchdog trips and starvation grants
 * as triggers; unarmed, to nothing.
 */
class FlightRecorder : public TraceObserver
{
  public:
    /** Generations of abort causality the post-mortem DAG walks. */
    static constexpr unsigned generations = 8;

    /** Record types the ring keeps for the recorder. */
    static constexpr TraceEventType ringTypes[] = {
        TraceEventType::TxBegin,      TraceEventType::TxRestart,
        TraceEventType::TxCommit,     TraceEventType::TxAbort,
        TraceEventType::SptMiss,      TraceEventType::TavMiss,
        TraceEventType::ShadowAlloc,  TraceEventType::WatchdogTrip,
        TraceEventType::StarvationGrant,
    };

    /** Read @p ring, which must keep ringTypes. */
    FlightRecorder(const Tracer &ring, bool armed);

    /** Watchdog-trip and starvation-grant triggers (armed only). */
    void observe(const TraceEvent &e) override;

    /** True when post-mortem capture is armed (triggers do work). */
    bool armed() const { return armed_; }

    /**
     * Capture a post-mortem for @p subject: fold the ring, reconstruct
     * the causality DAG and hand the report to onReport. Bounded per
     * run; no-op unless armed.
     */
    void trigger(PostmortemTrigger t, TxId subject, Tick now,
                 std::string detail);

    /** Emission sink for each captured report (System wiring). */
    std::function<void(const PostmortemReport &)> onReport;

    /** Replayable repro line echoed in every dump (front-end wiring). */
    void setRepro(std::string repro) { repro_ = std::move(repro); }
    const std::string &repro() const { return repro_; }

    /** Ring capacity, in events. */
    std::size_t depth() const { return tracer_.capacity(); }

    /** Reports captured so far (bounded; see droppedReports). */
    const std::vector<PostmortemReport> &reports() const
    {
        return reports_;
    }

    /** Fold the ring's records, oldest first, into per-tx records. */
    FlightRecords fold() const;

    ForensicsSnapshot snapshot() const;

    /** Register the recorder statistics under "flightrec". */
    void regStats(StatRegistry &reg);

    /** @name Statistics */
    /// @{
    Counter postmortems;     //!< post-mortem reports captured
    Counter droppedReports;  //!< triggers dropped at the report cap
    /// @}

  private:
    /** Reports retained per run; later triggers only count. */
    static constexpr std::size_t maxReports = 16;

    const Tracer &tracer_;
    bool armed_ = false;
    std::string repro_;

    std::vector<PostmortemReport> reports_;
};

} // namespace ptm

#endif // PTM_SIM_FLIGHTREC_HH
