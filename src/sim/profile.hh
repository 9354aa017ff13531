/**
 * @file
 * Cycle accounting: tick-attribution profiling of the simulated cores.
 *
 * The paper's evaluation (Figure 6) is a cycle-accounting argument —
 * PTM wins because commit/abort overhead and VTS walks consume few
 * cycles relative to useful transactional work. This subsystem makes
 * that decomposition measurable: every tick of every simulated core is
 * attributed to exactly one bucket of a small closed set, so per-core
 * bucket totals always sum to the elapsed simulated time.
 *
 * Mechanism: each core owns a *phase stack* in the CycleProfiler.
 * Whenever the core schedules a delay it sets (or pushes) the bucket
 * that delay represents; every transition first accrues the span since
 * the previous transition into the outgoing top-of-stack bucket. Push/
 * pop pairs let a stall phase nest over the background execution phase
 * and restore it exactly (PhaseGuard is the RAII form for synchronous
 * scopes). Because attribution happens on transition — never by
 * re-deriving elapsed time — exactness holds by construction.
 *
 * Committed vs. wasted work: execution ticks inside a transaction
 * accrue into a per-core *pending pot* (the outcome is unknown while
 * the attempt runs) and are retired into TxUseful or TxWasted when the
 * attempt commits or aborts. A transactional thread that migrates off
 * a core mid-attempt has its pot retired optimistically at switch
 * time, keeping the pot core-local (per-core exactness) at the cost of
 * slight attribution optimism across migrations.
 *
 * Supervisor overlay: VTS/VTM metadata walks, cleanup walks, overflow
 * spills and OS fault/swap handling fold their latencies into bus
 * transactions and core stall spans, so they cannot be carved out of
 * the per-core buckets exactly. Components charge those cycle amounts
 * into a separate overlay (ProfCharge) that *overlaps* core stall
 * time; it answers "how many cycles did the supervisor structures
 * consume", not "which core ticks were those".
 *
 * Everything is disabled by default: each recording call is a single
 * branch when the profiler is off (Tracer-style), and un-wired
 * components point at the never-enabled CycleProfiler::nil().
 */

#ifndef PTM_SIM_PROFILE_HH
#define PTM_SIM_PROFILE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/trace.hh"
#include "sim/types.hh"

namespace ptm
{

/**
 * The closed set of per-core tick buckets. Every simulated tick of
 * every core lands in exactly one.
 */
enum class ProfBucket : std::uint8_t
{
    Idle,      //!< no runnable thread bound to the core
    NonTx,     //!< executing outside any transaction
    TxUseful,  //!< in-transaction execution that later committed
    TxWasted,  //!< in-transaction execution of an aborted attempt
    StallL1,   //!< memory stall satisfied by the L1 filter
    StallL2,   //!< memory stall satisfied by the local L2
    StallMem,  //!< bus / remote cache / DRAM / backend-check stall
    StallXlat, //!< TLB-miss hardware page-table walk
    FaultSwap, //!< page-fault exception path including swap I/O
    TxBegin,   //!< register-checkpoint cost at transaction begin
    TxCommit,  //!< logical-commit latency and ordered-commit waits
    TxAbort,   //!< abort cleanup waits and restart backoff
    CtxSwitch, //!< context-switch overhead and daemon occupancy
    Barrier,   //!< barrier arrival cost and barrier waits
    TxPersist, //!< durable-commit wait for the ordered WAL flush
    NumBuckets
};

/** Number of per-core buckets. */
constexpr unsigned profBuckets = unsigned(ProfBucket::NumBuckets);

/** Stable snake_case name of a bucket ("tx_useful", ...). */
const char *profBucketName(ProfBucket b);

/**
 * Supervisor-overlay charge classes: cycle amounts attributed by the
 * subsystems that *produce* latency (VTS, VTM, memory system, OS,
 * transaction manager). Overlay charges may overlap per-core stall
 * buckets and each other; they are a component-centric view, not a
 * partition of time.
 */
enum class ProfCharge : std::uint8_t
{
    MetaLookup,       //!< SPT / XADC metadata lookups and walks
    TavLookup,        //!< TAV / XADT per-transaction lookups
    CommitCleanup,    //!< background commit-walk busy cycles
    AbortCleanup,     //!< background abort-walk (and restore) cycles
    OverflowSpill,    //!< evicting transactional blocks to the backend
    FalseStall,       //!< retry delay behind cleanup-in-progress
    PageFault,        //!< OS fault-handler path (includes swap)
    SwapIo,           //!< page swap-in/swap-out device time
    CommittedTxTicks, //!< wall ticks of attempts that committed
    AbortedTxTicks,   //!< wall ticks of attempts that aborted
    LogFlush,         //!< WAL log-device busy cycles (ordered drains)
    NumCharges
};

/** Number of overlay charge classes. */
constexpr unsigned profCharges = unsigned(ProfCharge::NumCharges);

/** Stable snake_case name of a charge class ("meta_lookup", ...). */
const char *profChargeName(ProfCharge c);

/** Profiling configuration, carried inside SystemParams. */
struct ProfileParams
{
    /** Enable simulated-cycle accounting. */
    bool enabled = false;
    /**
     * Enable host-side event-loop profiling (--host-profile); the host
     * time of every 32nd executed event is measured.
     */
    bool host = false;
};

/** By-value capture of a CycleProfiler for results/serialization. */
struct ProfSnapshot
{
    bool enabled = false;
    /** Simulated ticks covered: each core's buckets sum to this. */
    Tick elapsed = 0;
    /** Per-core bucket totals, indexed [core][bucket]. */
    std::vector<std::array<std::uint64_t, profBuckets>> cores;
    /** Supervisor-overlay charge totals. */
    std::array<std::uint64_t, profCharges> charges{};

    /** Sum of all buckets of @p core (== elapsed after finish()). */
    std::uint64_t
    coreTotal(unsigned core) const
    {
        std::uint64_t n = 0;
        for (std::uint64_t v : cores.at(core))
            n += v;
        return n;
    }

    /** Bucket total summed over every core. */
    std::uint64_t
    bucketTotal(ProfBucket b) const
    {
        std::uint64_t n = 0;
        for (const auto &c : cores)
            n += c[unsigned(b)];
        return n;
    }
};

/**
 * Host-side event-loop profile captured from the EventQueue: per
 * callback site, how many events executed and how much host time the
 * sampled subset consumed. estimatedNs() scales the sampled time by
 * the sampling interval.
 */
struct HostProfile
{
    struct Site
    {
        std::string name;
        std::uint64_t events = 0;    //!< executed events at this site
        std::uint64_t sampled = 0;   //!< events with host timing taken
        std::uint64_t sampledNs = 0; //!< host ns spent in sampled events

        /** Sampled time scaled to the full event count. */
        std::uint64_t
        estimatedNs(unsigned interval) const
        {
            return sampledNs * interval;
        }
    };

    bool enabled = false;
    unsigned sampleInterval = 0;
    std::vector<Site> sites;
};

/**
 * The cycle-accounting profiler. One instance per simulated System;
 * inactive (single-branch recording) until configure(). On the
 * observer path it subscribes to TxCommit/TxAbort and charges the
 * attempt's wall ticks to CommittedTxTicks/AbortedTxTicks.
 */
class CycleProfiler : public TraceObserver
{
  public:
    void observe(const TraceEvent &e) override;

    /** Enable accounting for @p cores cores, all starting Idle. */
    void configure(unsigned cores);

    /** True once configure() ran. */
    bool active() const { return enabled_; }

    /** Tick source for transitions; set by the owning System. */
    void setClock(std::function<Tick()> clock)
    {
        clock_ = std::move(clock);
    }

    /** Current tick per the configured clock (0 if none). */
    Tick now() const { return clock_ ? clock_() : 0; }

    /** @name Per-core phase machine (single branch when disabled) */
    /// @{
    /** Replace the top-of-stack phase of @p core with @p b. */
    void
    set(unsigned core, ProfBucket b)
    {
        if (enabled_)
            doSet(core, std::uint8_t(b));
    }

    /** Nest phase @p b over the current phase of @p core. */
    void
    push(unsigned core, ProfBucket b)
    {
        if (enabled_)
            doPush(core, std::uint8_t(b));
    }

    /** End the nested phase, restoring the one underneath. */
    void
    pop(unsigned core)
    {
        if (enabled_)
            doPop(core);
    }

    /** span() bucket naming the pending pot: in-transaction
     *  execution, retired by resolveTx() (what txWork() enters). */
    static constexpr ProfBucket txPot = ProfBucket::NumBuckets;

    /**
     * push(b) at tick @p from and pop() at @p to, for ops a batch
     * retires ahead of the clock. With @p to omitted the span stays
     * open for the caller's pop() at the op's completion. @p b may be
     * txPot.
     */
    void
    span(unsigned core, ProfBucket b, Tick from, Tick to = maxTick)
    {
        if (enabled_)
            doSpan(core, std::uint8_t(b), from, to);
    }

    /**
     * Enter in-transaction execution on @p core: subsequent ticks
     * accrue into the pending pot until resolveTx().
     */
    void
    txWork(unsigned core)
    {
        if (enabled_)
            doSet(core, kPending);
    }

    /**
     * Retire @p core's pending pot into TxUseful (@p committed) or
     * TxWasted. The current phase is unchanged; callers set() the next
     * phase immediately after.
     * @return the retired pot in ticks (0 when disabled) — the flight
     *         recorder attributes wasted amounts per transaction with
     *         it, so forensic sums reconcile with the tx_wasted bucket.
     */
    Tick
    resolveTx(unsigned core, bool committed)
    {
        if (enabled_)
            return doResolveTx(core, committed);
        return 0;
    }

    /**
     * Collapse @p core's phase stack to the single base phase @p b —
     * used on abort, which abandons any scheduled phase pops.
     */
    void
    collapse(unsigned core, ProfBucket b)
    {
        if (enabled_)
            doCollapse(core, std::uint8_t(b));
    }
    /// @}

    /** Add @p cycles to overlay class @p c. */
    void
    charge(ProfCharge c, Tick cycles)
    {
        if (enabled_)
            charges_[unsigned(c)] += cycles;
    }

    /**
     * Close every core's timeline at @p end and retire leftover
     * pending pots (tick-limit runs) into TxWasted. After finish(),
     * every core's bucket sum equals @p end.
     */
    void finish(Tick end);

    /** Value capture of the current accounting state. */
    ProfSnapshot snapshot() const;

    /** A process-wide never-enabled profiler, for un-wired components. */
    static CycleProfiler &nil();

  private:
    /** Internal sentinel phase: the unresolved in-transaction pot. */
    static constexpr std::uint8_t kPending = std::uint8_t(txPot);

    struct Lane
    {
        /** Phase stack; base is never popped. */
        std::vector<std::uint8_t> stack;
        Tick last = 0;
        std::array<std::uint64_t, profBuckets> buckets{};
        /** Unresolved in-transaction execution ticks. */
        std::uint64_t pending = 0;
    };

    void doSet(unsigned core, std::uint8_t b);
    void doPush(unsigned core, std::uint8_t b);
    void doPop(unsigned core);
    void doSpan(unsigned core, std::uint8_t b, Tick from, Tick to);
    Tick doResolveTx(unsigned core, bool committed);
    void doCollapse(unsigned core, std::uint8_t b);
    void accrue(Lane &lane, Tick now);
    Lane &lane(unsigned core);

    bool enabled_ = false;
    Tick end_ = 0;
    std::function<Tick()> clock_;
    std::vector<Lane> lanes_;
    std::array<std::uint64_t, profCharges> charges_{};
};

/**
 * RAII phase guard: pushes @p b on @p core at construction, pops at
 * scope exit — for synchronous scopes whose work may advance the
 * profiler clock.
 */
class PhaseGuard
{
  public:
    PhaseGuard(CycleProfiler &prof, unsigned core, ProfBucket b)
        : prof_(prof), core_(core)
    {
        prof_.push(core_, b);
    }

    ~PhaseGuard() { prof_.pop(core_); }

    PhaseGuard(const PhaseGuard &) = delete;
    PhaseGuard &operator=(const PhaseGuard &) = delete;

  private:
    CycleProfiler &prof_;
    unsigned core_;
};

} // namespace ptm

#endif // PTM_SIM_PROFILE_HH
