/**
 * @file
 * Top-level simulated system: wires the event queue, physical memory,
 * transaction manager, memory system, OS kernel, CPU cores and the
 * selected unbounded-TM backend, and runs workloads to completion.
 *
 * This is the primary public entry point of the library:
 *
 * @code
 *     SystemParams p;              // paper's 4-core CMP by default
 *     p.tmKind = TmKind::SelectPtm;
 *     System sys(p);
 *     ProcId proc = sys.createProcess();
 *     sys.addThread(proc, steps);  // coroutine-step program
 *     sys.run();
 *     StatSnapshot s = sys.snapshot();
 *     std::uint64_t commits = s.counter("tx.commits");
 * @endcode
 */

#ifndef PTM_HARNESS_SYSTEM_HH
#define PTM_HARNESS_SYSTEM_HH

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "cpu/core.hh"
#include "cpu/thread.hh"
#include "mem/frame_alloc.hh"
#include "mem/mem_system.hh"
#include "mem/phys_mem.hh"
#include "persist/wal.hh"
#include "ptm/audit.hh"
#include "ptm/heatmap.hh"
#include "ptm/vts.hh"
#include "sim/chaos.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/flightrec.hh"
#include "sim/timeseries.hh"
#include "sim/trace.hh"
#include "tx/tx_manager.hh"
#include "vm/os_kernel.hh"

namespace ptm
{

class System
{
  public:
    explicit System(const SystemParams &params);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** @name Workload construction */
    /// @{
    ProcId createProcess();
    void
    shareSegment(const std::vector<ProcId> &procs, Addr vbase,
                 unsigned pages)
    {
        os_.shareSegment(procs, vbase, pages);
    }
    void
    shareSegmentAt(const std::vector<std::pair<ProcId, Addr>> &views,
                   unsigned pages)
    {
        os_.shareSegmentAt(views, pages);
    }
    ThreadCtx &addThread(ProcId proc, std::vector<Step> steps,
                         std::string name = {});
    unsigned createBarrier(unsigned count)
    {
        return os_.createBarrier(count);
    }
    std::uint32_t createOrderedScope()
    {
        return txmgr_.createOrderedScope();
    }
    /// @}

    /**
     * Run until every thread finishes (or params.maxTicks).
     * @return the final simulated tick.
     */
    Tick run();

    /**
     * The statistics registry: every component's metrics, registered
     * under named groups ("sys", "tx", "mem", "os", "core<N>", and
     * "vts" / "vtm" for the TM backends). The registry references the
     * live components; use snapshot() for results that must outlive
     * this System.
     */
    const StatRegistry &registry() const { return registry_; }

    /** A by-value capture of every registered statistic. */
    StatSnapshot snapshot() const { return StatSnapshot(registry_); }

    /**
     * The observer path every component records into. Its trace ring
     * is inactive unless params.trace.path was set; front ends capture
     * the ring after run() via harness::captureTrace().
     */
    Tracer &tracer() { return tracer_; }
    const Tracer &tracer() const { return tracer_; }

    /**
     * The cycle-accounting profiler. Inactive (single-branch
     * recording) unless params.profile.enabled; after run() every
     * core's bucket totals sum to the final tick.
     */
    CycleProfiler &profiler() { return profiler_; }
    const CycleProfiler &profiler() const { return profiler_; }

    /**
     * The deterministic fault injector. Inactive (every hook is one
     * never-taken branch) unless params.chaos.enabled.
     */
    ChaosEngine &chaos() { return chaos_; }
    const ChaosEngine &chaos() const { return chaos_; }

    /**
     * The PTM invariant auditor. Detached (checkAll() returns without
     * walking anything) unless params.audit.enabled on a PTM backend.
     */
    PtmAuditor &auditor() { return auditor_; }
    const PtmAuditor &auditor() const { return auditor_; }

    /**
     * The per-page contention heatmap, or nullptr unless
     * params.heatmap.enabled (an observer-path subscriber).
     */
    ContentionHeatmap *heatmap() { return heatmap_.get(); }
    const ContentionHeatmap *heatmap() const { return heatmap_.get(); }

    /**
     * The transaction flight recorder, or nullptr when
     * `--flightrec-depth 0` removed it (a reader of the tracer's
     * ring, which then keeps the recorder's record types; post-mortem
     * capture only when armed).
     */
    FlightRecorder *flightrec() { return flightrec_.get(); }
    const FlightRecorder *flightrec() const { return flightrec_.get(); }

    /**
     * The interval time-series sampler, or nullptr unless
     * params.timeseries streaming or capture was requested or the run
     * is traced (the trace's counter tracks come from it). Built
     * lazily at run() so it sees every registered stat group.
     */
    const TimeseriesSampler *timeseries() const
    {
        return timeseries_.get();
    }

    /**
     * The write-ahead log, or nullptr unless `--durability wal`
     * (volatile runs never construct it, keeping them bit-identical).
     */
    WalManager *wal() { return wal_.get(); }
    const WalManager *wal() const { return wal_.get(); }

    /** True if run() stopped at an injected crash cut. */
    bool crashed() const { return crashed_; }

    /**
     * The planned crash tick (explicit --crash-at-tick or the chaos
     * crash fault's seeded draw); 0 when no crash is planned.
     */
    Tick crashTick() const { return crash_tick_; }

    /** @name Component access (tests, benches) */
    /// @{
    EventQueue &eq() { return eq_; }
    PhysMem &phys() { return phys_; }
    TxManager &txmgr() { return txmgr_; }
    MemSystem &mem() { return mem_; }
    OsKernel &os() { return os_; }
    Core &core(CoreId c) { return *cores_[c]; }
    /** The PTM supervisor, or nullptr for non-PTM systems. */
    Vts *vts() { return vts_; }
    TmBackend *backend() { return backend_.get(); }
    const SystemParams &params() const { return params_; }
    ThreadCtx &thread(ThreadId t) { return *threads_[t]; }
    /// @}

    /**
     * Functional read of committed memory at (proc, vaddr) — used by
     * workload result verification after the run.
     */
    std::uint32_t readWord32(ProcId proc, Addr vaddr);

  private:
    /**
     * A body run every interval ticks at Stats priority while threads
     * are live; every task is cancelled when the last thread exits so
     * none outlives the workload.
     */
    struct PeriodicTask
    {
        Tick interval = 0;
        std::function<void()> body;
        EventQueue::Handle handle;
    };

    void wireHooks();
    void regStats();
    void unparkIfWaiting(ThreadCtx *t, ThreadState expected);
    /** Add a PeriodicTask and schedule its first run. */
    void addPeriodic(Tick interval, std::function<void()> body);
    void schedulePeriodic(std::size_t i);
    void startTimeseries();
    /** Write @p iv to the --timeseries stream, if one is open. */
    void streamInterval(const TimeseriesInterval &iv);
    void injectChaos();
    /** Deterministic live-transaction victim pick (sorted ids). */
    TxId pickLiveTx();

    SystemParams params_;
    StatRegistry registry_;
    Tracer tracer_;
    CycleProfiler profiler_;
    ChaosEngine chaos_;
    PtmAuditor auditor_;
    /** Chaos cache-squeeze state: capacities currently shrunk. */
    bool squeezed_ = false;
    EventQueue eq_;
    PhysMem phys_;
    FrameAllocator frames_;
    TxManager txmgr_;
    MemSystem mem_;
    OsKernel os_;
    std::unique_ptr<ContentionHeatmap> heatmap_;
    std::unique_ptr<FlightRecorder> flightrec_;
    std::unique_ptr<TimeseriesSampler> timeseries_;
    std::ostream *timeseries_sink_ = nullptr;
    std::vector<PeriodicTask> periodic_;
    std::unique_ptr<TmBackend> backend_;
    Vts *vts_ = nullptr; //!< non-owning view of backend_ when PTM
    std::unique_ptr<WalManager> wal_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<std::unique_ptr<ThreadCtx>> threads_;
    bool hit_limit_ = false;
    bool crashed_ = false;
    /** Effective crash-cut tick; 0 = no crash planned. */
    Tick crash_tick_ = 0;
};

} // namespace ptm

#endif // PTM_HARNESS_SYSTEM_HH
