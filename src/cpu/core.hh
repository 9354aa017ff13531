/**
 * @file
 * Simulated in-order CPU core.
 *
 * Each core drives one thread at a time through its coroutine program:
 * it pulls operations, models their timing through the memory system,
 * and handles transactional control flow — begin/commit (ordered
 * commit waits), abort-and-restart, context switches at quantum
 * boundaries and daemon preemptions (transactional cache state is NOT
 * flushed on a switch; PTM's transaction-ID tags make that safe,
 * section 4.7).
 */

#ifndef PTM_CPU_CORE_HH
#define PTM_CPU_CORE_HH

#include <cstdint>

#include "cpu/thread.hh"
#include "mem/mem_system.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/profile.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "tx/tx_manager.hh"

namespace ptm
{

class OsKernel;
class WalManager;

class Core
{
  public:
    Core(CoreId id, const SystemParams &params, EventQueue &eq,
         MemSystem &mem, TxManager &txmgr, OsKernel &os);

    CoreId id() const { return id_; }

    /** Wake an idle core (work appeared on the run queue). */
    void kick();

    /**
     * Wake the thread parked on this core (ordered-commit token
     * arrived, abort cleanup finished, or an abort notification needs
     * processing).
     */
    void kickParked();

    /** The thread currently bound to this core (may be parked). */
    ThreadCtx *current() const { return cur_; }

    /** OS daemon activity preempts this core for @p length cycles. */
    void daemonPreempt(Tick length);

    /** Register this core's statistics under "core<N>". */
    void regStats(StatRegistry &reg);

    /** Attach the cycle-accounting profiler (default: inert nil()). */
    void setProfiler(CycleProfiler &prof) { prof_ = &prof; }

    /** Attach the write-ahead log (System wiring; volatile = nullptr). */
    void setWal(WalManager *w) { wal_ = w; }

    /** @name Statistics */
    /// @{
    Counter memOps;       //!< loads+stores+CAS issued
    Counter txMemOps;     //!< subset issued inside transactions
    Counter computeOps;
    Counter preemptions;
    Counter ffBatches;    //!< direct-execution fast-forward batches
    Counter ffOps;        //!< ops retired inside fast-forward batches
    /// @}

  private:
    /** Main dispatch: run/park/pick a thread. */
    void step();

    /** Schedule the next step() after @p delay. */
    void scheduleStep(Tick delay);

    /** Begin the thread's current step (tx begin / coro creation). */
    void beginStep(ThreadCtx &t);

    /** Deliver @p value to the coroutine and run the next op. */
    void resumeCoro(ThreadCtx &t, std::uint64_t value);

    /** Model one yielded operation. */
    void runOp(ThreadCtx &t, const MemYield &op);

    /** Capture a translated store or CAS of @p t's open transaction
     *  for Table 1's pg-x-wr and the redo log. */
    void noteTxStore(ThreadCtx &t, const MemYield &op);

    /** The access @p op of @p t makes to home address @p paddr. */
    Access makeAccess(const ThreadCtx &t, const MemYield &op,
                      Addr paddr) const;

    /** Issue a memory access (post-translation). */
    void issueAccess(ThreadCtx &t, const Access &acc);

    /** Profiler bucket of a local hit that took @p lat cycles. */
    ProfBucket
    hitBucket(Tick lat) const
    {
        return lat <= l1Latency ? ProfBucket::StallL1 : ProfBucket::StallL2;
    }

    /**
     * Direct-execution fast-forward (DESIGN.md §6c): retire up to
     * fastForwardOps ops of @p t, in or out of a transaction, at the
     * current tick, each at its virtual issue tick, while no other
     * event can interleave. TLB misses, cache misses, committed-data
     * writebacks and batch exits go back to the one-event path at
     * their virtual issue time.
     */
    void fastForward(ThreadCtx &t, std::uint64_t value);

    /** Pin the frame of @p t's translated access at @p paddr until
     *  it reaches memory (swap runs only; OsKernel in-flight pins). */
    void pinFrame(ThreadCtx &t, Addr paddr);
    /** Release @p t's pin, if it holds one. */
    void unpinFrame(ThreadCtx &t);

    /** Run @p fn in @p delay ticks unless @p t's epoch moved on (an
     *  abort abandons every continuation scheduled before it). */
    template <class F>
    void
    after(ThreadCtx &t, Tick delay, F fn,
          std::uint16_t site = EventQueue::noSite)
    {
        std::uint64_t ep = t.epoch;
        eq_.scheduleIn(delay, EventPriority::Cpu, [&t, ep, fn] {
            if (t.epoch == ep)
                fn();
        }, site);
    }

    /** The current step's coroutine ran to completion. */
    void stepFinished(ThreadCtx &t);

    /** Attempt the (possibly ordered) commit of the current tx. */
    void tryCommit(ThreadCtx &t);

    /** Process a pending logical abort: wait for cleanup / restart. */
    void handleAbort(ThreadCtx &t);

    /** Preempt the current thread back to the run queue. */
    void preempt(ThreadCtx &t, Tick next_step_delay);

    /** True if the thread must yield the core at tick @p at. */
    bool shouldPreempt(Tick at) const;

    /**
     * Park with no pending continuation (kick()/kickParked() wake).
     * @p b is the phase the parked time is accounted to: plain Idle by
     * default, but e.g. an ordered-commit wait in place is TxCommit.
     */
    void
    goIdle(ProfBucket b = ProfBucket::Idle)
    {
        idle_ = true;
        prof_->set(id_, b);
    }

    /**
     * Mark the core as executing the thread's program: TxExec inside
     * a transaction, NonTx outside.
     */
    void
    profExec(const ThreadCtx &t)
    {
        prof_->set(id_, t.curTx != invalidTxId ? ProfBucket::TxExec
                                               : ProfBucket::NonTx);
    }

    const CoreId id_;
    const SystemParams &params_;
    EventQueue &eq_;
    MemSystem &mem_;
    TxManager &txmgr_;
    OsKernel &os_;

    CycleProfiler *prof_ = &CycleProfiler::nil();
    WalManager *wal_ = nullptr;

    /** Per-core stream for the randomized abort-restart backoff. */
    Pcg32 backoff_rng_;

    ThreadCtx *cur_ = nullptr;
    ThreadCtx *last_ = nullptr;
    bool idle_ = true;
    Tick quantum_end_ = 0;
    Tick daemon_until_ = 0;

    /** Interned host-profile site ids for this core's hot callbacks. */
    std::uint16_t site_step_;
    std::uint16_t site_compute_;
    std::uint16_t site_xlat_;
    std::uint16_t site_mem_;
};

} // namespace ptm

#endif // PTM_CPU_CORE_HH
