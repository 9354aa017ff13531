/**
 * @file
 * Operating-system model: per-process page tables, demand paging with
 * a swap device, thread scheduling with timer quanta and daemon
 * preemptions, barriers, and shared-memory segments.
 *
 * PTM integrates with the OS at three points (section 3.5): the page
 * tables translate to *home* physical pages only; swap-out migrates a
 * page's SPT entry into the Swap Index Table (and merges or swaps the
 * shadow page); and context switches do *not* flush transactional
 * cache state — transaction IDs tagged in the cache lines keep
 * conflict detection working while a transaction's thread is
 * descheduled or migrates between cores (section 4.7).
 */

#ifndef PTM_VM_OS_KERNEL_HH
#define PTM_VM_OS_KERNEL_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "cache/tlb.hh"
#include "mem/frame_alloc.hh"
#include "mem/mem_system.hh"
#include "mem/phys_mem.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace ptm
{

class ThreadCtx;
class Core;

/** Result of a virtual-to-physical translation. */
struct XlatResult
{
    /** Home physical address. */
    Addr paddr = 0;
    /** Latency of TLB miss handling / fault handling. */
    Tick latency = 0;
    /** A software exception (page fault) was taken. */
    bool faulted = false;
};

/** The OS kernel model. */
class OsKernel
{
  public:
    OsKernel(const SystemParams &params, EventQueue &eq, PhysMem &phys,
             FrameAllocator &frames);

    /** Late wiring (System construction order). */
    void attach(MemSystem *mem, TmBackend *backend,
                std::vector<Core *> cores);

    /** Create an address space. @return its process id. */
    ProcId createProcess();

    /**
     * Map a shared-memory segment: the virtual range
     * [@p vbase, @p vbase + pages) of every process in @p procs
     * resolves to the same physical frames (allocated on first touch
     * by any of them). Used to exercise PTM's physically-indexed
     * conflict detection across address spaces (section 3.5.3).
     */
    void shareSegment(const std::vector<ProcId> &procs, Addr vbase,
                      unsigned pages);

    /**
     * Same, but each process maps the segment at its own virtual base
     * (the general mmap case): PTM's physically-indexed structures
     * make conflict detection work regardless of the virtual views.
     */
    void shareSegmentAt(
        const std::vector<std::pair<ProcId, Addr>> &views,
        unsigned pages);

    /**
     * Translate @p vaddr for @p proc on @p core, handling TLB misses,
     * first-touch allocation and swap-ins.
     */
    XlatResult translate(CoreId core, ProcId proc, Addr vaddr,
                         bool write);

    /**
     * Zero-latency translation for the direct-execution fast-forward:
     * performs exactly the TLB-hit path of translate() (same counters,
     * same LRU motion) and returns the home physical address, or
     * std::nullopt on a TLB miss *without touching any state*, so the
     * deferred full translate() replays the miss identically.
     */
    std::optional<Addr>
    translateFast(CoreId core, ProcId proc, Addr vaddr)
    {
        PageNum frame = tlbs_[core]->lookupHit(proc, pageOf(vaddr));
        if (frame == invalidPage)
            return std::nullopt;
        return pageBase(frame) + pageOffset(vaddr);
    }

    /**
     * @name In-flight pins
     *
     * A translated access carries its physical address until it
     * reaches memory (a TLB-walk stall, a deferred fast-forward op, a
     * queued bus request). The core pins the frame for that window and
     * the swap victim scan skips pinned frames, so no access reaches a
     * frame that was swapped out (and perhaps reused) after it was
     * translated. Pins are only taken when swapping is on.
     */
    /// @{
    void
    pinFrame(PageNum f)
    {
        if (f >= pins_.size())
            pins_.resize(f + 1, 0);
        ++pins_[f];
    }

    void
    unpinFrame(PageNum f)
    {
        panic_if(f >= pins_.size() || pins_[f] == 0,
                 "unpinning frame %llu without a pin",
                 (unsigned long long)f);
        --pins_[f];
    }

    bool
    pinned(PageNum f) const
    {
        return f < pins_.size() && pins_[f] != 0;
    }
    /// @}

    /** @name Scheduling */
    /// @{
    /** Register a runnable thread. */
    void admit(ThreadCtx *t);
    /** Put a preempted/unblocked thread back on the run queue. */
    void makeReady(ThreadCtx *t);
    /** Pick the next thread for an idle core (nullptr if none). */
    ThreadCtx *pickReady();
    /** True if a thread is waiting for a core. */
    bool hasReady() const { return !ready_.empty(); }
    /** A thread finished its program. */
    void threadExited(ThreadCtx *t);
    /**
     * Invoked at the top of threadExited(). The System drains the
     * exiting thread's in-flight abort cleanups here so a stale
     * Copy-PTM restore can never run after the thread is gone.
     */
    std::function<void(ThreadCtx *)> onThreadExit;
    /** Tick at which the last thread finished. */
    Tick lastExitTick() const { return last_exit_; }
    /** Threads admitted and not yet exited. */
    unsigned liveThreads() const { return live_threads_; }
    /// @}

    /** @name Barriers */
    /// @{
    /** Create a barrier for @p count participants; returns its id. */
    unsigned createBarrier(unsigned count);
    /**
     * Thread @p t arrives at barrier @p id.
     * @return true if the barrier released (all arrived); the caller
     *         re-kicks the waiting threads via makeReady.
     */
    bool barrierArrive(unsigned id, ThreadCtx *t,
                       std::vector<ThreadCtx *> &released);
    /// @}

    /** Kick the scheduler: wake any idle core if work is ready. */
    void kickIdleCores();

    /** Start the periodic timer/daemon machinery (call once). */
    void startTimers();

    /**
     * Swap one resident, swappable page out right now (chaos PageSwap
     * fault). @return the modeled latency, 0 if no victim was found or
     * swapping is disabled.
     */
    Tick forceSwapOut();

    /** Record a transactional write for Table 1's "pg-x-wr". */
    void
    noteTxWrite(ProcId proc, Addr vaddr)
    {
        tx_written_pages_.insert(pageKey(proc, vaddr));
    }

    /** Unique virtual pages touched (Table 1 "pages"). */
    std::size_t uniquePages() const { return touched_pages_.size(); }
    /** Unique virtual pages written transactionally ("pg-x-wr"). */
    std::size_t
    txWrittenPages() const
    {
        return tx_written_pages_.size();
    }

    Tlb &tlb(CoreId c) { return *tlbs_[c]; }

    /** Register this component's statistics under "os". */
    void regStats(StatRegistry &reg);

    /** Attach the event tracer (System wiring; defaults to nil). */
    void setTracer(Tracer *t) { tracer_ = t; }

    /** The attached tracer (Core records its scheduling events). */
    Tracer &tracer() { return *tracer_; }

    /** Attach the cycle profiler (System wiring; defaults to nil). */
    void setProfiler(CycleProfiler *p) { prof_ = p; }

    /** @name Statistics */
    /// @{
    Counter exceptions;      //!< software faults taken (Table 1)
    Counter pageFaults;
    Counter swapIns;
    Counter swapOuts;
    Counter contextSwitches; //!< Table 1 "context-switch"
    Counter tlbShootdowns;
    /// @}

  private:
    struct PageMapping
    {
        enum class State { Unmapped, Resident, Swapped };
        State state = State::Unmapped;
        PageNum frame = invalidPage;   // while Resident
        std::uint64_t swapSlot = 0;    // while Swapped
        /** Shared-segment identity (~0u if private). */
        std::uint32_t shareId = ~0u;
        /** Page index within the shared segment. */
        std::uint32_t sharePage = 0;
    };

    struct Process
    {
        ProcId id;
        /**
         * Invariant for reference stability: while translate() holds a
         * PageMapping reference, the only other lookup that can run is
         * swapOutOne()'s, which uses at() on keys that are always
         * present (the resident FIFO only lists faulted-in pages), so
         * no insertion can rehash under the held reference.
         */
        FlatMap<PageNum, PageMapping> pageTable;
    };

    /** Shared segment: one authoritative mapping per segment page. */
    struct SharedSeg
    {
        std::vector<PageMapping> pages;
    };

    /** Resolve to the authoritative mapping (shared or private). */
    PageMapping &
    resolve(PageMapping &m)
    {
        if (m.shareId == ~0u)
            return m;
        return shared_[m.shareId].pages[m.sharePage];
    }

    static std::uint64_t
    pageKey(ProcId proc, Addr vaddr)
    {
        return (std::uint64_t(proc) << 48) | pageOf(vaddr);
    }

    /** Take a page fault on (proc, vpage). @return latency. */
    Tick handleFault(ProcId proc, PageNum vpage, PageMapping &m);

    /** Ensure a free frame exists, swapping out LRU-ish victims. */
    Tick reclaimFrames();

    /** Swap one resident page out. @return latency (0 if none found). */
    Tick swapOutOne();

    /** Invalidate a translation in every TLB. */
    void shootdown(ProcId proc, PageNum vpage);

    const SystemParams params_;
    EventQueue &eq_;
    PhysMem &phys_;
    FrameAllocator &frames_;
    MemSystem *mem_ = nullptr;
    TmBackend *backend_ = nullptr;
    Tracer *tracer_ = &Tracer::nil();
    CycleProfiler *prof_ = &CycleProfiler::nil();
    std::vector<Core *> cores_;
    std::vector<std::unique_ptr<Tlb>> tlbs_;

    std::vector<Process> procs_;
    std::vector<SharedSeg> shared_;
    /** FIFO of resident (proc, vpage) pairs for swap victim choice. */
    std::deque<std::pair<ProcId, PageNum>> resident_fifo_;
    FlatMap<std::uint64_t, std::vector<std::uint8_t>> swap_data_;
    std::uint64_t next_swap_slot_ = 1;
    /** In-flight access pins by frame number. */
    std::vector<std::uint32_t> pins_;

    std::deque<ThreadCtx *> ready_;
    unsigned live_threads_ = 0;
    Tick last_exit_ = 0;
    /** Pending daemon preemption; cancelled once the workload ends. */
    EventQueue::Handle daemon_timer_;

    struct Barrier
    {
        unsigned count = 0;
        std::vector<ThreadCtx *> waiting;
    };
    std::vector<Barrier> barriers_;

    FlatSet<std::uint64_t> touched_pages_;
    FlatSet<std::uint64_t> tx_written_pages_;

    Pcg32 rng_;
};

} // namespace ptm

#endif // PTM_VM_OS_KERNEL_HH
