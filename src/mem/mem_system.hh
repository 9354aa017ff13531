/**
 * @file
 * The coherent memory system of the simulated CMP.
 *
 * MemSystem owns the per-core L1 filters and L2 caches, the snoopy
 * MOESI bus, and the DRAM controller, and routes every access through
 * them. It implements the transactional-coherence rules of the paper:
 *
 *  - eager conflict detection at bus-grant time (in-cache marks) plus a
 *    backend check against overflowed state (section 4.4),
 *  - oldest-transaction-wins arbitration via TxManager,
 *  - speculative versioning in the L2: committed dirty data is forced
 *    back to memory before a transaction's first speculative overwrite,
 *  - eviction of transactional blocks triggers backend overflow
 *    handling (section 4.4.3),
 *  - flash commit (clear marks) and abort (invalidate speculative
 *    lines) exposed as TxManager hooks,
 *  - the wd:cache / wd:cache+mem conflict granularities of Figure 5.
 *
 * Timing model: accesses that the L1/L2 can satisfy locally complete
 * synchronously (trySync) in 1 or 7 cycles; everything else becomes a
 * bus transaction processed atomically at bus-grant time, with data
 * return either cache-to-cache (bus round trip) or through the DRAM
 * pipeline. Processing transactions atomically at grant order models a
 * snoopy bus exactly: the bus grant order is the coherence order.
 */

#ifndef PTM_MEM_MEM_SYSTEM_HH
#define PTM_MEM_MEM_SYSTEM_HH

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cache/cache.hh"
#include "mem/phys_mem.hh"
#include "mem/timing.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/dense_map.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "tx/tm_backend.hh"
#include "tx/tx_manager.hh"

namespace ptm
{

/** One 4-byte memory access issued by a core. */
struct Access
{
    CoreId core = 0;
    /** Requesting transaction; invalidTxId for non-transactional. */
    TxId tx = invalidTxId;
    bool isWrite = false;
    bool isCas = false;
    /** Home physical address (4-byte aligned). */
    Addr paddr = 0;
    std::uint32_t storeValue = 0;
    std::uint32_t casExpected = 0;
};

/** Result delivered for an access. */
struct AccessResult
{
    /** Load result / value observed by a CAS. */
    std::uint32_t value = 0;
    /**
     * The requesting transaction was aborted while this access was in
     * flight; the access had no effect and the core must restart the
     * transaction.
     */
    bool txAborted = false;
};

/** Completion callback: (completion tick, result). */
using AccessCallback = std::function<void(Tick, AccessResult)>;

class MemSystem
{
  public:
    MemSystem(const SystemParams &params, EventQueue &eq, PhysMem &phys,
              TxManager &txmgr);

    /** Install the unbounded-TM backend (must outlive MemSystem). */
    void setBackend(TmBackend *backend) { backend_ = backend; }

    /** Attach the event tracer (System wiring; defaults to nil). */
    void setTracer(Tracer *t) { tracer_ = t; }

    /** Attach the cycle profiler (System wiring; defaults to nil). */
    void setProfiler(CycleProfiler *p) { prof_ = p; }

    /**
     * Attempt to complete @p acc, issued at tick @p at (a batched op's
     * virtual issue tick may lie ahead of the clock), without a bus
     * transaction. A hit that would write committed data back (records
     * and posts stamped with the current tick) is refused when @p at
     * lies ahead; the caller replays it at its own tick.
     * @return (latency, result) if it hit locally, std::nullopt if the
     *         access needs the asynchronous path. A nullopt return
     *         leaves nothing a replay at @p at could observe.
     */
    std::optional<std::pair<Tick, AccessResult>>
    trySync(const Access &acc, Tick at);

    /**
     * Full access path. @p cb fires exactly once at completion (which
     * may report txAborted).
     */
    void request(const Access &acc, AccessCallback cb);

    /** @name TxManager hooks */
    /// @{
    /** Flash-clear the marks of @p tx in all caches (logical commit). */
    void commitClearTx(TxId tx);
    /**
     * Logical abort: drop the speculative data of @p tx from all
     * caches (invalidate whole lines in block mode; restore the
     * written words in word-granularity modes) and clear its marks.
     */
    void abortInvalidate(TxId tx);
    /// @}

    /**
     * Evict every cached block of home page @p home (swap-out or
     * explicit flush): transactional marks overflow to the backend,
     * dirty data is written back.
     * @return latency of the flush.
     */
    Tick flushPage(PageNum home);

    /**
     * Evict every cache line marked by transaction @p tx (the
     * flush-on-context-switch ablation, section 4.7).
     * @return latency of the flush.
     */
    Tick flushTxLines(TxId tx);


    /**
     * Functional debug read of the 4-byte word at @p paddr as the
     * given transaction (or committed state for invalidTxId):
     * checks caches for the freshest copy, then asks the backend.
     */
    std::uint32_t debugReadWord32(Addr paddr, TxId tx = invalidTxId);

    /** @name Component access for stats and tests */
    /// @{
    BusModel &bus() { return bus_; }
    DramModel &dram() { return dram_; }
    CacheArray &l2(CoreId c) { return *l2_[c]; }
    L1Filter &l1(CoreId c) { return *l1_[c]; }
    const SystemParams &params() const { return params_; }
    /// @}

    /** Register this component's statistics under "mem". */
    void regStats(StatRegistry &reg);

    /** Mask of cores whose L2 may hold @p block (0 when untracked). */
    std::uint64_t
    dirSharers(Addr block) const
    {
        const std::size_t i = std::size_t(block >> blockShift);
        return i < dir_.size() ? dir_[i] : 0;
    }

    /** Length of the sharer directory: one past the highest block
     *  ever installed (lookups never grow it). */
    std::size_t dirBlocks() const { return dir_.size(); }

    /** @name Statistics */
    /// @{
    Counter l1Hits;
    Counter l2Hits;
    Counter misses;
    Counter evictions;      //!< all L2 evictions (Table 1 "mop/evict")
    Counter txEvictions;    //!< evictions carrying transactional marks
    Counter writebacks;
    Counter conflicts;      //!< arbitrated conflicts
    Counter falseStalls;    //!< retries due to cleanup-in-progress
    Counter cacheToCache;
    /** Aborts forced by a context-switch flush of tx cache lines
     *  (the flushOnContextSwitch ablation, section 4.7). */
    Counter ctxswFlushAborts;
    /** Per-core snoop probes the sharer-filter directory skipped. */
    Counter snoopsFiltered;
    /// @}

  private:
    /** Word index (0..15) of @p paddr within its block. */
    static unsigned
    wordIdx(Addr paddr)
    {
        return unsigned((paddr >> wordShift) & (wordsPerBlock - 1));
    }

    /** In-block byte offset of @p paddr (4-byte aligned). */
    static unsigned
    byteOff(Addr paddr)
    {
        return unsigned(paddr & (blockBytes - 1) & ~Addr(3));
    }

    /** Access mask at the configured conflict granularity. */
    std::uint16_t accessMask(Addr paddr) const;

    /** True if word-granularity conflict detection is enabled. */
    bool
    wordMode() const
    {
        return params_.granularity != Granularity::Block;
    }

    /**
     * Collect in-cache conflicts of @p acc against marks on @p line
     * (skipping the requester's own marks). Appends live transaction
     * ids to @p out.
     */
    void lineConflicts(const Access &acc, std::uint16_t mask,
                       const CacheLine &line,
                       std::vector<TxId> &out) const;

    /** Process one granted bus transaction. */
    void processGrant(const Access &acc, AccessCallback cb,
                      Tick grant_tick, unsigned attempt);

    /** Retry a stalled access after a delay. */
    void scheduleRetry(const Access &acc, AccessCallback cb,
                       Tick when, unsigned attempt);

    /**
     * Evict @p victim from core @p c's L2 (overflow marks, write back
     * dirty data). @return latency of the eviction handling.
     */
    Tick evictLine(CoreId c, CacheLine &victim);

    /**
     * Force the committed version of a dirty line to memory before its
     * first speculative overwrite. @return writeback latency.
     */
    Tick writebackCommitted(CacheLine &line);

    /** Apply an op issued at tick @p at to an L2 line; returns its value. */
    std::uint32_t applyOp(const Access &acc, CacheLine &line, Tick at);

    /**
     * Bookkeeping before a word write: track committed-dirty words
     * and persist a committed word about to be speculatively
     * overwritten (word-granularity modes).
     */
    void noteWordWrite(const Access &acc, CacheLine &line);

    /** True if @p acc is a transactional store that noteWordWrite
     *  must precede with a committed-word writeback to @p line. */
    bool
    persistsWord(const Access &acc, const CacheLine &line) const
    {
        return wordMode() && acc.tx != invalidTxId &&
               (acc.isWrite || acc.isCas) &&
               (line.dirtyWords & (1u << wordIdx(acc.paddr)));
    }

    /** Set the requester's transactional marks on a line + L1 mirror. */
    void setMarks(const Access &acc, CacheLine &line);

    /** Refresh core @p c's L1 entry mirroring @p line for tx @p tx. */
    void fillL1(CoreId c, const CacheLine &line, TxId tx);

    /** Back-invalidate / downgrade L1s when an L2 line changes. */
    void l1Invalidate(CoreId c, Addr block);
    void l1Downgrade(CoreId c, Addr block);

    /**
     * Restore the speculatively-written words of @p tx in @p line from
     * the committed version (word-granularity abort path).
     */
    void restoreWords(CacheLine &line, const TxMark &mark);

    /** @name Sharer-filter directory
     *
     * One array indexed by physical block number, holding a 64-bit
     * mask of cores whose L2 *may* hold the block; it grows on demand
     * to the highest block installed. The mask is conservative: bits
     * are set at the single line-install site (processGrant) and
     * cleared lazily — at invalidation sites and self-healing on any
     * probe that finds no line — so a stale bit only costs one wasted
     * probe, never a missed snoop. Iterating set bits in ascending
     * core order visits exactly the cores the broadcast loops visited,
     * so simulated results are unchanged; the filter only removes
     * guaranteed-miss probes.
     */
    /// @{
    /** Record that core @p c now caches @p block. */
    void dirSet(CoreId c, Addr block);
    /** Record that core @p c no longer caches @p block. */
    void dirClear(CoreId c, Addr block);
    /// @}

    /** @name Per-transaction footprint
     *
     * For every (transaction, core) pair, a bitmap over the core's L2
     * line slots: bit s is set when the transaction's mark is created
     * on slot s (setMarks, and the migrated / fill-foreign / fill-spec
     * mark merges in processGrant — the only sites that add marks).
     * The commit, abort and tx-flush paths visit only the set bits,
     * cores ascending and slots low to high, which is the set/way
     * order of a full cache walk: the lines they act on, and the order
     * of every record and directory update they make, are those of the
     * full walk. A set bit may be stale (the line was evicted or the
     * slot reused), so each visit re-checks the line's mark. Bits are
     * never cleared while the transaction lives, except by the clear
     * paths themselves, which drop the whole footprint. L1 tx entries
     * mirror marked L2 lines, so the same visit clears them.
     */
    /// @{
    /** Bitmaps of one transaction, one per core it marked lines on. */
    struct TxFootprint
    {
        /** Cores with a bitmap, ascending in @c bits. */
        std::uint64_t cores = 0;
        /** footprintWords_ words per core in @c cores. */
        std::vector<std::uint64_t> bits;
    };

    /** Record that @p tx marked @p line in core @p c's L2. */
    void noteFootprint(TxId tx, CoreId c, const CacheLine &line);

    /** Remove and return the footprint of @p tx (empty if none). */
    TxFootprint takeFootprint(TxId tx);

    /** Apply @p fn(core, line, mark) to every line of @p fp that
     *  still carries a mark of @p tx, in full-walk order. */
    template <typename F>
    void forEachMarkedLine(const TxFootprint &fp, TxId tx, F &&fn);
    /// @}

    const SystemParams params_;
    EventQueue &eq_;
    PhysMem &phys_;
    TxManager &txmgr_;
    TmBackend *backend_ = nullptr;
    Tracer *tracer_ = &Tracer::nil();
    CycleProfiler *prof_ = &CycleProfiler::nil();

    BusModel bus_;
    DramModel dram_;
    std::vector<std::unique_ptr<L1Filter>> l1_;
    std::vector<std::unique_ptr<CacheArray>> l2_;

    /** Sharer-filter directory: sharer mask by physical block number. */
    std::vector<std::uint64_t> dir_;

    /** Per-transaction footprints (see noteFootprint). */
    DenseMap<TxId, TxFootprint> footprints_;
    /** Bitmap words per (transaction, core): one bit per L2 slot. */
    std::size_t footprintWords_;

    /**
     * @name Per-miss scratch
     *
     * Reused across calls so a miss allocates nothing. Neither
     * processGrant nor evictLine issues a bus request synchronously,
     * so neither re-enters itself while its lists are live.
     */
    /// @{
    std::vector<std::pair<CoreId, CacheLine *>> grant_sharers_;
    std::vector<TxId> grant_conflicts_;
    std::vector<TxMark> grant_migrated_;
    std::vector<TxMark> grant_fill_foreign_;
    std::vector<TxMark> evict_live_;
    /// @}

    /** True while flushTxLines runs (abort-cause attribution). */
    bool in_tx_flush_ = false;

    /** Retry delay for cleanup-in-progress stalls. */
    static constexpr Tick retryDelay = 40;
    /** Give up after this many retries (deadlock detector). */
    static constexpr unsigned maxRetries = 100000;
};

} // namespace ptm

#endif // PTM_MEM_MEM_SYSTEM_HH
