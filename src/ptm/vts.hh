/**
 * @file
 * The Virtual Transaction Supervisor (VTS) — PTM's memory-controller
 * engine (section 4 of the paper).
 *
 * The VTS owns the memory-resident PTM structures (Shadow Page Table,
 * Swap Index Table, TAV lists) and two hardware caches over them:
 *
 *  - the SPT cache (512 fully-associative entries): shadow pointer,
 *    selection vector and read/write summary vectors per page;
 *  - the TAV cache (2048 fully-associative entries, tagged by
 *    (page, transaction)): per-transaction access vectors.
 *
 * It implements both versioning policies:
 *
 *  - Copy-PTM: the speculative block always goes to the home page; the
 *    committed block is copied to the shadow page on the first dirty
 *    overflow. Commit frees TAVs only; abort restores home blocks from
 *    the shadow page.
 *  - Select-PTM: a per-page selection vector says which of home/shadow
 *    holds the committed unit. Evicted speculative data goes to the
 *    non-committed location; commit toggles selection bits; abort does
 *    no data movement at all.
 *
 * Commit/abort processing is lazy: the T-State flip happens instantly
 * (TxManager), then a supervisor walk frees one TAV node per memory
 * access; accesses touching not-yet-cleaned pages stall (section 4.5).
 */

#ifndef PTM_PTM_VTS_HH
#define PTM_PTM_VTS_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "mem/frame_alloc.hh"
#include "mem/phys_mem.hh"
#include "mem/timing.hh"
#include "ptm/granularity.hh"
#include "ptm/tav.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/stats.hh"
#include "tx/tm_backend.hh"
#include "tx/tx_manager.hh"

namespace ptm
{

class PtmAuditor;
struct AuditTestAccess;

/**
 * Timing model of a fully-associative, LRU, write-back metadata cache
 * in the memory controller (the SPT cache and the TAV cache). The
 * simulator keeps the *functional* PTM structures always current; these
 * caches only decide whether a lookup pays cache latency or a memory
 * walk.
 *
 * Hit, miss and eviction are all O(1): entries live in a slab indexed
 * by an open-addressing map, threaded on an intrusive doubly-linked
 * list in recency order, so the LRU victim is the list tail (the exact
 * entry the previous implementation found by scanning every entry for
 * the minimum use stamp — use stamps are unique, so victim choice and
 * therefore every simulated statistic is unchanged).
 */
class VtsMetaCache
{
  public:
    explicit VtsMetaCache(unsigned entries) : capacity_(entries)
    {
        nodes_.reserve(entries);
        index_.reserve(entries);
    }

    /**
     * Look up @p key; inserts it on a miss (possibly evicting LRU).
     * @param mark_dirty the entry is being updated in place
     * @param[out] evicted_dirty an LRU victim needed a write-back
     * @return true on hit
     */
    bool access(std::uint64_t key, bool mark_dirty, bool &evicted_dirty);

    /** Drop @p key (structure freed). */
    void remove(std::uint64_t key);

    /**
     * Change the capacity at runtime (chaos cache squeezes), evicting
     * LRU entries — with normal write-back accounting — until the new
     * capacity holds. A zero @p entries is clamped to 1.
     */
    void setCapacity(unsigned entries);

    unsigned capacity() const { return capacity_; }

    Counter hits;
    Counter misses;
    Counter dirtyEvictions;

  private:
    static constexpr std::uint32_t nil = ~std::uint32_t(0);

    struct Node
    {
        std::uint64_t key = 0;
        std::uint32_t prev = nil;
        std::uint32_t next = nil;
        bool dirty = false;
    };

    /** Detach node @p i from the recency list. */
    void unlink(std::uint32_t i);
    /** Attach node @p i at the most-recently-used end. */
    void pushFront(std::uint32_t i);

    unsigned capacity_;
    std::vector<Node> nodes_;           //!< slab; index_ maps into it
    std::vector<std::uint32_t> free_;   //!< recycled slab slots
    std::uint32_t head_ = nil;          //!< most recently used
    std::uint32_t tail_ = nil;          //!< LRU victim
    FlatMap<std::uint64_t, std::uint32_t> index_;
};

/**
 * A VTS metadata cache partitioned by interconnect bank: one
 * VtsMetaCache per bank, routed by the home page number, with the
 * total capacity divided evenly across partitions. With one bank (the
 * paper configuration) this is a single full-capacity partition and
 * behaves bit-identically to the unpartitioned cache; with more banks,
 * each bank's controller slice arbitrates its own metadata cache, so
 * SPT/TAV lookups to disjoint banks never contend for the same LRU
 * state. The aggregate hit/miss/dirty-eviction counters live here so
 * stats wiring is independent of the partition count.
 */
class BankedVtsCache
{
  public:
    BankedVtsCache(unsigned entries, unsigned banks)
        : route_mask_(std::max(1u, banks) - 1)
    {
        unsigned n = std::max(1u, banks);
        unsigned per = std::max(1u, (entries + n - 1) / n);
        parts_.reserve(n);
        for (unsigned i = 0; i < n; ++i)
            parts_.emplace_back(per);
    }

    /**
     * Look up @p key in the partition serving home page @p route;
     * inserts it on a miss (possibly evicting that partition's LRU).
     * @return true on hit
     */
    bool
    access(PageNum route, std::uint64_t key, bool mark_dirty,
           bool &evicted_dirty)
    {
        bool hit = part(route).access(key, mark_dirty, evicted_dirty);
        if (hit)
            ++hits;
        else
            ++misses;
        if (evicted_dirty)
            ++dirtyEvictions;
        return hit;
    }

    /** Drop @p key from the partition serving @p route. */
    void remove(PageNum route, std::uint64_t key)
    {
        part(route).remove(key);
    }

    /**
     * Change the *total* capacity at runtime (chaos cache squeezes),
     * divided evenly across partitions with normal write-back
     * accounting for the evictions.
     */
    void
    setCapacity(unsigned entries)
    {
        unsigned n = unsigned(parts_.size());
        unsigned per = std::max(1u, (entries + n - 1) / n);
        for (VtsMetaCache &p : parts_)
            p.setCapacity(per);
    }

    /** Total capacity over all partitions. */
    unsigned
    capacity() const
    {
        unsigned n = 0;
        for (const VtsMetaCache &p : parts_)
            n += p.capacity();
        return n;
    }

    /** Number of partitions (= interconnect banks). */
    unsigned numPartitions() const { return unsigned(parts_.size()); }

    Counter hits;
    Counter misses;
    Counter dirtyEvictions;

  private:
    VtsMetaCache &part(PageNum route)
    {
        return parts_[route & route_mask_];
    }

    PageNum route_mask_;
    std::vector<VtsMetaCache> parts_;
};

/** The PTM backend. */
class Vts : public TmBackend
{
  public:
    /**
     * @param params    system configuration (selects Copy vs Select
     *                  via params.tmKind and the vector granularity)
     * @param eq        global event queue (background walks)
     * @param phys      functional physical memory
     * @param txmgr     transaction manager (arbitration, T-State)
     * @param frames    physical frame allocator (shadow pages)
     * @param dram      memory controller timing (walks share bandwidth
     *                  with demand traffic)
     */
    Vts(const SystemParams &params, EventQueue &eq, PhysMem &phys,
        TxManager &txmgr, FrameAllocator &frames, DramModel &dram);

    ~Vts() override;

    /** Register the VTS statistics under the "vts" group. */
    void regStats(StatRegistry &reg) override;

    /** Attach the observer path (System wiring; defaults to nil). */
    void setTracer(Tracer *t) { tracer_ = t; }

    /** Attach the cycle profiler (System wiring; defaults to nil). */
    void setProfiler(CycleProfiler *p) { prof_ = p; }

    /** Attach the fault injector (System wiring; defaults to nil). */
    void setChaos(ChaosEngine *c) { chaos_ = c; }

    /** @name TmBackend interface */
    /// @{
    bool anyOverflow() const override { return overflowed_live_ > 0; }
    CheckResult checkAccess(const BlockAccess &acc) override;
    Tick fillBlock(Addr block_addr, TxId requester, std::uint8_t *dst,
                   std::uint16_t &spec_words,
                   std::vector<TxMark> &foreign) override;
    bool mayGrantExclusive(Addr block_addr, TxId requester) override;
    Tick evictTxBlock(Addr block_addr, TxId tx, bool dirty_spec,
                      const std::uint8_t *data, std::uint16_t read_words,
                      std::uint16_t write_words) override;
    Tick writebackBlock(Addr block_addr, const std::uint8_t *data,
                        std::uint16_t word_mask) override;
    std::uint32_t readCommittedWord32(Addr word_addr) override;
    void commitTx(TxId tx) override;
    void abortTx(TxId tx) override;
    void pageSwapOut(PageNum home, std::uint64_t slot) override;
    void pageSwapIn(std::uint64_t slot, PageNum new_home) override;
    /// @}

    /**
     * Composite key for the TAV cache. Mixes the full (page, tx) pair
     * through the splitmix64 finalizer; the old `(home << 22) ^ tx`
     * fold aliased distinct pairs once tx ids exceeded 22 bits (or
     * pages shared low bits after the shift), silently merging cache
     * entries. Public so tests can pin the no-collision property.
     */
    static std::uint64_t
    tavKey(PageNum home, TxId tx)
    {
        return mix64(std::uint64_t(home) * 0x9e3779b97f4a7c15ull +
                     std::uint64_t(tx));
    }


    /** Whether the OS may pick @p home as a swap victim (we keep the
     *  model simple by not swapping pages with live TAV state). */
    bool swappable(PageNum home) const override;

    /** The SPT entry of @p home, nullptr if none (tests/inspection). */
    const SptEntry *sptEntry(PageNum home) const;

    /**
     * Force @p tx's cleanup to completion right now: starts a
     * chaos-delayed walk that has not begun and synchronously
     * processes every remaining node of its job. No-op if @p tx has
     * no cleanup in flight. Used when simulated time is up and by
     * drainThreadCleanups().
     */
    void finishCleanupNow(TxId tx);

    /**
     * Flush the in-flight *abort* cleanups of every transaction owned
     * by @p thread. Called at thread exit so a stale Copy-PTM restore
     * can never run after the thread is gone (and, transitively, can
     * never race a later reuse of its pages). Commit cleanups are
     * side-effect-free for restarts and keep draining lazily.
     */
    void drainThreadCleanups(ThreadId thread);

    /** Flush every in-flight cleanup (end of run under --max-ticks). */
    void drainAllCleanups();

    /** Number of shadow pages currently allocated. */
    std::uint64_t liveShadowPages() const { return shadow_pages_; }

    /** Time-weighted "pages with live speculative overflow" gauge for
     *  Table 1's "ideal" column. Call finishStats() at end of sim. */
    const TimeWeighted &liveDirtyPagesStat() const { return live_dirty_; }
    void finishStats(Tick now) { live_dirty_.finish(now); }

    /** @name Statistics */
    /// @{
    Counter shadowAllocs;
    Counter shadowFrees;
    Counter tavNodesCreated;
    Counter commitWalkNodes;
    Counter abortWalkNodes;
    Counter abortRestoreUnits; //!< Copy-PTM block restores on abort
    Counter copyBackups;       //!< Copy-PTM home->shadow backups
    Counter stallsSignalled;
    Counter lazyMigrations;    //!< Select-PTM lazy shadow merges
    BankedVtsCache sptCache;
    BankedVtsCache tavCache;
    /** Supervisor latency of each lazy commit walk (overflowed txs). */
    Distribution commitCleanupLatency{0, 512 * 1000, 32};
    /** Supervisor latency of each lazy abort walk (overflowed txs). */
    Distribution abortCleanupLatency{0, 512 * 1000, 32};
    /** TAV nodes met rebuilding a page's summary on an SPT-cache miss. */
    Distribution sptWalkLen{0, 64, 16};
    /** TAV nodes freed per commit/abort cleanup walk. */
    Distribution tavWalkLen{0, 512, 32};
    /** Pages with overflowed state per finished transaction (all txs,
     *  including the never-overflowed ones, which sample as 0). */
    Distribution overflowPagesPerTx{0, 256, 32};
    /// @}

  private:
    friend class PtmAuditor;
    friend struct AuditTestAccess;

    struct CleanupJob
    {
        bool isCommit = false;
        std::vector<TavNode *> nodes;
        std::size_t next = 0;
        Tick startTick = 0; //!< cleanup-latency distributions
        unsigned shard = 0; //!< supervisor cleanup-queue shard
    };

    /** Get-or-create the SPT entry of @p home. */
    SptEntry &entryFor(PageNum home);
    SptEntry *findEntry(PageNum home);
    const SptEntry *findEntry(PageNum home) const;

    /**
     * Charge an SPT-cache lookup (hit latency or memory walk). @p tx
     * is the transaction on whose behalf the lookup runs — flight-
     * recorder miss attribution only; invalidTxId when the lookup is
     * not transactional (non-speculative writebacks).
     */
    Tick sptLookupCost(PageNum home, TxId tx = invalidTxId);
    /** Charge a TAV-cache lookup for (page, tx). */
    Tick tavLookupCost(PageNum home, TxId tx, bool mark_dirty);

    /** Allocate the shadow page of @p e if not present, attributed to
     *  @p tx (the overflowing transaction). */
    void ensureShadow(SptEntry &e, TxId tx);
    /** Free @p e's shadow page. */
    void freeShadow(SptEntry &e);
    /** Free the shadow if the policy allows it right now. */
    void maybeFreeShadow(SptEntry &e);

    /**
     * Selection bit of unit @p i with the pending toggles of
     * Committing transactions' lazy walks applied (see the commit-walk
     * race note in committedUnitAddr's implementation).
     */
    bool effSelection(const SptEntry &e, unsigned i) const;

    /**
     * Copy-PTM: true while unit @p i is backed up in the shadow page
     * by a writer that is not Committing, so its committed copy lives
     * there until the writer's walk (same TAV-list walk as
     * effSelection).
     */
    bool backedUp(const SptEntry &e, unsigned i) const;

    /** Physical address of the *committed* unit covering bit @p i. */
    Addr committedUnitAddr(const SptEntry &e, unsigned i) const;
    /** Physical address of the *speculative* unit covering bit @p i. */
    Addr specUnitAddr(const SptEntry &e, unsigned i) const;

    /** Recompute a page's summary vectors and live-dirty gauge. */
    void refreshPage(SptEntry &e);

    /** Mark @p tx as having overflowed (global flag bookkeeping). */
    void noteOverflow(TxId tx);

    /** Background walk machinery. */
    void scheduleCleanup(TxId tx, bool is_commit);
    void startCleanup(TxId tx, bool is_commit);
    void cleanupStep(TxId tx);
    void processNode(CleanupJob &job, TavNode *node);

    const SystemParams params_;
    EventQueue &eq_;
    PhysMem &phys_;
    TxManager &txmgr_;
    FrameAllocator &frames_;
    DramModel &dram_;
    Tracer *tracer_ = &Tracer::nil();
    CycleProfiler *prof_ = &CycleProfiler::nil();
    ChaosEngine *chaos_ = &ChaosEngine::nil();
    PageGran gran_;
    bool select_;

    FlatMap<PageNum, SptEntry> spt_;
    /** Swap Index Table: entries of swapped-out pages, by swap slot. */
    FlatMap<std::uint64_t, SptEntry> sit_;
    /** Shadow page bytes of swapped-out pages, by swap slot. */
    FlatMap<std::uint64_t, std::vector<std::uint8_t>>
        swapped_shadow_data_;

    /** Vertical TAV list heads (T-State links). */
    FlatMap<TxId, TavNode *> tx_head_;
    FlatMap<TxId, CleanupJob> jobs_;
    /** Cleanups whose start a chaos delay is holding (value: commit). */
    FlatMap<TxId, bool> pending_delayed_;

    /** Slab allocator for every TAV node this backend creates. */
    TavArena tav_arena_;

    /** Cleanup-queue shard of @p tx (its owning thread, modulo the
     *  shard count; 0 when running the single paper-config queue). */
    unsigned cleanupShardOf(TxId tx) const;

    unsigned overflowed_live_ = 0;
    std::uint64_t shadow_pages_ = 0;
    /**
     * Per-shard supervisor timelines. With --mem-banks 1 (the paper
     * configuration) a single timeline serializes every cleanup walk,
     * bit-exactly as before; with a banked interconnect each core's
     * cleanup queue drains independently, keyed by the transaction's
     * owning thread.
     */
    std::vector<Tick> supervisor_free_;
    std::uint64_t live_dirty_count_ = 0;
    TimeWeighted live_dirty_;
};

} // namespace ptm

#endif // PTM_PTM_VTS_HH
