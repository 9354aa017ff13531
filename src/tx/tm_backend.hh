/**
 * @file
 * Interface between the cache/coherence machinery and an unbounded-TM
 * backend (the PTM Virtual Transaction Supervisor, the VTM baseline, or
 * a trivial pass-through for serial/lock runs).
 *
 * The memory system calls the backend at the three points the paper
 * identifies: conflict checks on cache misses while overflowed state
 * exists, evictions of transactional blocks, and block fetches that
 * must choose between the home page, the shadow page, or a log
 * structure. Commit/abort cleanup is driven through TxManager hooks
 * wired to commitTx()/abortTx().
 */

#ifndef PTM_TX_TM_BACKEND_HH
#define PTM_TX_TM_BACKEND_HH

#include <cstdint>
#include <vector>

#include "cache/cache.hh"

#include "sim/types.hh"

namespace ptm
{

/** One block-granularity access as seen at the memory controller. */
struct BlockAccess
{
    /** Block-aligned home physical address. */
    Addr blockAddr = 0;
    /** Requesting transaction; invalidTxId for non-transactional. */
    TxId tx = invalidTxId;
    bool isWrite = false;
    /** Mask of the 4-byte words touched (for word-granularity modes). */
    std::uint16_t wordMask = 0;
};

/** Outcome of a backend conflict check. */
struct CheckResult
{
    /**
     * The access hit state whose owner is mid commit/abort cleanup;
     * the requester must stall and retry (section 4.5).
     */
    bool stall = false;
    /** Structure-walk latency to charge the access. */
    Tick extraLatency = 0;
    /** Live transactions that conflict; arbitration decides survival. */
    std::vector<TxId> conflicts;
};

/**
 * Abstract unbounded-TM backend.
 */
class StatRegistry;

class TmBackend
{
  public:
    virtual ~TmBackend() = default;

    /** Register the backend's statistics ("vts" / "vtm" group). */
    virtual void regStats(StatRegistry &reg) { (void)reg; }

    /** Global overflow flag: any live transaction has evicted state. */
    virtual bool anyOverflow() const = 0;

    /**
     * Conflict check for a miss reaching the bus (called for both
     * transactional and non-transactional accesses, but only while
     * anyOverflow() is true).
     */
    virtual CheckResult checkAccess(const BlockAccess &acc) = 0;

    /**
     * Copy the version of the block that the requester must observe
     * into @p dst (home page, shadow page, or log, per policy). Called
     * when the fill is serviced by memory.
     *
     * @param[out] spec_words mask of the 4-byte words that are the
     *        requester's own *speculative* version; the cache line
     *        must be re-marked as transactionally written for them so
     *        that abort/commit and isolation handling stay correct.
     * @param[out] foreign overflowMarks() of the block: the cache
     *        line must carry them so conflict detection keeps
     *        working on cached copies.
     * @return extra latency beyond the standard DRAM access.
     */
    virtual Tick fillBlock(Addr block_addr, TxId requester,
                           std::uint8_t *dst, std::uint16_t &spec_words,
                           std::vector<TxMark> &foreign) = 0;

    /**
     * Replace @p out with the marks of the live transactions that
     * overflowed words of the block (word-granularity modes), less the
     * requester's own writes (fillBlock's spec_words): a writer's
     * speculative words are part of the block as fetched (the paper's
     * XOR rule fetches the speculative location whenever the write
     * summary bit is set), and a reader's words must conflict with a
     * later store by anyone else — the requester's own reads included,
     * since another transaction may run on the core before it commits.
     * A line taken writable must carry these marks, or its local
     * stores would skip the check.
     */
    virtual void
    overflowMarks(Addr block_addr, TxId requester,
                  std::vector<TxMark> &out)
    {
        (void)block_addr;
        (void)requester;
        out.clear();
    }

    /**
     * Whether a read miss may take the line Exclusive. PTM refuses
     * when a different transaction has overflow-read the block
     * (section 4.4.1).
     */
    virtual bool mayGrantExclusive(Addr block_addr, TxId requester) = 0;

    /**
     * A transactional block is being evicted from a cache: record the
     * access vectors and, if @p dirty_spec, store the speculative data
     * per the versioning policy. @p data is the line's 64 bytes.
     * @return latency of the overflow handling.
     */
    virtual Tick evictTxBlock(Addr block_addr, TxId tx, bool dirty_spec,
                              const std::uint8_t *data,
                              std::uint16_t read_words,
                              std::uint16_t write_words) = 0;

    /**
     * Write back non-speculative dirty data (capacity eviction, or the
     * forced writeback of committed data before the first transactional
     * overwrite of a dirty line). Only the 4-byte words selected by
     * @p word_mask are written, to their *committed* locations.
     * @return latency of the writeback.
     */
    virtual Tick writebackBlock(Addr block_addr, const std::uint8_t *data,
                                std::uint16_t word_mask = 0xffff) = 0;

    /**
     * Functional read of the *committed* 4-byte word at @p word_addr,
     * used to restore aborted words in word-granularity modes.
     */
    virtual std::uint32_t readCommittedWord32(Addr word_addr) = 0;

    /** Kick off commit cleanup; must end in TxManager::cleanupDone. */
    virtual void commitTx(TxId tx) = 0;

    /** Kick off abort cleanup; must end in TxManager::cleanupDone. */
    virtual void abortTx(TxId tx) = 0;

    /** @name OS paging integration (section 3.5); default no-ops. */
    /// @{
    /**
     * May the OS choose @p home as a swap victim right now? The PTM
     * backend pins pages with live TAV state (modeling choice; the
     * architecture itself also supports swapping those).
     */
    virtual bool
    swappable(PageNum home) const
    {
        (void)home;
        return true;
    }
    /**
     * The OS is about to swap out home page @p home to swap slot
     * @p slot: migrate the SPT entry to the Swap Index Table (and
     * swap or merge-free the shadow page).
     */
    virtual void pageSwapOut(PageNum home, std::uint64_t slot)
    {
        (void)home;
        (void)slot;
    }
    /** The page of swap slot @p slot returns in frame @p new_home:
     *  migrate the SIT entry back to the SPT. */
    virtual void pageSwapIn(std::uint64_t slot, PageNum new_home)
    {
        (void)slot;
        (void)new_home;
    }
    /// @}
};

} // namespace ptm

#endif // PTM_TX_TM_BACKEND_HH
