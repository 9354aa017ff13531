/**
 * @file
 * The VTM baseline (Rajwar, Herlihy, Lai — "Virtualizing Transactional
 * Memory", ISCA 2005), modeled per section 5.3/5.3.1 of the PTM paper:
 *
 *  - XF: a counting Bloom filter (1.6 M counters, dedicated hardware)
 *    that filters conflict checks for never-overflowed addresses;
 *  - XADT: an in-memory table of overflowed blocks holding the
 *    readers, the writer and the buffered *speculative* data (VTM
 *    buffers new values and copies them to memory at commit — fast
 *    abort, commit pays the copy and its bus/memory bandwidth);
 *  - XADC: a metadata cache sized to match PTM's SPT+TAV caches; a
 *    miss costs an XADT walk (one memory access per entry examined);
 *  - Victim-VTM (VC-VTM): an additional victim cache buffering the
 *    evicted blocks' data so that commits complete instantly for
 *    VC-resident blocks and the copy-back happens lazily on eviction.
 *
 * Commit walks stall any access to a block whose committed data has
 * not yet been copied back; abort walks only discard entries.
 */

#ifndef PTM_VTM_VTM_HH
#define PTM_VTM_VTM_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mem/phys_mem.hh"
#include "mem/timing.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/lru_map.hh"
#include "sim/stats.hh"
#include "tx/supervisor_walk.hh"

namespace ptm
{

/** Counting Bloom filter (the XF). */
class XFilter
{
  public:
    explicit XFilter(std::uint64_t entries)
        : counters_(entries, 0)
    {}

    void
    insert(Addr block)
    {
        for (auto i : hashes(block))
            if (counters_[i] < 0xffff)
                ++counters_[i];
    }

    void
    remove(Addr block)
    {
        for (auto i : hashes(block))
            if (counters_[i] > 0)
                --counters_[i];
    }

    /** May the block have overflowed state? (No false negatives.) */
    bool
    maybePresent(Addr block) const
    {
        for (auto i : hashes(block))
            if (counters_[i] == 0)
                return false;
        return true;
    }

  private:
    std::array<std::uint64_t, 2>
    hashes(Addr block) const
    {
        std::uint64_t x = block >> blockShift;
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdULL;
        x ^= x >> 33;
        std::uint64_t y = x * 0xc4ceb9fe1a85ec53ULL;
        return {x % counters_.size(), y % counters_.size()};
    }

    std::vector<std::uint16_t> counters_;
};

/** The VTM controller backend. */
class VtmController : public SupervisorWalk<Addr>
{
  public:
    VtmController(const SystemParams &params, EventQueue &eq,
                  PhysMem &phys, TxManager &txmgr, DramModel &dram);
    ~VtmController() override = default;

    /** Register the VTM statistics under the "vtm" group. */
    void regStats(StatRegistry &reg) override;

    /** @name TmBackend interface */
    /// @{
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
    /** The XADT is keyed by physical block, so a page with XADT
     *  entries stays resident until the walks of their transactions
     *  drop them. */
    bool swappable(PageNum home) const override;
    /// @}

    /** @name Statistics */
    /// @{
    Counter xadtInserts;
    Counter xadtWalks;
    Counter xfFiltered;   //!< checks short-circuited by the XF
    Counter xadcHits;
    Counter xadcMisses;
    Counter copybacks;    //!< commit copies XADT -> memory
    Counter victimHits;
    Counter victimWritebacks;
    Counter stallsSignalled;
    /** XADT blocks drained per commit/abort walk. */
    Distribution xadtWalkLen{0, 1024, 32};
    /** Overflowed blocks per finished transaction (all txs; the
     *  never-overflowed ones sample as 0). */
    Distribution overflowBlocksPerTx{0, 1024, 32};
    /// @}

  private:
    /** One XADT entry (per overflowed block). */
    struct XadtEntry
    {
        std::vector<TxId> readers;
        TxId writer = invalidTxId;
        /** specData holds the writer's version; once the writer is
         *  Committing, data awaiting copy-back. */
        bool hasSpecData = false;
        std::uint8_t specData[blockBytes] = {};
    };

    /** XADC timing lookup, allocating on a miss; returns added
     *  latency. */
    Tick xadcLookup(Addr block);

    /** Buffer an evicted block in the victim cache (VC-VTM only). */
    void victimInsert(Addr block);

    /** The XADT entry of @p block if @p tx buffers its speculative
     *  data there (what a commit copies back), else nullptr. */
    XadtEntry *specOf(Addr block, TxId tx);

    /** @name The cleanup walk over the XADT blocks (SupervisorWalk) */
    /// @{
    /** Commit the VC-resident blocks instantly (VC-VTM) and walk the
     *  rest. */
    void startCleanup(TxId tx, bool is_commit) override;
    Tick stepCost(TxId tx, bool is_commit, Addr block, Tick t) override;
    /** Copy a committed block back; drop @p tx's association. */
    void applyStep(TxId tx, bool is_commit, Addr block) override;
    /// @}

    PhysMem &phys_;
    DramModel &dram_;
    bool vc_enabled_;

    XFilter xf_;
    std::unordered_map<Addr, XadtEntry> xadt_;
    std::unordered_map<TxId, std::vector<Addr>> tx_blocks_;

    /** XADC: metadata-cache keys with LRU (timing only). */
    LruMap<> xadc_;
    /** Victim cache: resident blocks with LRU (data modeled
     *  functionally through the XADT entry each one shadows). */
    LruMap<> victim_;
};

} // namespace ptm

#endif // PTM_VTM_VTM_HH
