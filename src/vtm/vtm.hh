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
#include "tx/tm_backend.hh"
#include "tx/tx_manager.hh"

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
class VtmController : public TmBackend
{
  public:
    VtmController(const SystemParams &params, EventQueue &eq,
                  PhysMem &phys, TxManager &txmgr, DramModel &dram);
    ~VtmController() override = default;

    /** Register the VTM statistics under the "vtm" group. */
    void regStats(StatRegistry &reg) override;

    /** Attach the event tracer (System wiring; defaults to nil). */
    void setTracer(Tracer *t) { tracer_ = t; }

    /** Attach the cycle profiler (System wiring; defaults to nil). */
    void setProfiler(CycleProfiler *p) { prof_ = p; }

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
    /** Supervisor latency of each commit drain (overflowed txs;
     *  victim-cache instant commits sample as 0). */
    Distribution commitCleanupLatency{0, 512 * 1000, 32};
    /** Supervisor latency of each abort drain (overflowed txs). */
    Distribution abortCleanupLatency{0, 512 * 1000, 32};
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
        bool hasSpecData = false;
        std::uint8_t specData[blockBytes] = {};
        /** Writer committed; data awaiting copy-back. */
        bool pendingCopyback = false;
    };

    struct CleanupJob
    {
        bool isCommit = false;
        std::vector<Addr> blocks;
        std::size_t next = 0;
        Tick startTick = 0; //!< cleanup-latency distributions
    };

    /** XADC timing lookup, allocating on a miss; returns added
     *  latency. */
    Tick xadcLookup(Addr block);

    /** Buffer an evicted block in the victim cache (VC-VTM only). */
    void victimInsert(Addr block);

    void noteOverflow(TxId tx);
    void startCleanup(TxId tx, bool is_commit);
    void cleanupStep(TxId tx);
    void processBlock(CleanupJob &job, Addr block, TxId tx);
    /** Drop the overflow flag and report cleanup completion. */
    void finishCleanupNow(TxId tx);

    const SystemParams params_;
    EventQueue &eq_;
    PhysMem &phys_;
    TxManager &txmgr_;
    DramModel &dram_;
    Tracer *tracer_ = &Tracer::nil();
    CycleProfiler *prof_ = &CycleProfiler::nil();
    bool vc_enabled_;

    XFilter xf_;
    std::unordered_map<Addr, XadtEntry> xadt_;
    std::unordered_map<TxId, std::vector<Addr>> tx_blocks_;
    std::unordered_map<TxId, CleanupJob> jobs_;

    /** XADC: metadata-cache keys with LRU (timing only). */
    LruMap<> xadc_;
    /** Victim cache: resident blocks with LRU (data modeled
     *  functionally through the XADT entry each one shadows). */
    LruMap<> victim_;

    unsigned overflowed_live_ = 0;
    Tick supervisor_free_ = 0;
};

} // namespace ptm

#endif // PTM_VTM_VTM_HH
