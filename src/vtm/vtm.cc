/**
 * @file
 * VtmController implementation.
 */

#include "vtm/vtm.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace ptm
{

VtmController::VtmController(const SystemParams &params, EventQueue &eq,
                             PhysMem &phys, TxManager &txmgr,
                             DramModel &dram)
    : SupervisorWalk(eq, txmgr, 1), phys_(phys), dram_(dram),
      vc_enabled_(params.tmKind == TmKind::VcVtm),
      xf_(xfEntries), xadc_(params.xadcEntries),
      victim_(params.victimCacheEntries)
{
    panic_if(params.tmKind != TmKind::Vtm &&
                 params.tmKind != TmKind::VcVtm,
             "VtmController built for a non-VTM system kind");
    fatal_if(params.granularity != Granularity::Block,
             "the VTM model supports block-granularity conflicts only");
}

void
VtmController::regStats(StatRegistry &reg)
{
    StatGroup &g = reg.addGroup("vtm");
    g.addCounter("xadt_inserts", &xadtInserts,
                 "blocks inserted into the XADT on overflow");
    g.addCounter("xadt_walks", &xadtWalks,
                 "XADT hash-bucket walks on XADC misses");
    g.addCounter("xf_filtered", &xfFiltered,
                 "accesses filtered by the XF Bloom filter");
    g.addCounter("xadc_hits", &xadcHits, "XADC metadata-cache hits");
    g.addCounter("xadc_misses", &xadcMisses,
                 "XADC metadata-cache misses");
    g.addCounter("copybacks", &copybacks,
                 "committed XADT blocks copied back to memory");
    g.addCounter("victim_hits", &victimHits,
                 "VC-VTM victim-cache data hits");
    g.addCounter("victim_writebacks", &victimWritebacks,
                 "victim-cache entries written back");
    g.addCounter("stalls_signalled", &stallsSignalled,
                 "accesses told to stall behind cleanup");
    g.addScalar("xadt_entries", [this] { return double(xadt_.size()); },
                "XADT entries currently live");
    g.addDistribution("commit_cleanup_latency", &commitCleanupLatency,
                      "ticks from logical commit to cleanup done");
    g.addDistribution("abort_cleanup_latency", &abortCleanupLatency,
                      "ticks from logical abort to cleanup done");
    g.addDistribution("xadt_walk_len", &xadtWalkLen,
                      "entries examined per XADT walk");
    g.addDistribution("overflow_blocks_per_tx", &overflowBlocksPerTx,
                      "overflowed blocks per transaction");
}

Tick
VtmController::xadcLookup(Addr block)
{
    if (xadc_.find(block)) {
        ++xadcHits;
        prof_->charge(ProfCharge::MetaLookup, vtsCacheLatency);
        return vtsCacheLatency;
    }
    ++xadcMisses;
    // Metadata reconstruction via an XADT walk: one memory access per
    // entry examined (we model a short hash-bucket walk).
    Tick now = eq_.curTick();
    Tick done = dram_.access(now);
    ++xadtWalks;
    xadc_.insert(block, {});
    prof_->charge(ProfCharge::MetaLookup, done - now);
    return done - now;
}

void
VtmController::victimInsert(Addr block)
{
    if (!vc_enabled_)
        return;
    if (victim_.insert(block, {})) {
        // Deferred write-back of a committed block leaving the VC.
        ++victimWritebacks;
        dram_.write(eq_.curTick());
    }
}

CheckResult
VtmController::checkAccess(const BlockAccess &acc)
{
    CheckResult r;
    // The XF is dedicated hardware; the query is effectively free.
    r.extraLatency += 1;
    if (!xf_.maybePresent(acc.blockAddr)) {
        ++xfFiltered;
        return r;
    }

    r.extraLatency += xadcLookup(acc.blockAddr);
    auto it = xadt_.find(acc.blockAddr);
    if (it == xadt_.end())
        return r; // Bloom-filter false positive

    XadtEntry &e = it->second;
    if (e.writer != invalidTxId && e.writer != acc.tx) {
        switch (txmgr_.stateOf(e.writer)) {
          case TxState::Running:
            r.conflicts.push_back(e.writer);
            break;
          case TxState::Committing:
            if (e.hasSpecData) {
                // Committed data not yet copied back to memory (the
                // walk, or a chaos-delayed start, has yet to reach the
                // block): the access must stall (section 5.3.1).
                r.stall = true;
                ++stallsSignalled;
            }
            break;
          default:
            break; // aborting/dead writer: memory holds committed data
        }
    }
    if (acc.isWrite) {
        for (TxId rd : e.readers) {
            if (rd != acc.tx && txmgr_.isLive(rd))
                r.conflicts.push_back(rd);
        }
    }
    return r;
}

Tick
VtmController::fillBlock(Addr block_addr, TxId requester,
                         std::uint8_t *dst, std::uint16_t &spec_words,
                         std::vector<TxMark> &foreign)
{
    // Block-granularity conflicts make foreign-spec fills impossible.
    foreign.clear();
    spec_words = 0;
    auto it = xadt_.find(block_addr);
    if (it != xadt_.end() && it->second.hasSpecData &&
        it->second.writer == requester) {
        spec_words = 0xffff;
        // The transaction re-reads its own overflowed block: fetch the
        // speculative version from the XADT (one memory access). The
        // cache line becomes the authoritative speculative copy again,
        // so drop the buffered data and its victim-cache slot — a later
        // eviction re-deposits it, and a commit copy-back of the stale
        // buffer could otherwise overwrite newer committed data.
        std::memcpy(dst, it->second.specData, blockBytes);
        it->second.hasSpecData = false;
        victim_.erase(block_addr);
        Tick now = eq_.curTick();
        return dram_.access(now) - now;
    }
    phys_.readBlock(block_addr, dst);
    return 0;
}

bool
VtmController::mayGrantExclusive(Addr block_addr, TxId requester)
{
    auto it = xadt_.find(block_addr);
    if (it == xadt_.end())
        return true;
    const XadtEntry &e = it->second;
    if (e.writer != invalidTxId && e.writer != requester &&
        txmgr_.isLive(e.writer))
        return false;
    for (TxId rd : e.readers)
        if (rd != requester && txmgr_.isLive(rd))
            return false;
    return true;
}

Tick
VtmController::evictTxBlock(Addr block_addr, TxId tx, bool dirty_spec,
                            const std::uint8_t *data,
                            std::uint16_t read_words,
                            std::uint16_t write_words)
{
    (void)read_words;
    (void)write_words;
    Tick now = eq_.curTick();
    Tick lat = xadcLookup(block_addr);

    XadtEntry &e = xadt_[block_addr];
    bool new_assoc = e.writer != tx &&
                     std::find(e.readers.begin(), e.readers.end(),
                               tx) == e.readers.end();
    if (new_assoc) {
        xf_.insert(block_addr);
        ++xadtInserts;
        tx_blocks_[tx].push_back(block_addr);
    }

    if (dirty_spec) {
        // A dead previous writer's entry may be recycled (its old
        // association stays in its list and is ignored at its
        // cleanup); a live one would have conflicted before this
        // eviction.
        panic_if(e.writer != invalidTxId && e.writer != tx &&
                     txmgr_.isLive(e.writer),
                 "two live speculative writers of one block");
        e.writer = tx;
        e.hasSpecData = true;
        std::memcpy(e.specData, data, blockBytes);
        victimInsert(block_addr);
    } else if (std::find(e.readers.begin(), e.readers.end(), tx) ==
               e.readers.end()) {
        e.readers.push_back(tx);
    }

    noteOverflow(tx);
    // Appending to the XADT is a posted memory write.
    dram_.write(now + lat);
    return lat;
}

Tick
VtmController::writebackBlock(Addr block_addr, const std::uint8_t *data,
                              std::uint16_t word_mask)
{
    // VTM keeps committed data in place: write the home location.
    unsigned block_off = 0;
    for (unsigned w = 0; w < wordsPerBlock; ++w) {
        if (!(word_mask & (1u << w)))
            continue;
        std::uint32_t v;
        std::memcpy(&v, data + w * wordBytes, wordBytes);
        phys_.writeWord32(block_addr + block_off + Addr(w) * wordBytes,
                          v);
    }
    victim_.erase(block_addr);
    dram_.write(eq_.curTick()); // posted write
    return 0;
}

std::uint32_t
VtmController::readCommittedWord32(Addr word_addr)
{
    return phys_.readWord32(word_addr);
}

VtmController::XadtEntry *
VtmController::specOf(Addr block, TxId tx)
{
    auto it = xadt_.find(block);
    return it != xadt_.end() && it->second.writer == tx &&
                   it->second.hasSpecData
               ? &it->second
               : nullptr;
}

void
VtmController::startCleanup(TxId tx, bool is_commit)
{
    std::vector<Addr> blocks;
    if (auto listed = tx_blocks_.extract(tx))
        blocks = std::move(listed.mapped());
    overflowBlocksPerTx.sample(double(blocks.size()));
    if (blocks.empty()) {
        txmgr_.cleanupDone(tx);
        return;
    }
    xadtWalkLen.sample(double(blocks.size()));
    std::vector<Addr> &slow = open(tx, is_commit, std::move(blocks));

    if (is_commit && vc_enabled_) {
        // Victim-cache resident blocks commit instantly: their data is
        // promoted without stalling or occupying memory bandwidth now;
        // the write-back happens when they leave the victim cache.
        std::erase_if(slow, [&](Addr b) {
            if (!specOf(b, tx) || !victim_.find(b))
                return false;
            ++victimHits;
            applyStep(tx, true, b);
            return true;
        });
    }
    // With every block VC-resident the walk is empty and finishes at
    // once: the commit is instant.
    run(tx);
}

Tick
VtmController::stepCost(TxId tx, bool is_commit, Addr block, Tick t)
{
    Tick done = dram_.access(t); // XADT entry read/free
    if (is_commit && specOf(block, tx)) {
        ++copybacks;
        done = dram_.write(done); // the data write to memory
    }
    return done;
}

bool
VtmController::swappable(PageNum home) const
{
    for (unsigned b = 0; b < blocksPerPage; ++b)
        if (xadt_.count(pageBase(home) + Addr(b) * blockBytes))
            return false;
    return true;
}

void
VtmController::applyStep(TxId tx, bool is_commit, Addr block)
{
    auto it = xadt_.find(block);
    if (it == xadt_.end())
        return;
    XadtEntry &e = it->second;
    if (is_commit && e.writer == tx && e.hasSpecData)
        phys_.writeBlock(block, e.specData); // the copy-back

    auto rd = std::find(e.readers.begin(), e.readers.end(), tx);
    if (rd != e.readers.end())
        e.readers.erase(rd);
    if (e.writer == tx) {
        e.writer = invalidTxId;
        e.hasSpecData = false;
        if (!is_commit) {
            // Aborted speculative data must not linger in the VC.
            victim_.erase(block);
        }
    }
    xf_.remove(block);
    if (e.readers.empty() && e.writer == invalidTxId) {
        xadt_.erase(it);
        xadc_.erase(block);
    }
}

} // namespace ptm
