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
    : params_(params), eq_(eq), phys_(phys), txmgr_(txmgr),
      dram_(dram), vc_enabled_(params.tmKind == TmKind::VcVtm),
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

void
VtmController::noteOverflow(TxId tx)
{
    Transaction *t = txmgr_.get(tx);
    panic_if(!t, "overflow for unknown transaction");
    if (!t->overflowed) {
        t->overflowed = true;
        ++overflowed_live_;
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
            if (e.pendingCopyback) {
                // Committed data not yet copied back to memory: the
                // access must stall (section 5.3.1).
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
        auto &blocks = tx_blocks_[tx];
        blocks.push_back(block_addr);
    }

    if (dirty_spec) {
        // A dead previous writer's entry may be recycled; a live one
        // would have conflicted before this eviction.
        panic_if(e.writer != invalidTxId && e.writer != tx &&
                     txmgr_.isLive(e.writer),
                 "two live speculative writers of one block");
        if (e.writer != tx && e.writer != invalidTxId) {
            // Recycle: the old association stays in the old tx's list
            // and is ignored at its cleanup.
        }
        e.writer = tx;
        e.hasSpecData = true;
        std::memcpy(e.specData, data, blockBytes);
        e.pendingCopyback = false;
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

void
VtmController::commitTx(TxId tx)
{
    startCleanup(tx, true);
}

void
VtmController::abortTx(TxId tx)
{
    startCleanup(tx, false);
}

void
VtmController::startCleanup(TxId tx, bool is_commit)
{
    auto it = tx_blocks_.find(tx);
    std::vector<Addr> blocks;
    if (it != tx_blocks_.end()) {
        blocks = std::move(it->second);
        tx_blocks_.erase(it);
    }
    overflowBlocksPerTx.sample(double(blocks.size()));
    if (blocks.empty()) {
        txmgr_.cleanupDone(tx);
        return;
    }
    xadtWalkLen.sample(double(blocks.size()));
    tracer_->record(TraceEventType::WalkStart, traceNoId, traceNoId,
                    tx, invalidTxId, is_commit ? 1 : 0, blocks.size());

    CleanupJob job;
    job.isCommit = is_commit;
    job.startTick = eq_.curTick();

    if (is_commit && vc_enabled_) {
        // Victim-cache resident blocks commit instantly: their data is
        // promoted without stalling or occupying memory bandwidth now;
        // the write-back happens when they leave the victim cache.
        std::vector<Addr> slow;
        for (Addr b : blocks) {
            auto e = xadt_.find(b);
            if (e != xadt_.end() && e->second.writer == tx &&
                e->second.hasSpecData && victim_.find(b)) {
                ++victimHits;
                phys_.writeBlock(b, e->second.specData);
                processBlock(job, b, tx);
            } else {
                slow.push_back(b);
            }
        }
        blocks = std::move(slow);
        if (blocks.empty()) {
            // Every block was VC-resident: the commit is instant.
            commitCleanupLatency.sample(0);
            tracer_->record(TraceEventType::WalkEnd, traceNoId,
                            traceNoId, tx, invalidTxId, 1, 0);
            finishCleanupNow(tx);
            return;
        }
    }

    if (is_commit) {
        // Mark written blocks as awaiting copy-back so that other
        // accesses stall on them.
        for (Addr b : blocks) {
            auto e = xadt_.find(b);
            if (e != xadt_.end() && e->second.writer == tx &&
                e->second.hasSpecData)
                e->second.pendingCopyback = true;
        }
    }

    job.blocks = std::move(blocks);
    jobs_[tx] = std::move(job);
    cleanupStep(tx);
}

void
VtmController::finishCleanupNow(TxId tx)
{
    Transaction *txn = txmgr_.get(tx);
    if (txn && txn->overflowed) {
        panic_if(overflowed_live_ == 0, "overflow count underflow");
        --overflowed_live_;
    }
    txmgr_.cleanupDone(tx);
}

void
VtmController::cleanupStep(TxId tx)
{
    CleanupJob &job = jobs_.at(tx);
    Addr block = job.blocks[job.next];

    Tick t = std::max(eq_.curTick(), supervisor_free_);
    Tick done = dram_.access(t); // XADT entry read/free
    auto e = xadt_.find(block);
    bool copy = job.isCommit && e != xadt_.end() &&
                e->second.writer == tx && e->second.hasSpecData;
    if (copy) {
        ++copybacks;
        done = dram_.write(done); // the data write to memory
    }
    supervisor_free_ = done;
    prof_->charge(job.isCommit ? ProfCharge::CommitCleanup
                               : ProfCharge::AbortCleanup,
                  done - t);

    eq_.schedule(done, EventPriority::Supervisor, [this, tx]() {
        CleanupJob &j = jobs_.at(tx);
        Addr b = j.blocks[j.next];
        if (j.isCommit) {
            auto it = xadt_.find(b);
            if (it != xadt_.end() && it->second.writer == tx &&
                it->second.hasSpecData)
                phys_.writeBlock(b, it->second.specData);
        }
        processBlock(j, b, tx);
        ++j.next;
        if (j.next == j.blocks.size()) {
            Distribution &lat = j.isCommit ? commitCleanupLatency
                                           : abortCleanupLatency;
            lat.sample(double(eq_.curTick() - j.startTick));
            tracer_->record(TraceEventType::WalkEnd, traceNoId,
                            traceNoId, tx, invalidTxId,
                            j.isCommit ? 1 : 0, j.blocks.size());
            jobs_.erase(tx);
            finishCleanupNow(tx);
        } else {
            cleanupStep(tx);
        }
    });
}

void
VtmController::processBlock(CleanupJob &job, Addr block, TxId tx)
{
    auto it = xadt_.find(block);
    if (it == xadt_.end())
        return;
    XadtEntry &e = it->second;

    auto rd = std::find(e.readers.begin(), e.readers.end(), tx);
    if (rd != e.readers.end())
        e.readers.erase(rd);
    if (e.writer == tx) {
        e.writer = invalidTxId;
        e.hasSpecData = false;
        e.pendingCopyback = false;
        if (!job.isCommit) {
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
