/**
 * @file
 * Virtual Transaction Supervisor implementation.
 */

#include "ptm/vts.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "sim/logging.hh"

namespace ptm
{

Vts::Vts(const SystemParams &params, EventQueue &eq, PhysMem &phys,
         TxManager &txmgr, FrameAllocator &frames, DramModel &dram)
    : sptCache(params.sptCacheEntries, params.memBanks),
      tavCache(params.tavCacheEntries, params.memBanks),
      params_(params), eq_(eq), phys_(phys), txmgr_(txmgr),
      frames_(frames), dram_(dram),
      gran_(params.granularity == Granularity::WordCacheMem),
      select_(params.tmKind == TmKind::SelectPtm),
      supervisor_free_(params.memBanks > 1
                           ? std::max(1u, params.numCores)
                           : 1,
                       0)
{
    panic_if(params.tmKind != TmKind::SelectPtm &&
                 params.tmKind != TmKind::CopyPtm,
             "Vts built for a non-PTM system kind");
}

void
Vts::regStats(StatRegistry &reg)
{
    StatGroup &g = reg.addGroup("vts");
    g.addCounter("shadow_allocs", &shadowAllocs,
                 "shadow pages allocated");
    g.addCounter("shadow_frees", &shadowFrees, "shadow pages freed");
    g.addCounter("tav_nodes_created", &tavNodesCreated,
                 "TAV nodes created for overflowed blocks");
    g.addCounter("commit_walk_nodes", &commitWalkNodes,
                 "TAV nodes visited by commit cleanup walks");
    g.addCounter("abort_walk_nodes", &abortWalkNodes,
                 "TAV nodes visited by abort cleanup walks");
    g.addCounter("abort_restore_units", &abortRestoreUnits,
                 "blocks/words restored from backups on abort");
    g.addCounter("copy_backups", &copyBackups,
                 "Copy-PTM backup copies taken on first overflow");
    g.addCounter("stalls_signalled", &stallsSignalled,
                 "accesses told to stall behind cleanup");
    g.addCounter("lazy_migrations", &lazyMigrations,
                 "committed blocks lazily migrated to the home page");
    g.addCounter("spt_cache_hits", &sptCache.hits,
                 "SPT cache hits in the memory controller");
    g.addCounter("spt_cache_misses", &sptCache.misses,
                 "SPT cache misses (DRAM walk)");
    g.addCounter("spt_cache_dirty_evictions", &sptCache.dirtyEvictions,
                 "dirty SPT cache entries written back on eviction");
    g.addCounter("tav_cache_hits", &tavCache.hits,
                 "TAV cache hits in the memory controller");
    g.addCounter("tav_cache_misses", &tavCache.misses,
                 "TAV cache misses (DRAM walk)");
    g.addCounter("tav_cache_dirty_evictions", &tavCache.dirtyEvictions,
                 "dirty TAV cache entries written back on eviction");
    g.addScalar("live_shadow_pages",
                [this] { return double(liveShadowPages()); },
                "shadow pages currently allocated");
    g.addTimeWeighted("avg_live_dirty_pages", &live_dirty_,
                      "time-weighted live dirty pages (Table 1)");
    g.addDistribution("commit_cleanup_latency", &commitCleanupLatency,
                      "ticks from logical commit to cleanup done");
    g.addDistribution("abort_cleanup_latency", &abortCleanupLatency,
                      "ticks from logical abort to cleanup done");
    g.addDistribution("spt_walk_len", &sptWalkLen,
                      "DRAM accesses per SPT miss walk");
    g.addDistribution("tav_walk_len", &tavWalkLen,
                      "DRAM accesses per TAV miss walk");
    g.addDistribution("overflow_pages_per_tx", &overflowPagesPerTx,
                      "distinct overflowed pages per transaction");
}

// TAV nodes are owned by the arena; its chunks free everything.
Vts::~Vts() = default;

SptEntry &
Vts::entryFor(PageNum home)
{
    if (SptEntry *p = spt_.find(home))
        return *p;
    SptEntry &e = spt_[home];
    e.home = home;
    e.selection = gran_.makeVec();
    e.writeSummary = gran_.makeVec();
    e.readSummary = gran_.makeVec();
    return e;
}

SptEntry *
Vts::findEntry(PageNum home)
{
    return spt_.find(home);
}

const SptEntry *
Vts::findEntry(PageNum home) const
{
    return spt_.find(home);
}

const SptEntry *
Vts::sptEntry(PageNum home) const
{
    return findEntry(home);
}

Tick
Vts::sptLookupCost(PageNum home, TxId tx)
{
    bool evicted_dirty = false;
    bool hit = sptCache.access(home, home, false, evicted_dirty);
    tracer_->record(hit ? TraceEventType::SptHit
                        : TraceEventType::SptMiss,
                    traceNoId, traceNoId, tx, invalidTxId, home);
    if (evicted_dirty)
        tracer_->record(TraceEventType::SptEvict, traceNoId, traceNoId,
                        invalidTxId, invalidTxId, home);
    Tick now = eq_.curTick();
    Tick done = now;
    if (!hit) {
        // Walk the in-memory SPT entry and rebuild the summary vectors
        // from the TAV list (section 4.2.2); the TAV nodes met during
        // the walk enter the TAV cache.
        done = dram_.access(now);
        unsigned walked = 0;
        if (SptEntry *e = findEntry(home)) {
            for (TavNode *t = e->tavHead; t; t = t->nextOnPage) {
                ++walked;
                done = dram_.access(done);
                bool evd = false;
                tavCache.access(home, tavKey(home, t->tx), false, evd);
                if (evd)
                    done = dram_.access(done);
            }
        }
        sptWalkLen.sample(walked);
    }
    if (evicted_dirty)
        done = dram_.access(done);
    Tick cost = hit ? vtsCacheLatency : std::max(done - now, vtsCacheLatency);
    prof_->charge(ProfCharge::MetaLookup, cost);
    return cost;
}

Tick
Vts::tavLookupCost(PageNum home, TxId tx, bool mark_dirty)
{
    bool evicted_dirty = false;
    bool hit = tavCache.access(home, tavKey(home, tx), mark_dirty,
                               evicted_dirty);
    tracer_->record(hit ? TraceEventType::TavHit
                        : TraceEventType::TavMiss,
                    traceNoId, traceNoId, tx, invalidTxId, home);
    if (evicted_dirty)
        tracer_->record(TraceEventType::TavEvict, traceNoId, traceNoId,
                        tx, invalidTxId, home);
    Tick now = eq_.curTick();
    Tick done = now;
    if (!hit)
        done = dram_.access(now);
    if (evicted_dirty)
        done = dram_.access(done);
    prof_->charge(ProfCharge::TavLookup, done - now);
    return done - now;
}

CheckResult
Vts::checkAccess(const BlockAccess &acc)
{
    CheckResult r;
    PageNum page = pageOf(acc.blockAddr);
    r.extraLatency += sptLookupCost(page, acc.tx);

    SptEntry *e = findEntry(page);
    if (!e)
        return r;

    // Summary-vector filter: no overflowed writer and (for writes) no
    // overflowed reader means no conflict (section 4.4.2). A block
    // with overflowed writes in *any* word must still be scanned: a
    // pending commit/abort of it stalls the whole-block fill.
    bool wsum = gran_.anySet(e->writeSummary, acc.blockAddr,
                             acc.wordMask);
    bool rsum = gran_.anySet(e->readSummary, acc.blockAddr,
                             acc.wordMask);
    bool wsum_block =
        gran_.anySet(e->writeSummary, acc.blockAddr, 0xffff);
    if (!wsum && !(acc.isWrite && rsum) && !wsum_block)
        return r;

    for (TavNode *t = e->tavHead; t; t = t->nextOnPage) {
        if (t->tx == acc.tx)
            continue;
        switch (txmgr_.stateOf(t->tx)) {
          case TxState::Running: {
              bool hit_write = gran_.anySet(t->write, acc.blockAddr,
                                            acc.wordMask);
              bool hit_read =
                  acc.isWrite && gran_.anySet(t->read, acc.blockAddr,
                                              acc.wordMask);
              if (hit_write || hit_read) {
                  r.extraLatency += tavLookupCost(page, t->tx, false);
                  r.conflicts.push_back(t->tx);
              }
              break;
          }
          case TxState::Committing:
          case TxState::Aborting:
            // Lazy cleanup has not reached this page yet. The check is
            // at *block* granularity regardless of the conflict
            // granularity: a fill composes the whole block, so every
            // pending word of it must be published first (4.5).
            if (gran_.anySet(t->write, acc.blockAddr, 0xffff)) {
                r.extraLatency += tavLookupCost(page, t->tx, false);
                r.stall = true;
                ++stallsSignalled;
            }
            break;
          default:
            panic("TAV node of dead transaction %llu survived cleanup",
                  (unsigned long long)t->tx);
        }
    }
    return r;
}

Vts::BlockView
Vts::viewBlock(const SptEntry &e, Addr block_addr, TxId requester) const
{
    BlockView v;
    v.effSel = gran_.blockWords(e.selection, block_addr);
    // Only word modes share a block between writers; the summary bit
    // gates the foreign-writer search as the paper's XOR rule does.
    std::uint16_t open = gran_.perWord()
                             ? gran_.blockWords(e.writeSummary, block_addr)
                             : std::uint16_t(0);
    for (const TavNode *t = e.tavHead; t; t = t->nextOnPage) {
        std::uint16_t w = gran_.blockWords(t->write, block_addr);
        if (!w)
            continue;
        TxState st = txmgr_.stateOf(t->tx);
        if (st == TxState::Committing)
            v.effSel ^= w;
        else
            v.backedUp |= w;
        if (t->tx == requester) {
            v.mine |= w;
        } else if (st == TxState::Running) {
            // The first live writer in list order claims each word.
            for (std::uint16_t m = w & open; m; m &= m - 1)
                v.writer[std::countr_zero(m)] = t->tx;
            v.foreign |= w & open;
            open &= std::uint16_t(~w);
        }
    }
    v.foreign &= std::uint16_t(~v.mine);
    return v;
}

Tick
Vts::fillBlock(Addr block_addr, TxId requester, std::uint8_t *dst,
               std::uint16_t &spec_words, std::vector<TxMark> &foreign)
{
    foreign.clear();

    PageNum page = pageOf(block_addr);
    SptEntry *e = findEntry(page);
    Tick extra = 0;
    spec_words = 0;

    if (!e) {
        phys_.readBlock(block_addr, dst);
        return 0;
    }
    // If the overflow flag is down the bus path skipped checkAccess,
    // so charge the SPT-cache consultation here (the selection vector
    // is still needed to locate committed data).
    if (!anyOverflow())
        extra += sptLookupCost(page, requester);

    BlockView v = viewBlock(*e, block_addr, requester);
    spec_words = v.mine;
    blockMarks(*e, block_addr, v, foreign);

    if (!select_ || !e->hasShadow()) {
        // Copy-PTM fetches from the home page; for the writer this is
        // the speculative version, for everyone else the committed one
        // (conflicting cases were resolved before the fill) beside the
        // overflowed words of other writers, which their marks cover.
        phys_.readBlock(block_addr, dst);
        if (!select_ && tracer_->watchingBlock(block_addr)) {
            Addr wa = wordAlign(tracer_->watchAddr());
            std::uint32_t val;
            std::memcpy(&val, dst + (wa - block_addr), wordBytes);
            tracer_->record(TraceEventType::Watchpoint, traceNoId,
                            traceNoId, requester, invalidTxId, wa,
                            std::uint64_t(WatchKind::Fill), double(val));
        }
        return extra;
    }

    // Select-PTM: per unit, XOR of write-summary and selection decides
    // the page; equivalently, the requester reads its own speculative
    // units and committed units otherwise (section 4.4.1). Another
    // live transaction's overflowed speculative word (word modes) also
    // comes from the speculative location.
    std::uint16_t from_shadow = v.effSel ^ (v.mine | v.foreign);
    const std::uint8_t *home_f = phys_.frameData(e->home);
    const std::uint8_t *shadow_f = phys_.frameData(e->shadow);
    unsigned block_off = unsigned(pageOffset(block_addr));
    for (unsigned w = 0; w < wordsPerBlock; ++w) {
        Addr word_addr = block_addr + Addr(w) * wordBytes;
        const std::uint8_t *f =
            (from_shadow & (1u << w)) ? shadow_f : home_f;
        std::uint32_t val = 0;
        if (f)
            std::memcpy(&val, f + block_off + w * wordBytes, wordBytes);
        if (tracer_->watchingWord(word_addr))
            tracer_->record(TraceEventType::Watchpoint, traceNoId,
                            traceNoId, requester, invalidTxId,
                            word_addr, std::uint64_t(WatchKind::Fill),
                            double(val));
        std::memcpy(dst + w * wordBytes, &val, wordBytes);
    }
    return extra;
}

void
Vts::blockMarks(const SptEntry &e, Addr block_addr, const BlockView &v,
                std::vector<TxMark> &out) const
{
    out.clear();
    // Block mode needs no marks: any access to a block with overflowed
    // state conflicts on the bus before it can be cached.
    if (!gran_.perWord())
        return;
    auto mark = [&](TxId tx) -> TxMark & {
        auto m = std::find_if(out.begin(), out.end(),
                              [&](const TxMark &f) { return f.tx == tx; });
        return m != out.end() ? *m : out.emplace_back(TxMark{tx, 0, 0});
    };
    for (std::uint16_t m = v.foreign; m; m &= m - 1) {
        unsigned w = unsigned(std::countr_zero(m));
        mark(v.writer[w]).writeWords |= std::uint16_t(1u << w);
    }
    for (const TavNode *t = e.tavHead; t; t = t->nextOnPage) {
        std::uint16_t r = gran_.blockWords(t->read, block_addr);
        if (r && txmgr_.stateOf(t->tx) == TxState::Running)
            mark(t->tx).readWords |= r;
    }
}

void
Vts::overflowMarks(Addr block_addr, TxId requester,
                   std::vector<TxMark> &out)
{
    out.clear();
    const SptEntry *e = findEntry(pageOf(block_addr));
    if (e && gran_.perWord())
        blockMarks(*e, block_addr, viewBlock(*e, block_addr, requester),
                   out);
}

bool
Vts::mayGrantExclusive(Addr block_addr, TxId requester)
{
    SptEntry *e = findEntry(pageOf(block_addr));
    if (!e)
        return true;
    std::uint16_t full = 0xffff;
    if (!gran_.anySet(e->readSummary, block_addr, full) &&
        !gran_.anySet(e->writeSummary, block_addr, full))
        return true;
    for (TavNode *t = e->tavHead; t; t = t->nextOnPage) {
        if (t->tx == requester)
            continue;
        if (gran_.anySet(t->read, block_addr, full) ||
            gran_.anySet(t->write, block_addr, full))
            return false;
    }
    return true;
}

void
Vts::noteOverflow(TxId tx)
{
    Transaction *t = txmgr_.get(tx);
    panic_if(!t, "overflow for unknown transaction");
    if (!t->overflowed) {
        t->overflowed = true;
        ++overflowed_live_;
    }
}

void
Vts::ensureShadow(SptEntry &e, TxId tx)
{
    if (e.hasShadow())
        return;
    e.shadow = frames_.alloc();
    ++shadow_pages_;
    ++shadowAllocs;
    tracer_->record(TraceEventType::ShadowAlloc, traceNoId, traceNoId,
                    tx, invalidTxId, e.home, e.shadow);
}

void
Vts::freeShadow(SptEntry &e)
{
    if (!e.hasShadow())
        return;
    tracer_->record(TraceEventType::ShadowFree, traceNoId, traceNoId,
                    invalidTxId, invalidTxId, e.home, e.shadow);
    phys_.releaseFrame(e.shadow);
    frames_.free(e.shadow);
    e.shadow = invalidPage;
    --shadow_pages_;
    ++shadowFrees;
}

void
Vts::maybeFreeShadow(SptEntry &e)
{
    if (!e.hasShadow() || e.tavHead)
        return;
    if (!select_) {
        // Copy-PTM: the shadow only holds backups for live
        // transactions; free it as soon as nobody uses the page.
        freeShadow(e);
        return;
    }
    if (e.selection.none()) {
        freeShadow(e);
        return;
    }
    // Otherwise the shadow still holds committed units; MergeOnSwap
    // frees it when the OS pages the home out, LazyMigrate when
    // writebacks have drained the selection vector.
}

void
Vts::refreshPage(SptEntry &e)
{
    e.writeSummary.reset();
    e.readSummary.reset();
    bool live_dirty = false;
    for (TavNode *t = e.tavHead; t; t = t->nextOnPage) {
        e.writeSummary |= t->write;
        e.readSummary |= t->read;
        if (t->write.any() && txmgr_.isLive(t->tx))
            live_dirty = true;
    }
    if (live_dirty != e.liveDirty) {
        e.liveDirty = live_dirty;
        live_dirty_count_ += live_dirty ? 1 : -1;
        live_dirty_.set(eq_.curTick(), double(live_dirty_count_));
    }
}

Tick
Vts::evictTxBlock(Addr block_addr, TxId tx, bool dirty_spec,
                  const std::uint8_t *data, std::uint16_t read_words,
                  std::uint16_t write_words)
{
    PageNum page = pageOf(block_addr);
    SptEntry &e = entryFor(page);
    Tick now = eq_.curTick();
    Tick lat = sptLookupCost(page, tx);
    lat += tavLookupCost(page, tx, true);

    TavNode *node = e.findTav(tx);
    if (!node) {
        node = tav_arena_.alloc();
        node->tx = tx;
        node->home = page;
        // Recycled nodes keep cleared vectors of the right width; only
        // freshly carved nodes need the one-time allocation.
        if (node->read.size() != gran_.bitsPerPage()) {
            node->read = gran_.makeVec();
            node->write = gran_.makeVec();
        }
        node->nextOnPage = e.tavHead;
        e.tavHead = node;
        TavNode *&headp = tx_head_[tx];
        node->nextOfTx = headp;
        headp = node;
        ++tavNodesCreated;
        // Creating the in-memory node is a posted memory write: it
        // consumes bandwidth but does not hold the evicting access.
        dram_.write(now + lat);
    }

    noteOverflow(tx);

    if (dirty_spec) {
        ensureShadow(e, tx);

        if (!select_) {
            // Copy-PTM: back up the committed unit on its first dirty
            // overflow, then store the speculative data in the home
            // page (section 3.2.1). A unit whose only other writer is
            // Committing needs a fresh backup: that writer's data in
            // the home page is the committed copy now, and the shadow
            // still holds the value from before it.
            const std::uint16_t backed =
                viewBlock(e, block_addr, tx).backedUp;
            gran_.forBits(block_addr, write_words, [&](unsigned i) {
                const std::uint16_t unit =
                    gran_.perWord()
                        ? std::uint16_t(1u << (i % wordsPerBlock))
                        : std::uint16_t(0xffff);
                if (!(backed & unit)) {
                    Addr home_u = gran_.unitAddr(e.home, i);
                    Addr shadow_u = gran_.unitAddr(e.shadow, i);
                    if (gran_.perWord())
                        phys_.copyWord32(shadow_u, home_u);
                    else
                        phys_.copyBlock(shadow_u, home_u);
                    ++copyBackups;
                    // Posted backup copy: read + write bandwidth.
                    dram_.access(now + lat);
                    dram_.write(now + lat);
                }
            });
        }

        // Record the write bits *before* storing data so Select-PTM's
        // speculative location sees the final vectors.
        gran_.setBits(node->write, block_addr, write_words);

        // Store the speculatively written words to the speculative
        // location (Select: selection-determined page; Copy: home).
        // With block-granularity vectors the whole block must land in
        // the speculative page (its selection bit covers all 16 words,
        // so unwritten words must carry their committed values too).
        std::uint16_t store_words =
            (select_ && !gran_.perWord()) ? std::uint16_t(0xffff)
                                          : write_words;
        // Select-PTM's speculative location is the page not holding
        // the committed copy.
        std::uint16_t to_shadow =
            select_ ? std::uint16_t(~viewBlock(e, block_addr, tx).effSel &
                                    store_words)
                    : std::uint16_t(0);
        std::uint16_t to_home = store_words & ~to_shadow;
        std::uint8_t *home_f = to_home ? phys_.backFrame(e.home) : nullptr;
        std::uint8_t *shadow_f =
            to_shadow ? phys_.backFrame(e.shadow) : nullptr;
        unsigned block_off = unsigned(pageOffset(block_addr));
        for (unsigned w = 0; w < wordsPerBlock; ++w) {
            if (!(store_words & (1u << w)))
                continue;
            Addr word_addr = block_addr + Addr(w) * wordBytes;
            std::uint8_t *f = (to_shadow & (1u << w)) ? shadow_f : home_f;
            std::uint32_t v;
            std::memcpy(&v, data + w * wordBytes, wordBytes);
            if (tracer_->watchingWord(word_addr))
                tracer_->record(TraceEventType::Watchpoint, traceNoId,
                                traceNoId, tx, invalidTxId, word_addr,
                                std::uint64_t(WatchKind::SpecDeposit),
                                double(v));
            std::memcpy(f + block_off + w * wordBytes, &v, wordBytes);
        }
        // Posted block-sized memory write for the speculative data.
        dram_.write(now + lat);
    }

    gran_.setBits(node->read, block_addr, read_words);
    refreshPage(e);
    return lat;
}

Tick
Vts::writebackBlock(Addr block_addr, const std::uint8_t *data,
                    std::uint16_t word_mask)
{
    PageNum page = pageOf(block_addr);
    SptEntry *e = findEntry(page);
    Tick now = eq_.curTick();
    Tick lat = 0;
    unsigned block_off = unsigned(pageOffset(block_addr));

    if (!e || !select_ || !e->hasShadow()) {
        // Committed data lives in the home page. Under Copy-PTM a unit
        // backed up by a writer that has not committed also keeps its
        // committed copy in the shadow, which that writer's abort
        // restores: update both, or the restore would undo this write.
        std::uint16_t backed =
            e && e->hasShadow()
                ? std::uint16_t(
                      viewBlock(*e, block_addr, invalidTxId).backedUp &
                      word_mask)
                : std::uint16_t(0);
        std::uint8_t *home_f = word_mask ? phys_.backFrame(page) : nullptr;
        std::uint8_t *shadow_f =
            backed ? phys_.backFrame(e->shadow) : nullptr;
        for (unsigned w = 0; w < wordsPerBlock; ++w) {
            if (!(word_mask & (1u << w)))
                continue;
            unsigned off = block_off + w * unsigned(wordBytes);
            std::memcpy(home_f + off, data + w * wordBytes, wordBytes);
            Addr word_addr = block_addr + Addr(w) * wordBytes;
            if (e && !select_ && tracer_->watchingWord(word_addr)) {
                std::uint32_t v;
                std::memcpy(&v, data + w * wordBytes, wordBytes);
                tracer_->record(TraceEventType::Watchpoint, traceNoId,
                                traceNoId, invalidTxId, invalidTxId,
                                word_addr, std::uint64_t(WatchKind::Cwb),
                                double(v));
            }
            if (backed & (1u << w))
                std::memcpy(shadow_f + off, data + w * wordBytes,
                            wordBytes);
        }
        dram_.write(now); // posted write
        return 0;
    }

    lat += sptLookupCost(page);
    std::uint16_t in_shadow =
        viewBlock(*e, block_addr, invalidTxId).effSel & word_mask;
    // Lazy shadow freeing: force the committed writeback of a shadow
    // unit nobody has overflowed to the home page and clear its
    // selection bit (3.5.2). In block mode the block's one bit covers
    // every word: the migration counts once and all words go home.
    std::uint16_t migrate = 0;
    if (params_.shadowFree == ShadowFreePolicy::LazyMigrate)
        migrate = in_shadow &
                  std::uint16_t(~gran_.blockWords(e->writeSummary,
                                                  block_addr));
    if (migrate) {
        gran_.forBits(block_addr, migrate, [&](unsigned i) {
            e->selection.clear(i);
            ++lazyMigrations;
        });
        in_shadow &= std::uint16_t(~migrate);
    }
    std::uint16_t to_home = word_mask & std::uint16_t(~in_shadow);
    std::uint8_t *home_f = to_home ? phys_.backFrame(e->home) : nullptr;
    std::uint8_t *shadow_f =
        in_shadow ? phys_.backFrame(e->shadow) : nullptr;
    for (unsigned w = 0; w < wordsPerBlock; ++w) {
        if (!(word_mask & (1u << w)))
            continue;
        Addr word_addr = block_addr + Addr(w) * wordBytes;
        std::uint8_t *f = (in_shadow & (1u << w)) ? shadow_f : home_f;
        std::uint32_t v;
        std::memcpy(&v, data + w * wordBytes, wordBytes);
        if (tracer_->watchingWord(word_addr))
            tracer_->record(TraceEventType::Watchpoint, traceNoId,
                            traceNoId, invalidTxId, invalidTxId,
                            word_addr, std::uint64_t(WatchKind::Cwb),
                            double(v));
        std::memcpy(f + block_off + w * wordBytes, &v, wordBytes);
    }
    if (migrate) {
        tracer_->record(TraceEventType::SelFlip, traceNoId, traceNoId,
                        invalidTxId, invalidTxId, page);
        bool evd = false;
        sptCache.access(page, page, true, evd);
        maybeFreeShadow(*e);
    }
    dram_.write(now + lat); // posted write
    return lat;
}

std::uint32_t
Vts::readCommittedWord32(Addr word_addr)
{
    PageNum page = pageOf(word_addr);
    const SptEntry *e = findEntry(page);
    if (!e || !e->hasShadow())
        return phys_.readWord32(word_addr);
    BlockView v = viewBlock(*e, blockAlign(word_addr), invalidTxId);
    std::uint16_t in_shadow = select_ ? v.effSel : v.backedUp;
    unsigned w = wordInPage(word_addr) % wordsPerBlock;
    PageNum p = (in_shadow >> w) & 1 ? e->shadow : e->home;
    return phys_.readWord32(pageBase(p) + pageOffset(word_addr));
}

void
Vts::commitTx(TxId tx)
{
    scheduleCleanup(tx, true);
}

void
Vts::abortTx(TxId tx)
{
    scheduleCleanup(tx, false);
}

void
Vts::scheduleCleanup(TxId tx, bool is_commit)
{
    // Chaos hook: hold the walk's start back by a polled delay. While
    // the start is pending the TAV lists are untouched, so conflict
    // checks keep stalling behind the Committing/Aborting nodes — the
    // delay stretches exactly the window where stale metadata could be
    // observed.
    Tick delay = chaos_->cleanupDelay();
    if (delay) {
        pending_delayed_[tx] = is_commit;
        eq_.scheduleIn(delay, EventPriority::Supervisor, [this, tx] {
            bool *is_c = pending_delayed_.find(tx);
            if (!is_c)
                return; // already forced by finishCleanupNow()
            bool c = *is_c;
            pending_delayed_.erase(tx);
            startCleanup(tx, c);
        });
        return;
    }
    startCleanup(tx, is_commit);
}

void
Vts::finishCleanupNow(TxId tx)
{
    if (bool *is_c = pending_delayed_.find(tx)) {
        bool c = *is_c;
        pending_delayed_.erase(tx);
        startCleanup(tx, c); // may finish synchronously (no overflow)
    }
    CleanupJob *j = jobs_.find(tx);
    if (!j)
        return;
    while (j->next < j->nodes.size()) {
        processNode(*j, j->nodes[j->next]);
        ++j->next;
    }
    Distribution &lat =
        j->isCommit ? commitCleanupLatency : abortCleanupLatency;
    lat.sample(double(eq_.curTick() - j->startTick));
    tracer_->record(TraceEventType::WalkEnd, traceNoId, traceNoId, tx,
                    invalidTxId, j->isCommit ? 1 : 0, j->nodes.size());
    jobs_.erase(tx);
    Transaction *txn = txmgr_.get(tx);
    if (txn && txn->overflowed) {
        panic_if(overflowed_live_ == 0, "overflow count underflow");
        --overflowed_live_;
    }
    txmgr_.cleanupDone(tx);
}

void
Vts::drainThreadCleanups(ThreadId thread)
{
    // Collect ids (in id order) first: finishCleanupNow mutates jobs_
    // and pending_delayed_, and cleanupDone can cascade.
    std::vector<TxId> ids;
    for (const Transaction &tx : txmgr_.txTable())
        if (tx.thread == thread && tx.state == TxState::Aborting)
            ids.push_back(tx.id);
    for (TxId id : ids)
        finishCleanupNow(id);
}

void
Vts::drainAllCleanups()
{
    std::vector<TxId> ids;
    for (const Transaction &tx : txmgr_.txTable())
        if (tx.state == TxState::Committing ||
            tx.state == TxState::Aborting)
            ids.push_back(tx.id);
    for (TxId id : ids)
        finishCleanupNow(id);
}

unsigned
Vts::cleanupShardOf(TxId tx) const
{
    if (supervisor_free_.size() <= 1)
        return 0;
    const Transaction *t = txmgr_.get(tx);
    return t ? unsigned(t->thread) % unsigned(supervisor_free_.size())
             : 0;
}

void
Vts::startCleanup(TxId tx, bool is_commit)
{

    TavNode **headp = tx_head_.find(tx);
    TavNode *head = headp ? *headp : nullptr;
    if (headp)
        tx_head_.erase(tx);

    if (!head) {
        // Never overflowed: commit/abort is handled entirely in-cache.
        overflowPagesPerTx.sample(0);
        txmgr_.cleanupDone(tx);
        return;
    }

    CleanupJob job;
    job.isCommit = is_commit;
    job.startTick = eq_.curTick();
    job.shard = cleanupShardOf(tx);
    for (TavNode *t = head; t; t = t->nextOfTx)
        job.nodes.push_back(t);
    overflowPagesPerTx.sample(double(job.nodes.size()));
    tavWalkLen.sample(double(job.nodes.size()));
    tracer_->record(TraceEventType::WalkStart, traceNoId, traceNoId,
                    tx, invalidTxId, is_commit ? 1 : 0,
                    job.nodes.size());
    jobs_[tx] = std::move(job);
    cleanupStep(tx);
}

void
Vts::cleanupStep(TxId tx)
{
    CleanupJob &job = jobs_.at(tx);
    TavNode *node = job.nodes[job.next];

    Tick t = std::max(eq_.curTick(), supervisor_free_[job.shard]);
    Tick done = dram_.access(t); // read and free the node
    if (job.isCommit && select_ && node->write.any()) {
        done = dram_.write(done); // selection-vector update
    }
    if (!job.isCommit && !select_) {
        // Copy-PTM abort: restore each overwritten unit from the
        // shadow page (one read + one write per unit).
        unsigned units = node->write.count();
        for (unsigned i = 0; i < units; ++i) {
            done = dram_.access(done);
            done = dram_.write(done);
        }
    }
    supervisor_free_[job.shard] = done;
    prof_->charge(job.isCommit ? ProfCharge::CommitCleanup
                               : ProfCharge::AbortCleanup,
                  done - t);

    eq_.schedule(done, EventPriority::Supervisor, [this, tx]() {
        CleanupJob *jp = jobs_.find(tx);
        if (!jp)
            return; // walk already forced by finishCleanupNow()
        CleanupJob &j = *jp;
        processNode(j, j.nodes[j.next]);
        ++j.next;
        if (j.next == j.nodes.size()) {
            Distribution &lat = j.isCommit ? commitCleanupLatency
                                           : abortCleanupLatency;
            lat.sample(double(eq_.curTick() - j.startTick));
            tracer_->record(TraceEventType::WalkEnd, traceNoId,
                            traceNoId, tx, invalidTxId,
                            j.isCommit ? 1 : 0, j.nodes.size());
            jobs_.erase(tx);
            Transaction *txn = txmgr_.get(tx);
            if (txn && txn->overflowed) {
                panic_if(overflowed_live_ == 0,
                         "overflow count underflow");
                --overflowed_live_;
            }
            txmgr_.cleanupDone(tx);
        } else {
            cleanupStep(tx);
        }
    });
}

void
Vts::processNode(CleanupJob &job, TavNode *node)
{
    SptEntry &e = spt_.at(node->home);

    if (job.isCommit) {
        ++commitWalkNodes;
        if (select_ && node->write.any()) {
            // Toggle the written units: the speculative location
            // becomes the committed one.
            e.selection ^= node->write;
            tracer_->record(TraceEventType::SelFlip, traceNoId,
                            traceNoId, node->tx, invalidTxId, e.home,
                            node->write.count());
            Addr wa = tracer_->watchAddr();
            if (wa != invalidAddr && pageOf(wa) == e.home &&
                node->write.test(gran_.wordBit(wa)))
                tracer_->record(
                    TraceEventType::Watchpoint, traceNoId, traceNoId,
                    node->tx, invalidTxId, wa,
                    std::uint64_t(WatchKind::Toggle),
                    double(e.selection.test(gran_.wordBit(wa))));
            // No cached copy can hold a stale committed value here:
            // any copy either predates the writer's exclusive grab
            // (invalidated then), carries the writer's mark with the
            // speculative value (foreign-spec fills and cache-to-cache
            // sharing), or was filled after this node's cleanup (the
            // block-granularity stall) — so flipping the selection
            // bits publishes without touching the caches.
        }
    } else {
        ++abortWalkNodes;
        if (!select_) {
            node->write.forEachSet([&](unsigned i) {
                // Another writer's speculative data may sit in the
                // home unit (word modes let it write the unit while
                // this walk was pending). The shadow then already
                // holds that writer's backup — the committed copy —
                // so restoring would only clobber its data.
                for (const TavNode *t = e.tavHead; t; t = t->nextOnPage)
                    if (t != node && t->write.test(i))
                        return;
                Addr home_u = gran_.unitAddr(e.home, i);
                Addr shadow_u = gran_.unitAddr(e.shadow, i);
                if (gran_.perWord())
                    phys_.copyWord32(home_u, shadow_u);
                else
                    phys_.copyBlock(home_u, shadow_u);
                ++abortRestoreUnits;
                Addr wa = tracer_->watchAddr();
                if (wa != invalidAddr && pageOf(wa) == e.home &&
                    gran_.wordBit(wa) == i)
                    tracer_->record(
                        TraceEventType::Watchpoint, traceNoId, traceNoId,
                        node->tx, invalidTxId, wordAlign(wa),
                        std::uint64_t(WatchKind::Restore),
                        double(phys_.readWord32(wordAlign(wa))));
            });
        }
        // Select-PTM abort: nothing to do — the selection bits still
        // point at the committed units.
    }

    // Unlink from the horizontal list and drop the cached copy.
    TavNode **link = &e.tavHead;
    while (*link && *link != node)
        link = &(*link)->nextOnPage;
    panic_if(!*link, "TAV node missing from its page list");
    *link = node->nextOnPage;
    tavCache.remove(node->home, tavKey(node->home, node->tx));

    refreshPage(e);
    maybeFreeShadow(e);
    bool evd = false;
    sptCache.access(node->home, node->home, true, evd);
    tav_arena_.free(node);
}

bool
Vts::swappable(PageNum home) const
{
    const SptEntry *e = findEntry(home);
    return !e || e->tavHead == nullptr;
}

void
Vts::pageSwapOut(PageNum home, std::uint64_t slot)
{
    SptEntry *p = spt_.find(home);
    if (!p)
        return;
    SptEntry e = std::move(*p);
    spt_.erase(home);
    sptCache.remove(home, home);
    panic_if(e.tavHead,
             "OS swapped out a page with live TAV state");

    if (e.hasShadow()) {
        if (select_ &&
            params_.shadowFree == ShadowFreePolicy::MergeOnSwap) {
            // Merge the committed shadow units back into the home
            // frame before the OS copies it to the backing store; the
            // SIT entry then records no shadow (section 3.5.2).
            e.selection.forEachSet([&](unsigned i) {
                if (gran_.perWord())
                    phys_.copyWord32(gran_.unitAddr(home, i),
                                     gran_.unitAddr(e.shadow, i));
                else
                    phys_.copyBlock(gran_.unitAddr(home, i),
                                    gran_.unitAddr(e.shadow, i));
            });
            e.selection.reset();
            freeShadow(e);
        } else {
            // Both pages swap out together: stash the shadow bytes.
            std::vector<std::uint8_t> bytes(pageBytes);
            for (unsigned b = 0; b < blocksPerPage; ++b)
                phys_.readBlock(pageBase(e.shadow) + b * blockBytes,
                                bytes.data() + b * blockBytes);
            swapped_shadow_data_[slot] = std::move(bytes);
            freeShadow(e);
        }
    }
    e.home = invalidPage;
    sit_[slot] = std::move(e);
}

void
Vts::pageSwapIn(std::uint64_t slot, PageNum new_home)
{
    SptEntry *p = sit_.find(slot);
    if (!p)
        return;
    SptEntry e = std::move(*p);
    sit_.erase(slot);
    e.home = new_home;

    if (std::vector<std::uint8_t> *sh =
            swapped_shadow_data_.find(slot)) {
        e.shadow = frames_.alloc();
        ++shadow_pages_;
        ++shadowAllocs;
        for (unsigned b = 0; b < blocksPerPage; ++b)
            phys_.writeBlock(pageBase(e.shadow) + b * blockBytes,
                             sh->data() + b * blockBytes);
        swapped_shadow_data_.erase(slot);
    }
    spt_[new_home] = std::move(e);
}

} // namespace ptm
