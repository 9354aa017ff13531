/**
 * @file
 * MemSystem implementation: MOESI snoopy coherence with transactional
 * extensions, versioning-policy hooks, and bus/DRAM timing.
 */

#include "mem/mem_system.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "sim/logging.hh"

namespace ptm
{

MemSystem::MemSystem(const SystemParams &params, EventQueue &eq,
                     PhysMem &phys, TxManager &txmgr)
    : params_(params), eq_(eq), phys_(phys), txmgr_(txmgr),
      bus_(busLatency, params.memBanks),
      dram_(dramLatency, dramPipeline, dramWriteOccupancy)
{
    panic_if(params.numCores > 64,
             "sharer-filter masks are 64-bit: numCores %u > 64",
             params.numCores);
    for (unsigned c = 0; c < params.numCores; ++c) {
        l1_.push_back(std::make_unique<L1Filter>(params.l1Bytes, l1Assoc));
        l2_.push_back(std::make_unique<CacheArray>(params.l2Bytes,
                                                   params.l2Assoc));
    }
    footprintWords_ = (l2_.front()->numLines() + 63) / 64;
}

void
MemSystem::regStats(StatRegistry &reg)
{
    StatGroup &g = reg.addGroup("mem");
    g.addCounter("l1_hits", &l1Hits, "accesses satisfied by the L1");
    g.addCounter("l2_hits", &l2Hits, "accesses satisfied by the L2");
    g.addCounter("misses", &misses, "accesses that went to the bus");
    g.addCounter("evictions", &evictions, "cache line evictions");
    g.addCounter("tx_evictions", &txEvictions,
                 "evictions of transactionally marked lines (overflow)");
    g.addCounter("writebacks", &writebacks, "dirty-line writebacks");
    g.addCounter("conflicts", &conflicts,
                 "conflicting transactional accesses detected");
    g.addCounter("false_stalls", &falseStalls,
                 "accesses retried behind in-progress cleanup");
    g.addCounter("cache_to_cache", &cacheToCache,
                 "misses satisfied by a peer cache transfer");
    g.addCounter("ctxsw_flush_aborts", &ctxswFlushAborts,
                 "aborts caused by context-switch line flushes");
    g.addCounter("snoops_filtered", &snoopsFiltered,
                 "per-core snoop probes skipped by the sharer filter");
    g.addScalar("bus_transactions",
                [this] { return double(bus_.transactions()); },
                "coherence bus transactions issued");
    g.addScalar("bus_busy_cycles",
                [this] { return double(bus_.busyCycles()); },
                "cycles any interconnect bank was occupied");
    for (unsigned b = 0; b < bus_.numBanks(); ++b) {
        g.addScalar("bus_bank" + std::to_string(b) + "_busy_cycles",
                    [this, b] {
                        return double(bus_.bankBusyCycles(b));
                    },
                    "cycles interconnect bank " + std::to_string(b) +
                        " was occupied");
    }
    g.addScalar("dram_accesses",
                [this] { return double(dram_.accesses()); },
                "DRAM accesses issued");
}

void
MemSystem::dirSet(CoreId c, Addr block)
{
    const std::size_t i = std::size_t(block >> blockShift);
    if (i >= dir_.size())
        dir_.resize(i + 1, 0);
    dir_[i] |= std::uint64_t(1) << c;
}

void
MemSystem::dirClear(CoreId c, Addr block)
{
    const std::size_t i = std::size_t(block >> blockShift);
    if (i < dir_.size())
        dir_[i] &= ~(std::uint64_t(1) << c);
}

std::uint16_t
MemSystem::accessMask(Addr paddr) const
{
    if (wordMode())
        return std::uint16_t(1u << wordIdx(paddr));
    return 0xffff;
}

void
MemSystem::lineConflicts(const Access &acc, std::uint16_t mask,
                         const CacheLine &line,
                         std::vector<TxId> &out) const
{
    bool write = acc.isWrite || acc.isCas;
    for (const auto &m : line.marks) {
        if (m.tx == acc.tx)
            continue;
        std::uint16_t conflict_mask =
            write ? std::uint16_t(m.readWords | m.writeWords)
                  : m.writeWords;
        if ((conflict_mask & mask) && txmgr_.isLive(m.tx))
            out.push_back(m.tx);
    }
}

std::optional<std::pair<Tick, AccessResult>>
MemSystem::trySync(const Access &acc, Tick at)
{
    const Addr block = blockAlign(acc.paddr);
    const std::uint16_t mask = accessMask(acc.paddr);
    const bool write = acc.isWrite || acc.isCas;
    CoreId c = acc.core;
    // A batched op issued ahead of the clock must not run a writeback
    // of committed data: it records and posts at the current tick.
    const bool ahead = at != eq_.curTick();

    // L1 filter: a hit means the mirrored L2 line can satisfy the
    // access with no state changes, or (word mode) with only new
    // same-transaction word bits, which the L1 sets at full speed.
    if (L1Filter::Entry *e = l1_[c]->find(block)) {
        bool ok = false;
        bool extend = false;
        if (acc.tx != invalidTxId) {
            if (e->txId == acc.tx) {
                std::uint16_t have =
                    write ? e->txWriteWords
                          : std::uint16_t(e->txReadWords |
                                          e->txWriteWords);
                ok = (have & mask) == mask && (!write || e->writable);
                if (!ok && wordMode()) {
                    // The entry exists, so no foreign speculative
                    // writer is present (loads are safe) and writable
                    // implies no foreign marks at all (stores are
                    // safe). A prior own write (txWriteWords != 0)
                    // means the committed-writeback already happened.
                    extend = !write ||
                             (e->writable && e->txWriteWords != 0);
                }
            }
        } else {
            ok = e->txId == invalidTxId && (!write || e->writable);
        }
        if (ok || extend) {
            CacheLine &line = l2_[c]->slot(e->l2Slot);
            panic_if(!line.valid() || line.addr != block,
                     "L1 hit without inclusive L2 line");
            if (ahead && persistsWord(acc, line))
                return std::nullopt;
            std::uint32_t v = applyOp(acc, line, at);
            if (extend) {
                setMarks(acc, line);
                if (TxMark *m = line.findMark(acc.tx)) {
                    e->txReadWords = m->readWords;
                    e->txWriteWords = m->writeWords;
                }
            }
            l2_[c]->touch(line);
            ++l1Hits;
            return std::make_pair(l1Latency, AccessResult{v, false});
        }
    }

    // L2 lookup.
    CacheLine *line = l2_[c]->find(block);
    if (!line)
        return std::nullopt;

    std::vector<TxId> confl;
    lineConflicts(acc, mask, *line, confl);
    if (!confl.empty())
        return std::nullopt; // arbitration happens on the bus

    Tick lat = l1Latency + l2Latency;
    if (write) {
        if (!moesiWritable(line->state))
            return std::nullopt; // needs an upgrade
        if (!wordMode() && acc.tx != invalidTxId && line->dirty() &&
            line->writeMask() == 0) {
            // First speculative overwrite of committed dirty data on a
            // line we own exclusively: push the committed version into
            // the writeback buffer (a local action — no coherence
            // transaction needed), then proceed with the store. (Word
            // modes persist per word in noteWordWrite instead.)
            if (ahead)
                return std::nullopt;
            lat += writebackCommitted(*line) + l2Latency;
        }
        if (ahead && persistsWord(acc, *line))
            return std::nullopt;
    }

    std::uint32_t v = applyOp(acc, *line, at);
    setMarks(acc, *line);
    fillL1(c, *line, acc.tx);
    l2_[c]->touch(*line);
    ++l2Hits;
    return std::make_pair(lat, AccessResult{v, false});
}

void
MemSystem::request(const Access &acc, AccessCallback cb)
{
    Tick treq = eq_.curTick() + l1Latency + l2Latency;
    Tick occupancy = busLatency + (wordMode() ? wordCoherenceOverhead : 0);
    Tick grant = bus_.reserve(blockAlign(acc.paddr), treq, occupancy);
    eq_.schedule(grant, EventPriority::Memory,
                 [this, acc, cb = std::move(cb), grant]() mutable {
                     processGrant(acc, std::move(cb), grant, 0);
                 });
}

void
MemSystem::scheduleRetry(const Access &acc, AccessCallback cb, Tick when,
                         unsigned attempt)
{
    panic_if(attempt > maxRetries,
             "access to %#llx stalled forever (cleanup deadlock?)",
             (unsigned long long)acc.paddr);
    Tick occupancy = busLatency + (wordMode() ? wordCoherenceOverhead : 0);
    Tick grant = bus_.reserve(blockAlign(acc.paddr), when, occupancy);
    eq_.schedule(grant, EventPriority::Memory,
                 [this, acc, cb = std::move(cb), grant,
                  attempt]() mutable {
                     processGrant(acc, std::move(cb), grant, attempt);
                 });
}

void
MemSystem::processGrant(const Access &acc, AccessCallback cb,
                        Tick grant_tick, unsigned attempt)
{
    const Addr block = blockAlign(acc.paddr);
    const std::uint16_t mask = accessMask(acc.paddr);
    const bool write = acc.isWrite || acc.isCas;
    const CoreId c = acc.core;
    ++misses;

    // The requesting transaction may have been aborted while the
    // request sat in the bus queue: squash.
    if (acc.tx != invalidTxId && !txmgr_.isLive(acc.tx)) {
        cb(grant_tick + busLatency, AccessResult{0, true});
        return;
    }

    // 1. Probe the sharer filter once and cache the found lines —
    //    processGrant runs atomically, so no new sharer can appear
    //    before the install below; conflict resolution and evictions
    //    can only *invalidate* lines, which later steps detect through
    //    the cached pointers (the line slab never reallocates).
    //    Ascending-core iteration visits the caches in the same order
    //    the broadcast loops did, so every simulated result is
    //    unchanged. Then collect in-cache conflicts from every sharer
    //    (including our own line: a context-switched transaction's
    //    marks may live there).
    auto &sharer_lines = grant_sharers_;
    sharer_lines.clear();
    {
        std::uint64_t snoop_set = dirSharers(block);
        snoopsFiltered += params_.numCores -
                          unsigned(std::popcount(snoop_set));
        for (std::uint64_t sh = snoop_set; sh; sh &= sh - 1) {
            CoreId o = CoreId(std::countr_zero(sh));
            if (CacheLine *l = l2_[o]->find(block))
                sharer_lines.emplace_back(o, l);
            else
                dirClear(o, block); // self-heal a stale sharer bit
        }
    }
    std::vector<TxId> &confl = grant_conflicts_;
    confl.clear();
    for (auto &[o, l] : sharer_lines) {
        (void)o;
        lineConflicts(acc, mask, *l, confl);
    }
    // 2. Consult the backend about overflowed state (only needed while
    //    the global overflow flag is raised, section 3.1).
    Tick extra = 0;
    std::size_t cache_conflicts = confl.size();
    if (backend_ && backend_->anyOverflow()) {
        CheckResult cr = backend_->checkAccess(
            BlockAccess{block, acc.tx, write, mask});
        extra += cr.extraLatency;
        if (cr.stall) {
            ++falseStalls;
            prof_->charge(ProfCharge::FalseStall,
                          retryDelay + cr.extraLatency);
            scheduleRetry(acc, std::move(cb),
                          grant_tick + retryDelay + cr.extraLatency,
                          attempt + 1);
            return;
        }
        for (TxId t : cr.conflicts)
            confl.push_back(t);
    }

    // 3. Arbitrate: oldest transaction wins; losers abort now (their
    //    speculative lines are scrubbed by the abort hook).
    if (!confl.empty()) {
        ++conflicts;
        if (!txmgr_.resolveConflicts(acc.tx, confl, block)) {
            cb(grant_tick + busLatency, AccessResult{0, true});
            return;
        }
        if (confl.size() > cache_conflicts) {
            // We aborted transactions with *overflowed* state; their
            // background cleanup (e.g. Copy-PTM home-page restores)
            // must drain before our access can observe memory, so go
            // through the stall path.
            scheduleRetry(acc, std::move(cb),
                          grant_tick + retryDelay + extra, attempt + 1);
            return;
        }
    }

    // 4. Re-examine our line after conflict resolution.
    CacheLine *own = l2_[c]->find(block);

    if (own && (!write || moesiWritable(own->state))) {
        // Local completion (a hit that only needed arbitration).
        if (!wordMode() && write && acc.tx != invalidTxId &&
            own->dirty() && own->writeMask() == 0)
            extra += writebackCommitted(*own);
        std::uint32_t v = applyOp(acc, *own, eq_.curTick());
        setMarks(acc, *own);
        fillL1(c, *own, acc.tx);
        l2_[c]->touch(*own);
        cb(grant_tick + busLatency + extra, AccessResult{v, false});
        return;
    }

    // 5. Miss: make room first (the eviction may abort transactions in
    //    wd:cache mode, possibly even the requester).
    CacheLine *target = own;
    if (!target) {
        CacheLine &victim = l2_[c]->victim(block);
        if (victim.valid()) {
            extra += evictLine(c, victim);
            l1Invalidate(c, victim.addr);
            dirClear(c, victim.addr);
            victim.invalidate();
            if (acc.tx != invalidTxId && !txmgr_.isLive(acc.tx)) {
                cb(grant_tick + busLatency + extra, AccessResult{0, true});
                return;
            }
        }
        target = &victim;
    }

    // 6. Snoop: find a source copy. Live marks always travel with the
    //    data: on a write the other copies are invalidated and their
    //    marks migrate; on a read the new shared copy replicates the
    //    source's marks so local conflict checks and word-granularity
    //    abort restores see them on every copy.
    CacheLine *src = nullptr;
    CoreId src_core = 0;
    bool any_other_copy = false;
    std::uint16_t migrated_dirty = 0;
    std::vector<TxMark> &migrated = grant_migrated_;
    migrated.clear();
    for (auto &[o, l] : sharer_lines) {
        if (o == c)
            continue;
        if (!l->valid() || l->addr != block) {
            // The copy was scrubbed by conflict resolution or the
            // eviction above; drop the (possibly stale) sharer bit.
            dirClear(o, block);
            continue;
        }
        any_other_copy = true;
        if (l->state == Moesi::M || l->state == Moesi::O ||
            l->state == Moesi::E) {
            src = l;
            src_core = o;
        }
        if (write) {
            for (const auto &m : l->marks)
                if (txmgr_.isLive(m.tx))
                    migrated.push_back(m);
            migrated_dirty |= l->dirtyWords;
        }
    }
    if (!write && src) {
        for (const auto &m : src->marks)
            if (txmgr_.isLive(m.tx))
                migrated.push_back(m);
    }

    bool dirty_data;
    std::uint16_t union_write = 0;
    std::uint8_t data[blockBytes];
    if (src) {
        std::memcpy(data, src->data, blockBytes);
        dirty_data = src->dirty();
        ++cacheToCache;
    } else if (own) {
        std::memcpy(data, own->data, blockBytes);
        dirty_data = own->dirty();
    } else {
        dirty_data = false;
    }

    Tick data_ready = grant_tick + busLatency;
    std::uint16_t fill_spec_words = 0;
    std::vector<TxMark> &fill_foreign = grant_fill_foreign_;
    fill_foreign.clear();
    if (!src && !own) {
        // Serviced by memory: the fetch is initiated in parallel with
        // conflict resolution (section 4.4).
        Tick dram_done = dram_.access(grant_tick);
        Tick fill_extra =
            backend_ ? backend_->fillBlock(block, acc.tx, data,
                                           fill_spec_words,
                                           fill_foreign)
                     : (phys_.readBlock(block, data), Tick(0));
        data_ready = std::max(data_ready, dram_done + fill_extra);
    }

    if (write) {
        // Invalidate the other copies; their live marks migrate with
        // the data (word-granularity modes can legitimately have
        // non-conflicting marks of other transactions).
        for (auto &[o, l] : sharer_lines) {
            if (o == c)
                continue;
            if (l->valid() && l->addr == block) {
                l->invalidate();
                l1Invalidate(o, block);
            }
            dirClear(o, block);
        }
    } else if (src) {
        // GetS: the owner keeps ownership (M -> O), E degrades to S.
        if (src->state == Moesi::M)
            src->state = Moesi::O;
        else if (src->state == Moesi::E)
            src->state = Moesi::S;
        l1Downgrade(src_core, block);
    }

    // 7. Install / update our line.
    if (!own) {
        l2_[c]->install(*target, block);
        target->marks.clear();
        target->dirtyWords = migrated_dirty;
        std::memcpy(target->data, data, blockBytes);
        if (write) {
            target->state = Moesi::M;
        } else if (src) {
            target->state = Moesi::S;
        } else {
            bool may_excl =
                !any_other_copy &&
                (!backend_ ||
                 backend_->mayGrantExclusive(block, acc.tx));
            target->state = may_excl ? Moesi::E : Moesi::S;
        }
    } else {
        // Upgrade of our S/O copy.
        if (src)
            std::memcpy(target->data, data, blockBytes);
        target->dirtyWords |= migrated_dirty;
        target->state = Moesi::M;
    }

    // Merge migrated marks (word-granularity data movement).
    for (const auto &m : migrated) {
        noteFootprint(m.tx, c, *target);
        TxMark &mine = target->mark(m.tx);
        mine.readWords |= m.readWords;
        mine.writeWords |= m.writeWords;
    }
    if (write && wordMode() && (src || own) && backend_ &&
        backend_->anyOverflow())
        // Cached data, taken writable: the copies it came from may
        // predate an overflow, so the line also takes the marks a
        // fill from memory would have brought.
        backend_->overflowMarks(block, acc.tx, fill_foreign);
    for (const auto &fm : fill_foreign) {
        // Live transactions' overflowed words in the block: the line
        // must carry their marks.
        noteFootprint(fm.tx, c, *target);
        TxMark &mine = target->mark(fm.tx);
        mine.readWords |= fm.readWords;
        mine.writeWords |= fm.writeWords;
    }
    if (fill_spec_words && acc.tx != invalidTxId) {
        noteFootprint(acc.tx, c, *target);
        // The fill contains the requester's own overflowed speculative
        // words: restore the write marking (the line is speculative,
        // not a committed copy). Word modes let other cores keep
        // shared copies of the block beside those words; the line is
        // then not exclusive, and the next store upgrades on the bus
        // so those copies are invalidated and their marks migrate.
        target->mark(acc.tx).writeWords |= fill_spec_words;
        if (!any_other_copy)
            target->state = Moesi::M;
    }
    for (const auto &m : target->marks)
        union_write |= m.writeWords;

    // 8. Before a transaction's first speculative overwrite of dirty
    //    committed data, persist the committed version (block mode;
    //    word modes persist per word in noteWordWrite).
    if (!wordMode() && write && acc.tx != invalidTxId && dirty_data &&
        union_write == 0)
        extra += writebackCommitted(*target);

    if (write && !moesiWritable(target->state))
        target->state = Moesi::M;

    std::uint32_t v = applyOp(acc, *target, eq_.curTick());
    setMarks(acc, *target);
    fillL1(c, *target, acc.tx);
    l2_[c]->touch(*target);
    dirSet(c, block); // the single line-install site of the directory

    cb(std::max(data_ready, grant_tick + busLatency) + extra,
       AccessResult{v, false});
}

Tick
MemSystem::writebackCommitted(CacheLine &line)
{
    ++writebacks;
    tracer_->record(TraceEventType::Writeback, traceNoId, traceNoId,
                    invalidTxId, invalidTxId, line.addr);
    line.dirtyWords = 0;
    if (backend_)
        return backend_->writebackBlock(line.addr, line.data, 0xffff);
    phys_.writeBlock(line.addr, line.data);
    dram_.write(eq_.curTick()); // posted write
    return 0;
}

Tick
MemSystem::evictLine(CoreId c, CacheLine &victim)
{
    ++evictions;
    Tick lat = 0;

    // wd:cache (Figure 5): word-granularity detection in the caches,
    // but the overflow structures track one writer per block, so a
    // multi-writer block eviction aborts all but the oldest writer.
    if (params_.granularity == Granularity::WordCache &&
        victim.writerCount() > 1) {
        TxId oldest = invalidTxId;
        std::uint64_t best_age = ~std::uint64_t(0);
        for (const auto &m : victim.marks) {
            if (!m.writeWords || !txmgr_.isLive(m.tx))
                continue;
            const Transaction *t = txmgr_.get(m.tx);
            if (t->age < best_age) {
                best_age = t->age;
                oldest = m.tx;
            }
        }
        // Abort hooks restore the younger writers' words in place.
        std::vector<TxId> losers;
        for (const auto &m : victim.marks)
            if (m.writeWords && m.tx != oldest && txmgr_.isLive(m.tx))
                losers.push_back(m.tx);
        for (TxId t : losers) {
            if (in_tx_flush_)
                ++ctxswFlushAborts;
            txmgr_.abort(t, AbortReason::MultiWriterEviction,
                         victim.addr);
        }
    }

    if (tracer_->watchingBlock(victim.addr))
        tracer_->record(
            TraceEventType::Watchpoint, c, traceNoId, invalidTxId,
            invalidTxId, victim.addr,
            std::uint64_t(WatchKind::Evict),
            double(victim.readWord32(byteOff(tracer_->watchAddr()))));
    std::uint16_t spec_words = 0;
    std::vector<TxMark> &live = evict_live_;
    live.clear();
    for (const auto &m : victim.marks)
        if (txmgr_.isLive(m.tx))
            live.push_back(m);
    tracer_->record(TraceEventType::LineEvict, c, traceNoId,
                    invalidTxId, invalidTxId, victim.addr, live.size());

    for (const auto &m : live) {
        ++txEvictions;
        tracer_->record(TraceEventType::OverflowSpill, c, traceNoId,
                        m.tx, invalidTxId, victim.addr);
        if (backend_) {
            Tick spill = backend_->evictTxBlock(victim.addr, m.tx,
                                                m.writeWords != 0,
                                                victim.data,
                                                m.readWords,
                                                m.writeWords);
            prof_->charge(ProfCharge::OverflowSpill, spill);
            lat += spill;
        }
        spec_words |= m.writeWords;
    }

    if (victim.dirty()) {
        // Write the non-speculative dirty words back to their
        // committed locations (whole block in block mode; exactly the
        // tracked dirty words in word modes, so stale line words can
        // never clobber newer committed memory).
        std::uint16_t commit_words =
            wordMode() ? std::uint16_t(victim.dirtyWords & ~spec_words)
                       : std::uint16_t(~spec_words);
        if (commit_words) {
            ++writebacks;
            tracer_->record(TraceEventType::Writeback, c, traceNoId,
                            invalidTxId, invalidTxId, victim.addr);
            if (backend_) {
                lat += backend_->writebackBlock(victim.addr,
                                                victim.data,
                                                commit_words);
            } else {
                phys_.writeBlock(victim.addr, victim.data);
                dram_.write(eq_.curTick()); // posted write
            }
        }
    }
    return lat;
}

std::uint32_t
MemSystem::applyOp(const Access &acc, CacheLine &line, Tick at)
{
    unsigned off = byteOff(acc.paddr);
    if (tracer_->watchingWord(wordAlign(acc.paddr))) {
        WatchKind k = acc.isCas ? WatchKind::Cas
                      : acc.isWrite ? WatchKind::Store
                                    : WatchKind::Load;
        double v = acc.isWrite || acc.isCas ? double(acc.storeValue)
                                            : double(line.readWord32(off));
        tracer_->recordAt(at, TraceEventType::Watchpoint, acc.core,
                          traceNoId, acc.tx, invalidTxId, acc.paddr,
                          std::uint64_t(k), v);
    }
    if (acc.isCas) {
        std::uint32_t old = line.readWord32(off);
        if (old == acc.casExpected) {
            noteWordWrite(acc, line);
            line.writeWord32(off, acc.storeValue);
            line.state = Moesi::M;
        }
        return old;
    }
    if (acc.isWrite) {
        noteWordWrite(acc, line);
        line.writeWord32(off, acc.storeValue);
        line.state = Moesi::M;
        return acc.storeValue;
    }
    return line.readWord32(off);
}

void
MemSystem::noteWordWrite(const Access &acc, CacheLine &line)
{
    std::uint16_t bit = std::uint16_t(1u << wordIdx(acc.paddr));
    if (acc.tx == invalidTxId) {
        // The committed value now lives only in the line.
        line.dirtyWords |= bit;
        return;
    }
    if (persistsWord(acc, line)) {
        // A speculative store is about to overwrite a committed word
        // whose only up-to-date copy is this line: persist it first.
        // Batch all of the line's dirty committed words into the one
        // posted write-back so repeated stores across a transaction
        // cost what block mode's whole-line persist costs.
        ++writebacks;
        if (backend_)
            backend_->writebackBlock(line.addr, line.data,
                                     line.dirtyWords);
        else
            phys_.writeBlock(line.addr, line.data);
        line.dirtyWords = 0;
    }
}

void
MemSystem::noteFootprint(TxId tx, CoreId c, const CacheLine &line)
{
    TxFootprint &fp = footprints_[tx];
    const std::uint64_t bit = std::uint64_t(1) << c;
    const std::size_t base =
        std::size_t(std::popcount(fp.cores & (bit - 1))) * footprintWords_;
    if (!(fp.cores & bit)) {
        fp.cores |= bit;
        fp.bits.insert(fp.bits.begin() + std::ptrdiff_t(base),
                       footprintWords_, 0);
    }
    const std::size_t s = l2_[c]->slotOf(line);
    fp.bits[base + s / 64] |= std::uint64_t(1) << (s % 64);
}

MemSystem::TxFootprint
MemSystem::takeFootprint(TxId tx)
{
    TxFootprint fp;
    if (TxFootprint *f = footprints_.find(tx)) {
        fp = std::move(*f);
        footprints_.erase(tx);
    }
    return fp;
}

template <typename F>
void
MemSystem::forEachMarkedLine(const TxFootprint &fp, TxId tx, F &&fn)
{
    std::size_t base = 0;
    for (std::uint64_t cm = fp.cores; cm; cm &= cm - 1) {
        const CoreId c = CoreId(std::countr_zero(cm));
        for (std::size_t w = 0; w < footprintWords_; ++w) {
            for (std::uint64_t b = fp.bits[base + w]; b; b &= b - 1) {
                CacheLine &l =
                    l2_[c]->slot(w * 64 + unsigned(std::countr_zero(b)));
                if (!l.valid())
                    continue;
                if (TxMark *m = l.findMark(tx))
                    fn(c, l, *m);
            }
        }
        base += footprintWords_;
    }
}

void
MemSystem::setMarks(const Access &acc, CacheLine &line)
{
    if (acc.tx == invalidTxId)
        return;
    noteFootprint(acc.tx, acc.core, line);
    std::uint16_t mask = accessMask(acc.paddr);
    TxMark &m = line.mark(acc.tx);
    if (acc.isWrite || acc.isCas)
        m.writeWords |= mask;
    if (!acc.isWrite || acc.isCas)
        m.readWords |= mask;
}

void
MemSystem::fillL1(CoreId c, const CacheLine &line, TxId tx)
{
    // A foreign speculative writer makes any L1 fast path unsafe.
    bool foreign_any = false;
    bool foreign_write = false;
    for (const auto &m : line.marks) {
        if (m.tx != tx && txmgr_.isLive(m.tx)) {
            foreign_any = true;
            if (m.writeWords)
                foreign_write = true;
        }
    }
    if (foreign_write) {
        l1_[c]->invalidate(line.addr);
        return;
    }

    L1Filter::Entry &e = l1_[c]->insert(line.addr);
    e.l2Slot = std::uint32_t(l2_[c]->slotOf(line));
    e.writable = moesiWritable(line.state) && !foreign_any;
    e.txId = tx;
    e.txReadWords = 0;
    e.txWriteWords = 0;
    if (tx != invalidTxId) {
        for (const auto &m : line.marks) {
            if (m.tx == tx) {
                e.txReadWords = m.readWords;
                e.txWriteWords = m.writeWords;
                break;
            }
        }
    }
}

void
MemSystem::l1Invalidate(CoreId c, Addr block)
{
    l1_[c]->invalidate(block);
}

void
MemSystem::l1Downgrade(CoreId c, Addr block)
{
    l1_[c]->downgrade(block);
}

void
MemSystem::commitClearTx(TxId tx)
{
    forEachMarkedLine(takeFootprint(tx), tx,
                      [&](CoreId c, CacheLine &l, TxMark &m) {
        // The speculative words become committed: their only
        // up-to-date copy is this line now.
        l.dirtyWords |= m.writeWords;
        l.removeMark(tx);
        L1Filter::Entry *e = l1_[c]->peek(l.addr);
        if (e && e->txId == tx) {
            e->txId = invalidTxId;
            e->txReadWords = 0;
            e->txWriteWords = 0;
        }
    });
}

void
MemSystem::abortInvalidate(TxId tx)
{
    const bool block_mode = !wordMode();
    forEachMarkedLine(takeFootprint(tx), tx,
                      [&](CoreId c, CacheLine &l, TxMark &m) {
        if (m.writeWords) {
            if (block_mode) {
                l1Invalidate(c, l.addr);
                dirClear(c, l.addr);
                l.invalidate();
                return;
            }
            restoreWords(l, m);
            // The restored words match committed memory again.
            l.dirtyWords &= std::uint16_t(~m.writeWords);
        }
        l.removeMark(tx);
        L1Filter::Entry *e = l1_[c]->peek(l.addr);
        if (e && e->txId == tx)
            e->valid = false;
    });
}

void
MemSystem::restoreWords(CacheLine &line, const TxMark &mark)
{
    std::uint16_t w = mark.writeWords;
    for (unsigned i = 0; i < wordsPerBlock; ++i) {
        if (!(w & (1u << i)))
            continue;
        Addr word_addr = line.addr + Addr(i) * wordBytes;
        std::uint32_t committed =
            backend_ ? backend_->readCommittedWord32(word_addr)
                     : phys_.readWord32(word_addr);
        if (tracer_->watchingWord(word_addr))
            tracer_->record(TraceEventType::Watchpoint, traceNoId,
                            traceNoId, mark.tx, invalidTxId, word_addr,
                            std::uint64_t(WatchKind::Restore),
                            double(committed));
        line.writeWord32(i * unsigned(wordBytes), committed);
    }
}

Tick
MemSystem::flushTxLines(TxId tx)
{
    // Walk a copy and drop the entry afterwards: an eviction may abort
    // tx itself (wd:cache multi-writer), and the re-entered
    // abortInvalidate must find the footprint to restore the lines
    // not yet flushed, which this walk then skips.
    const TxFootprint *fp = footprints_.find(tx);
    if (!fp)
        return 0;
    const TxFootprint walk = *fp;
    Tick lat = 0;
    in_tx_flush_ = true;
    forEachMarkedLine(walk, tx, [&](CoreId c, CacheLine &l, TxMark &) {
        lat += evictLine(c, l);
        l1Invalidate(c, l.addr);
        dirClear(c, l.addr);
        l.invalidate();
    });
    in_tx_flush_ = false;
    footprints_.erase(tx);
    return lat;
}

Tick
MemSystem::flushPage(PageNum home)
{
    Tick lat = 0;
    for (CoreId c = 0; c < params_.numCores; ++c) {
        l2_[c]->forEachValid([&](CacheLine &l) {
            if (pageOf(l.addr) != home)
                return;
            lat += evictLine(c, l);
            l1Invalidate(c, l.addr);
            dirClear(c, l.addr);
            l.invalidate();
        });
    }
    return lat;
}

std::uint32_t
MemSystem::debugReadWord32(Addr paddr, TxId tx)
{
    (void)tx;
    Addr block = blockAlign(paddr);
    // Only cores with a sharer bit can hold the block (a missing bit
    // is impossible, section 6b of DESIGN.md). Ascending core order
    // keeps the rule of the full scan: the first copy wins, a later
    // dirty copy replaces it. Stale bits are left alone: a debug read
    // changes no simulated state, and the directory feeds the
    // snoops_filtered statistic.
    const CacheLine *best = nullptr;
    for (std::uint64_t sh = dirSharers(block); sh; sh &= sh - 1) {
        CoreId c = CoreId(std::countr_zero(sh));
        if (const CacheLine *l = l2_[c]->find(block)) {
            if (!best || l->dirty())
                best = l;
        }
    }
    if (best)
        return best->readWord32(byteOff(paddr));
    if (backend_)
        return backend_->readCommittedWord32(wordAlign(paddr));
    return phys_.readWord32(wordAlign(paddr));
}

} // namespace ptm
