/**
 * @file
 * PTM invariant auditor implementation.
 *
 * All checks run between simulation events (the auditor is invoked
 * from commit/abort hooks and scheduled audit events), so they observe
 * quiescent structure states: a cleanup walk's already-processed nodes
 * are gone from both lists, its unprocessed nodes are on both.
 */

#include "ptm/audit.hh"

#include <unordered_set>

#include "cache/cache.hh"
#include "ptm/vts.hh"
#include "sim/logging.hh"
#include "tx/tx_manager.hh"

namespace ptm
{

namespace
{

/** Stop recording (but keep counting) past this many violations: a
 *  corrupted structure re-detected by every later audit pass must not
 *  grow the report without bound. */
constexpr std::size_t maxRecorded = 256;

using ull = unsigned long long;

} // namespace

void
PtmAuditor::regStats(StatRegistry &reg)
{
    StatGroup &g = reg.addGroup("audit");
    g.addCounter("checks_run", &checksRun,
                 "full invariant-audit passes executed");
    g.addCounter("violations", &violationsFound,
                 "invariant violations detected");
}

void
PtmAuditor::report(const char *check, const char *where, Tick now,
                   std::string detail)
{
    ++violationsFound;
    if (violations_.size() >= maxRecorded)
        return;
    warn("audit[%s] at tick %llu (%s): %s%s%s", check, (ull)now, where,
         detail.c_str(), repro_.empty() ? "" : " | repro: ",
         repro_.c_str());
    AuditViolation v;
    v.check = check;
    v.where = where;
    v.tick = now;
    v.detail = std::move(detail);
    violations_.push_back(std::move(v));
    if (onViolation)
        onViolation(violations_.back());
}

std::size_t
PtmAuditor::checkAll(const char *where, Tick now)
{
    if (!vts_ || !txmgr_)
        return 0;
    ++checksRun;
    std::size_t before = violationsFound.value();

    // Cap every intrusive-list walk: a corrupted link must produce a
    // violation, not an endless audit.
    const std::size_t walk_cap = vts_->tav_arena_.slabNodes() + 1;
    const unsigned page_bits = vts_->gran_.bitsPerPage();

    std::unordered_set<const TavNode *> horiz;
    std::unordered_set<std::uint64_t> shadows;
    std::uint64_t shadow_count = 0;
    std::uint64_t live_dirty_pages = 0;

    vts_->spt_.forEach([&](PageNum page, SptEntry &e) {
        if (e.home != page)
            report("spt-home", where, now,
                   strprintf("entry of page %llu records home %llu",
                             (ull)page, (ull)e.home));
        if (e.hasShadow()) {
            ++shadow_count;
            if (e.shadow == e.home)
                report("shadow-self", where, now,
                       strprintf("page %llu shadows itself",
                                 (ull)page));
            if (!shadows.insert(std::uint64_t(e.shadow)).second)
                report("shadow-dup", where, now,
                       strprintf("shadow frame %llu serves two pages",
                                 (ull)e.shadow));
        }
        if (!vts_->select_ && e.selection.any())
            report("selection-copy", where, now,
                   strprintf("Copy-PTM page %llu has selection bits",
                             (ull)page));
        if (vts_->select_ && e.selection.any() && !e.hasShadow())
            report("selection-shadow", where, now,
                   strprintf("page %llu selects shadow units with no "
                             "shadow page",
                             (ull)page));

        // Walk the horizontal list once: per-node checks, then the
        // summary recomputation (§4.2.2: summaries are the OR of the
        // page's TAV vectors).
        BitVec wsum = vts_->gran_.makeVec();
        BitVec rsum = vts_->gran_.makeVec();
        bool dirty_running = false; // a Running writer's spill
        bool dirty_pending = false; // ... or one mid-cleanup
        std::unordered_set<std::uint64_t> txs_on_page;
        std::size_t steps = 0;
        for (TavNode *t = e.tavHead; t; t = t->nextOnPage) {
            if (++steps > walk_cap) {
                report("vertical-agree", where, now,
                       strprintf("horizontal list of page %llu cycles",
                                 (ull)page));
                break;
            }
            horiz.insert(t);
            if (t->home != page)
                report("node-home", where, now,
                       strprintf("node of tx %llu on page %llu "
                                 "records home %llu",
                                 (ull)t->tx, (ull)page, (ull)t->home));
            TxState s = txmgr_->stateOf(t->tx);
            if (s != TxState::Running && s != TxState::Committing &&
                s != TxState::Aborting)
                report("node-state", where, now,
                       strprintf("node of tx %llu (state %d) survived "
                                 "cleanup on page %llu",
                                 (ull)t->tx, int(s), (ull)page));
            if (!txs_on_page.insert(std::uint64_t(t->tx)).second)
                report("node-dup", where, now,
                       strprintf("tx %llu holds two nodes on page "
                                 "%llu",
                                 (ull)t->tx, (ull)page));
            if (t->read.size() != page_bits ||
                t->write.size() != page_bits) {
                report("node-vec", where, now,
                       strprintf("node of tx %llu on page %llu has "
                                 "%u/%u-bit vectors (want %u)",
                                 (ull)t->tx, (ull)page,
                                 t->read.size(), t->write.size(),
                                 page_bits));
                continue; // ORing mis-sized vectors would panic
            }
            wsum |= t->write;
            rsum |= t->read;
            if (t->write.any()) {
                dirty_pending = true;
                if (s == TxState::Running)
                    dirty_running = true;
            }
        }
        if (!(wsum == e.writeSummary) || !(rsum == e.readSummary))
            report("summary-agree", where, now,
                   strprintf("summaries of page %llu disagree with "
                             "the OR of its TAV vectors (w %u/%u set, "
                             "r %u/%u set)",
                             (ull)page, wsum.count(),
                             e.writeSummary.count(), rsum.count(),
                             e.readSummary.count()));
        // The flag refreshes lazily (on spills and cleanup steps), so
        // it may stay raised while a writer's cleanup walk is still in
        // flight — but a Running writer's spill must raise it, and it
        // must drop once no writer remains at all.
        if (dirty_running && !e.liveDirty)
            report("live-dirty", where, now,
                   strprintf("page %llu has a running writer's spill "
                             "but its liveDirty flag is clear",
                             (ull)page));
        if (e.liveDirty && !dirty_pending)
            report("live-dirty", where, now,
                   strprintf("page %llu liveDirty flag is set with no "
                             "writer present",
                             (ull)page));
        if (e.liveDirty)
            ++live_dirty_pages;
    });

    if (shadow_count != vts_->shadow_pages_)
        report("shadow-count", where, now,
               strprintf("%llu shadow pages allocated per counter, "
                         "%llu found in the SPT",
                         (ull)vts_->shadow_pages_, (ull)shadow_count));
    if (live_dirty_pages != vts_->live_dirty_count_)
        report("live-dirty", where, now,
               strprintf("live-dirty gauge is %llu, %llu pages are "
                         "flagged",
                         (ull)vts_->live_dirty_count_,
                         (ull)live_dirty_pages));

    // Swap Index Table entries describe fully quiesced pages: no TAV
    // state, no shadow frame, home recorded as invalid (§3.5.1).
    vts_->sit_.forEach([&](std::uint64_t slot, SptEntry &e) {
        if (e.tavHead || e.hasShadow() || e.home != invalidPage)
            report("sit-clean", where, now,
                   strprintf("SIT slot %llu not quiesced (tav %d, "
                             "shadow %d, home %llu)",
                             (ull)slot, int(e.tavHead != nullptr),
                             int(e.hasShadow()), (ull)e.home));
    });
    vts_->swapped_shadow_data_.forEach(
        [&](std::uint64_t slot, std::vector<std::uint8_t> &) {
            if (!vts_->sit_.find(slot))
                report("swap-data", where, now,
                       strprintf("stashed shadow bytes of slot %llu "
                                 "have no SIT entry",
                                 (ull)slot));
        });

    // Vertical reachability: every node is reachable from exactly one
    // transaction — via its T-State list head (not yet cleaning) or
    // the unprocessed tail of its cleanup job — and vice versa.
    std::unordered_set<const TavNode *> vert;
    vts_->tx_head_.forEach([&](TxId tx, TavNode *&head) {
        std::size_t steps = 0;
        for (TavNode *t = head; t; t = t->nextOfTx) {
            if (++steps > walk_cap) {
                report("vertical-agree", where, now,
                       strprintf("vertical list of tx %llu cycles",
                                 (ull)tx));
                break;
            }
            if (!vert.insert(t).second)
                report("vertical-agree", where, now,
                       strprintf("node reachable from two vertical "
                                 "lists (tx %llu)",
                                 (ull)tx));
        }
    });
    vts_->jobs_.forEach([&](TxId tx, const auto &j) {
        for (std::size_t i = j.next; i < j.items.size(); ++i)
            if (!vert.insert(j.items[i]).second)
                report("vertical-agree", where, now,
                       strprintf("cleanup node of tx %llu reachable "
                                 "twice",
                                 (ull)tx));
    });
    std::size_t orphans = 0, dangling = 0;
    for (const TavNode *t : horiz)
        if (!vert.count(t))
            ++orphans;
    for (const TavNode *t : vert)
        if (!horiz.count(t))
            ++dangling;
    if (orphans || dangling)
        report("vertical-agree", where, now,
               strprintf("%llu horizontal nodes unreachable "
                         "vertically, %llu vertical nodes off their "
                         "page lists",
                         (ull)orphans, (ull)dangling));

    if (vts_->tav_arena_.liveNodes() != horiz.size())
        report("arena-live", where, now,
               strprintf("arena reports %llu live nodes, %llu are on "
                         "page lists",
                         (ull)vts_->tav_arena_.liveNodes(),
                         (ull)horiz.size()));

    // T-State cross-checks.
    std::uint64_t running = 0, overflowed_live = 0;
    for (const Transaction *tx : txmgr_->txTable()) {
        if (tx->state == TxState::Running)
            ++running;
        if (tx->overflowed && (tx->state == TxState::Running ||
                               tx->state == TxState::Committing ||
                               tx->state == TxState::Aborting))
            ++overflowed_live;
    }
    if (running != txmgr_->liveCount())
        report("live-count", where, now,
               strprintf("manager counts %u live transactions, table "
                         "holds %llu Running",
                         txmgr_->liveCount(), (ull)running));
    if (overflowed_live != vts_->overflowed_live_)
        report("overflow-live", where, now,
               strprintf("VTS counts %u overflowed live transactions, "
                         "table holds %llu",
                         vts_->overflowed_live_, (ull)overflowed_live));

    // Word modes: a writable cached line carries the mark of every
    // Running transaction with overflowed reads or writes of its words
    // (the marks a fill brings, Vts::overflowMarks). A missing mark
    // lets a local store skip the conflict check against that reader
    // or writer.
    if (lines_ && vts_->gran_.perWord()) {
        lines_([&](const CacheLine &l) {
            const SptEntry *e = vts_->findEntry(pageOf(l.addr));
            if (!e || !moesiWritable(l.state))
                return;
            std::size_t steps = 0;
            for (const TavNode *t = e->tavHead; t && ++steps <= walk_cap;
                 t = t->nextOnPage) {
                if (txmgr_->stateOf(t->tx) != TxState::Running)
                    continue;
                std::uint16_t r = vts_->gran_.blockWords(t->read, l.addr);
                std::uint16_t w =
                    vts_->gran_.blockWords(t->write, l.addr);
                std::uint16_t have_r = 0, have_w = 0;
                for (const TxMark &m : l.marks)
                    if (m.tx == t->tx) {
                        have_r = m.readWords;
                        have_w = m.writeWords;
                    }
                if ((r & ~have_r) || (w & ~have_w))
                    report("line-marks", where, now,
                           strprintf("writable line %#llx lacks tx %llu's "
                                     "overflowed words (read %#x/%#x, "
                                     "write %#x/%#x marked)",
                                     (ull)l.addr, (ull)t->tx,
                                     unsigned(r & have_r), unsigned(r),
                                     unsigned(w & have_w), unsigned(w)));
            }
        });
    }

    std::uint64_t cause_sum = txmgr_->abortsConflict.value() +
                              txmgr_->abortsNonTx.value() +
                              txmgr_->abortsMultiWriter.value() +
                              txmgr_->abortsExplicit.value();
    if (cause_sum != txmgr_->aborts.value())
        report("abort-sum", where, now,
               strprintf("per-cause abort counters sum to %llu, "
                         "aborts is %llu",
                         (ull)cause_sum, (ull)txmgr_->aborts.value()));

    return std::size_t(violationsFound.value() - before);
}

// ---------------------------------------------------------------------
// Test-only corruption helpers.

void
AuditTestAccess::corruptHome(Vts &v, PageNum page)
{
    v.spt_.at(page).home = page + 1;
}

void
AuditTestAccess::aliasShadow(Vts &v, PageNum page)
{
    v.spt_.at(page).shadow = page;
}

void
AuditTestAccess::leakShadowCount(Vts &v)
{
    ++v.shadow_pages_;
}

void
AuditTestAccess::dupShadow(Vts &v, PageNum a, PageNum b)
{
    v.spt_.at(b).shadow = v.spt_.at(a).shadow;
}

void
AuditTestAccess::corruptSummary(Vts &v, PageNum page)
{
    SptEntry &e = v.spt_.at(page);
    if (e.writeSummary.size() == 0)
        e.writeSummary = v.gran_.makeVec();
    e.writeSummary.toggle(0);
}

void
AuditTestAccess::corruptSelection(Vts &v, PageNum page)
{
    SptEntry &e = v.spt_.at(page);
    if (e.selection.size() == 0)
        e.selection = v.gran_.makeVec();
    e.shadow = invalidPage;
    e.selection.set(0);
}

void
AuditTestAccess::corruptNodeHome(Vts &v, PageNum page)
{
    TavNode *t = v.spt_.at(page).tavHead;
    panic_if(!t, "corruptNodeHome: page has no TAV nodes");
    t->home = page + 1;
}

void
AuditTestAccess::corruptNodeTx(Vts &v, PageNum page, TxId bogus)
{
    TavNode *t = v.spt_.at(page).tavHead;
    panic_if(!t, "corruptNodeTx: page has no TAV nodes");
    t->tx = bogus;
}

void
AuditTestAccess::dupNode(Vts &v, PageNum page)
{
    SptEntry &e = v.spt_.at(page);
    panic_if(!e.tavHead, "dupNode: page has no TAV nodes");
    TavNode *n = v.tav_arena_.alloc();
    n->tx = e.tavHead->tx;
    n->home = page;
    n->read = v.gran_.makeVec();
    n->write = v.gran_.makeVec();
    n->nextOnPage = e.tavHead;
    e.tavHead = n;
}

void
AuditTestAccess::shrinkNodeVec(Vts &v, PageNum page)
{
    TavNode *t = v.spt_.at(page).tavHead;
    panic_if(!t, "shrinkNodeVec: page has no TAV nodes");
    t->read = BitVec();
    t->write = BitVec();
}

void
AuditTestAccess::breakVerticalLink(Vts &v, TxId tx)
{
    TavNode **head = v.tx_head_.find(tx);
    panic_if(!head || !*head, "breakVerticalLink: no vertical list");
    *head = (*head)->nextOfTx;
}

void
AuditTestAccess::leakArenaNode(Vts &v)
{
    TavNode *n = v.tav_arena_.alloc();
    n->tx = invalidTxId;
    n->home = invalidPage;
}

void
AuditTestAccess::bumpLiveDirty(Vts &v)
{
    ++v.live_dirty_count_;
}

void
AuditTestAccess::bumpOverflowCount(Vts &v)
{
    ++v.overflowed_live_;
}

void
AuditTestAccess::corruptSit(Vts &v, std::uint64_t slot)
{
    v.sit_[slot].home = 42;
}

void
AuditTestAccess::orphanSwapData(Vts &v, std::uint64_t slot)
{
    v.swapped_shadow_data_[slot] =
        std::vector<std::uint8_t>(pageBytes, 0);
}

void
AuditTestAccess::bumpLiveCount(TxManager &m)
{
    ++m.live_count_;
}

} // namespace ptm
