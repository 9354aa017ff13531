/**
 * @file
 * Tests of the robustness harness: every PTM-auditor check is proven
 * to fire on seeded corruption (negative tests via AuditTestAccess),
 * the chaos engine is exercised end to end (clean audited runs,
 * bit-exact determinism of a seeded plan), the contention knobs
 * (watchdog, starvation escalation, randomized backoff) are driven to
 * their trip points, and the delayed-cleanup drain at thread exit is
 * pinned by a regression test.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "cache/cache.hh"
#include "harness/cli.hh"
#include "mem/frame_alloc.hh"
#include "mem/phys_mem.hh"
#include "mem/timing.hh"
#include "ptm/audit.hh"
#include "ptm/vts.hh"
#include "sim/chaos.hh"
#include "sim/event_queue.hh"
#include "sim_test_util.hh"
#include "tx/tx_manager.hh"

namespace ptm
{
namespace
{

using namespace ptm::test;

/**
 * Fixture wiring a bare VTS plus the auditor, so corruption can be
 * seeded while overflowed state is live (inside a System the TAV
 * lists drain before the run ends, leaving nothing to corrupt).
 */
class AuditNegative : public ::testing::Test
{
  protected:
    void
    build(TmKind kind, Granularity gran = Granularity::Block,
          ShadowFreePolicy pol = ShadowFreePolicy::MergeOnSwap)
    {
        params.tmKind = kind;
        params.granularity = gran;
        params.shadowFree = pol;
        frames = std::make_unique<FrameAllocator>(1024);
        dram = std::make_unique<DramModel>(200, 3, 60);
        vts = std::make_unique<Vts>(params, eq, phys, txmgr, *frames,
                                    *dram);
        txmgr.backendCommit = [this](TxId t) { vts->commitTx(t); };
        txmgr.backendAbort = [this](TxId t) { vts->abortTx(t); };
        home = frames->alloc();
        auditor.attach(vts.get(), &txmgr);
    }

    /** Begin a transaction and overflow one dirty block of @p page. */
    TxId
    overflow(PageNum page, unsigned blk = 2, std::uint32_t seed = 5000)
    {
        TxId tx = txmgr.begin(0, 0, 0);
        evictDirty(tx, page, blk, seed);
        return tx;
    }

    void
    evictDirty(TxId tx, PageNum page, unsigned blk, std::uint32_t seed,
               std::uint16_t write_words = 0xffff)
    {
        std::uint8_t data[blockBytes];
        for (unsigned w = 0; w < wordsPerBlock; ++w) {
            std::uint32_t v = seed + w;
            std::memcpy(data + w * 4, &v, 4);
        }
        vts->evictTxBlock(blockAddr(page, blk), tx, true, data, 0,
                          write_words);
    }

    Addr
    blockAddr(PageNum page, unsigned blk) const
    {
        return pageBase(page) + Addr(blk) * blockBytes;
    }

    /** The pristine structures must audit clean (no false positives). */
    void
    expectClean()
    {
        EXPECT_EQ(auditor.checkAll("test", 0), 0u)
            << (auditor.violations().empty()
                    ? ""
                    : auditor.violations().back().detail);
    }

    /** After corruption, check @p id must be among the new findings. */
    void
    expectCheck(const char *id)
    {
        EXPECT_GT(auditor.checkAll("test", 1), 0u)
            << "corruption went undetected";
        bool found = false;
        for (const AuditViolation &v : auditor.violations())
            if (v.check == id)
                found = true;
        EXPECT_TRUE(found)
            << "check \"" << id << "\" did not fire; got \""
            << (auditor.violations().empty()
                    ? "<none>"
                    : auditor.violations().back().check)
            << "\"";
    }

    SystemParams params;
    EventQueue eq;
    PhysMem phys;
    TxManager txmgr;
    std::unique_ptr<FrameAllocator> frames;
    std::unique_ptr<DramModel> dram;
    std::unique_ptr<Vts> vts;
    PtmAuditor auditor;
    PageNum home = 0;
};

TEST_F(AuditNegative, SptHomeMismatchFires)
{
    build(TmKind::SelectPtm);
    overflow(home);
    expectClean();
    AuditTestAccess::corruptHome(*vts, home);
    expectCheck("spt-home");
}

TEST_F(AuditNegative, ShadowAliasedToHomeFires)
{
    build(TmKind::SelectPtm);
    overflow(home);
    expectClean();
    AuditTestAccess::aliasShadow(*vts, home);
    expectCheck("shadow-self");
}

TEST_F(AuditNegative, DuplicateShadowFrameFires)
{
    build(TmKind::SelectPtm);
    PageNum home2 = frames->alloc();
    TxId tx = overflow(home);
    evictDirty(tx, home2, 3, 6000);
    expectClean();
    AuditTestAccess::dupShadow(*vts, home, home2);
    expectCheck("shadow-dup");
}

TEST_F(AuditNegative, ShadowCountLeakFires)
{
    build(TmKind::SelectPtm);
    overflow(home);
    expectClean();
    AuditTestAccess::leakShadowCount(*vts);
    expectCheck("shadow-count");
}

TEST_F(AuditNegative, SummaryVectorDisagreementFires)
{
    build(TmKind::SelectPtm);
    overflow(home);
    expectClean();
    AuditTestAccess::corruptSummary(*vts, home);
    expectCheck("summary-agree");
}

TEST_F(AuditNegative, SelectionBitWithoutShadowFires)
{
    build(TmKind::SelectPtm);
    overflow(home);
    expectClean();
    AuditTestAccess::corruptSelection(*vts, home);
    expectCheck("selection-shadow");
}

TEST_F(AuditNegative, CopyPtmSelectionBitFires)
{
    build(TmKind::CopyPtm);
    overflow(home);
    expectClean();
    AuditTestAccess::corruptSelection(*vts, home);
    expectCheck("selection-copy");
}

TEST_F(AuditNegative, NodeHomeMismatchFires)
{
    build(TmKind::SelectPtm);
    overflow(home);
    expectClean();
    AuditTestAccess::corruptNodeHome(*vts, home);
    expectCheck("node-home");
}

TEST_F(AuditNegative, NodeOfFinishedTransactionFires)
{
    build(TmKind::SelectPtm);
    overflow(home);
    expectClean();
    AuditTestAccess::corruptNodeTx(*vts, home, TxId(0xdead));
    expectCheck("node-state");
}

TEST_F(AuditNegative, DuplicateNodeOnPageFires)
{
    build(TmKind::SelectPtm);
    overflow(home);
    expectClean();
    AuditTestAccess::dupNode(*vts, home);
    expectCheck("node-dup");
}

TEST_F(AuditNegative, NodeVectorWidthMismatchFires)
{
    build(TmKind::SelectPtm);
    overflow(home);
    expectClean();
    AuditTestAccess::shrinkNodeVec(*vts, home);
    expectCheck("node-vec");
}

TEST_F(AuditNegative, BrokenVerticalListFires)
{
    build(TmKind::SelectPtm);
    TxId tx = overflow(home);
    PageNum home2 = frames->alloc();
    evictDirty(tx, home2, 1, 7000);
    expectClean();
    AuditTestAccess::breakVerticalLink(*vts, tx);
    expectCheck("vertical-agree");
}

TEST_F(AuditNegative, LeakedArenaNodeFires)
{
    build(TmKind::SelectPtm);
    overflow(home);
    expectClean();
    AuditTestAccess::leakArenaNode(*vts);
    expectCheck("arena-live");
}

TEST_F(AuditNegative, LiveDirtyGaugeSkewFires)
{
    build(TmKind::SelectPtm);
    overflow(home);
    expectClean();
    AuditTestAccess::bumpLiveDirty(*vts);
    expectCheck("live-dirty");
}

TEST_F(AuditNegative, OverflowCountSkewFires)
{
    build(TmKind::SelectPtm);
    overflow(home);
    expectClean();
    AuditTestAccess::bumpOverflowCount(*vts);
    expectCheck("overflow-live");
}

TEST_F(AuditNegative, NonQuiescedSitEntryFires)
{
    build(TmKind::SelectPtm);
    overflow(home);
    expectClean();
    AuditTestAccess::corruptSit(*vts, 7);
    expectCheck("sit-clean");
}

TEST_F(AuditNegative, OrphanedSwapDataFires)
{
    build(TmKind::SelectPtm);
    overflow(home);
    expectClean();
    AuditTestAccess::orphanSwapData(*vts, 7);
    expectCheck("swap-data");
}

TEST_F(AuditNegative, AbortBreakdownSumMismatchFires)
{
    build(TmKind::SelectPtm);
    expectClean();
    ++txmgr.aborts; // total bumped, no per-cause counter follows
    expectCheck("abort-sum");
}

TEST_F(AuditNegative, LiveCountSkewFires)
{
    build(TmKind::SelectPtm);
    overflow(home);
    expectClean();
    AuditTestAccess::bumpLiveCount(txmgr);
    expectCheck("live-count");
}

TEST_F(AuditNegative, WritableLineMissingOverflowedReaderFires)
{
    build(TmKind::SelectPtm, Granularity::WordCacheMem);
    TxId reader = txmgr.begin(0, 0, 0);
    const Addr block = blockAddr(home, 2);
    const std::uint8_t data[blockBytes] = {};
    vts->evictTxBlock(block, reader, false, data, 0x0010, 0);

    // A cached copy of the block, as another core's fill leaves it.
    CacheLine line;
    line.addr = block;
    line.state = Moesi::M;
    line.mark(reader).readWords = 0x0010;
    auditor.attachCaches([&](const auto &fn) { fn(line); });
    expectClean();
    // A shared copy may lack the mark: its stores go to the bus, where
    // the overflowed read is checked.
    line.removeMark(reader);
    line.state = Moesi::S;
    expectClean();
    // A writable one may not: a local store would skip the check.
    line.state = Moesi::M;
    expectCheck("line-marks");
}

/** The full lifecycle leaves nothing for the auditor to object to. */
TEST_F(AuditNegative, CommitLifecycleAuditsClean)
{
    build(TmKind::SelectPtm);
    TxId tx = overflow(home);
    expectClean();
    ASSERT_EQ(txmgr.requestCommit(tx), CommitResult::Done);
    eq.run();
    EXPECT_EQ(txmgr.stateOf(tx), TxState::Committed);
    expectClean();
}

/**
 * Regression: a chaos-delayed abort-cleanup walk must be drained when
 * its thread exits. Without the drain, the Copy-PTM restore runs
 * later and overwrites whatever was committed to the home page in the
 * meantime (the bug the onThreadExit hook fixes).
 */
TEST_F(AuditNegative, DelayedAbortCleanupDrainsAtThreadExit)
{
    build(TmKind::CopyPtm);
    ChaosEngine chaos;
    ChaosParams cp;
    cp.enabled = true;
    cp.plan = chaosFaultMask(ChaosFault::CleanupDelay);
    cp.cleanupDelay = 1000 * 1000; // park the walk far in the future
    chaos.configure(cp);
    vts->setChaos(&chaos);

    phys.writeWord32(blockAddr(home, 2), 111); // committed value
    TxId tx = overflow(home); // Copy-PTM: spec data lands on home
    txmgr.abort(tx, AbortReason::Explicit);

    // The walk is parked: the restore has not happened yet.
    EXPECT_EQ(chaos.cleanupDelays.value(), 1u);
    EXPECT_EQ(txmgr.stateOf(tx), TxState::Aborting);
    EXPECT_EQ(phys.readWord32(blockAddr(home, 2)), 5000u);

    // Thread 0 exits: its pending cleanups must finish synchronously.
    vts->drainThreadCleanups(0);
    EXPECT_EQ(txmgr.stateOf(tx), TxState::Aborted);
    EXPECT_EQ(phys.readWord32(blockAddr(home, 2)), 111u)
        << "abort restore must complete before the thread is gone";
    EXPECT_FALSE(vts->anyOverflow());

    eq.run(); // the parked event fires and must find nothing to do
    expectClean();
}

constexpr Addr kBase = 0x40000;

/** Per-thread disjoint stores; returns expected final words. */
void
addStoreThreads(System &sys, ProcId p, unsigned threads, unsigned txs,
                unsigned blocks)
{
    for (unsigned t = 0; t < threads; ++t) {
        std::vector<Step> steps;
        for (unsigned i = 0; i < txs; ++i) {
            steps.push_back(tx([t, i, blocks](MemCtx m) -> TxCoro {
                for (unsigned b = 0; b < blocks; ++b)
                    co_await m.store(kBase +
                                         Addr(t) * 64 * blockBytes +
                                         Addr(b) * blockBytes,
                                     1000 * t + 100 * i + b);
            }));
        }
        sys.addThread(p, std::move(steps));
    }
}

/**
 * A fully armed chaos run under the auditor: every fault kind on a
 * short interval, violations must stay at zero and the workload's
 * final memory image must still be correct.
 */
TEST(ChaosSystem, ArmedRunAuditsCleanAndStaysCorrect)
{
    SystemParams prm = tinyCacheParams(TmKind::SelectPtm);
    prm.audit.enabled = true;
    prm.audit.interval = 20000;
    prm.chaos.enabled = true;
    prm.chaos.seed = 3;
    prm.chaos.interval = 5000;
    prm.chaos.cleanupDelay = 500;
    System sys(prm);
    ProcId p = sys.createProcess();
    constexpr unsigned kThreads = 4, kTxs = 4, kBlocks = 48;
    addStoreThreads(sys, p, kThreads, kTxs, kBlocks);
    sys.run();

    for (unsigned t = 0; t < kThreads; ++t)
        for (unsigned b = 0; b < kBlocks; ++b)
            EXPECT_EQ(sys.readWord32(p, kBase +
                                            Addr(t) * 64 * blockBytes +
                                            Addr(b) * blockBytes),
                      1000 * t + 100 * (kTxs - 1) + b);

    const ChaosEngine &c = sys.chaos();
    std::uint64_t injected =
        c.injectedAborts.value() + c.cacheSqueezes.value() +
        c.txFlushes.value() + c.pageSwaps.value() +
        c.preempts.value() + c.cleanupDelays.value();
    EXPECT_GT(injected, 0u) << "the plan never injected anything";
    EXPECT_GT(sys.auditor().checksRun.value(), 0u);
    EXPECT_TRUE(sys.auditor().violations().empty());
}

/**
 * The auditor and the flight recorder replay the same run: both echo
 * the full reproducer, durability and contention knobs included.
 */
TEST(ChaosSystem, AuditorAndRecorderShareTheFullRepro)
{
    SystemParams prm = quietParams(TmKind::SelectPtm);
    prm.audit.enabled = true;
    prm.persist.policy = Durability::Wal;
    prm.contention.randomBackoff = true;
    System sys(prm);
    const std::string want = chaosReproArgs(prm);
    EXPECT_NE(want.find("--durability wal"), std::string::npos);
    EXPECT_NE(want.find("--backoff"), std::string::npos);
    EXPECT_EQ(sys.auditor().repro(), want);
    ASSERT_NE(sys.flightrec(), nullptr);
    EXPECT_EQ(sys.flightrec()->repro(), want);
}

Tick
chaosRunCycles(bool armed, StatSnapshot &out)
{
    SystemParams prm = tinyCacheParams(TmKind::SelectPtm);
    prm.chaos.enabled = armed;
    prm.chaos.seed = 11;
    prm.chaos.interval = 2000;
    System sys(prm);
    ProcId p = sys.createProcess();
    addStoreThreads(sys, p, 4, 4, 48);
    Tick end = sys.run();
    out = sys.snapshot();
    if (armed) {
        const ChaosEngine &c = sys.chaos();
        EXPECT_GT(c.cacheSqueezes.value() + c.txFlushes.value() +
                      c.preempts.value() + c.pageSwaps.value() +
                      c.injectedAborts.value(),
                  0u)
            << "plan never injected: the run is too short";
    }
    return end;
}

/** The same (workload seed, chaos seed, plan) replays bit-exactly. */
TEST(ChaosSystem, SameSeedReplaysExactly)
{
    StatSnapshot a, b;
    Tick ca = chaosRunCycles(true, a);
    Tick cb = chaosRunCycles(true, b);
    EXPECT_EQ(ca, cb);
    EXPECT_EQ(a.counter("tx.commits"), b.counter("tx.commits"));
    EXPECT_EQ(a.counter("tx.aborts"), b.counter("tx.aborts"));
    EXPECT_EQ(a.value("sys.mem_ops"), b.value("sys.mem_ops"));

    // Arming the plan actually perturbs the run vs. the quiet
    // baseline (it injects preemptions and forced flushes).
    StatSnapshot c;
    Tick cc = chaosRunCycles(false, c);
    EXPECT_TRUE(cc != ca ||
                c.counter("tx.aborts") != a.counter("tx.aborts") ||
                c.value("sys.mem_ops") != a.value("sys.mem_ops"));
}

/**
 * Contention robustness: a high-conflict counter workload with the
 * watchdog and retry-budget escalation armed must still complete
 * correctly, trip the watchdog, grant (and release) the starvation
 * token, and lose no increments.
 */
TEST(ChaosSystem, WatchdogTripsAndStarvationTokenReleases)
{
    SystemParams prm = quietParams(TmKind::SelectPtm);
    prm.contention.randomBackoff = true;
    prm.contention.watchdogThreshold = 3;
    prm.contention.retryBudget = 3;
    System sys(prm);
    ProcId p = sys.createProcess();
    constexpr unsigned kThreads = 4, kIters = 20;
    for (unsigned t = 0; t < kThreads; ++t) {
        std::vector<Step> steps;
        for (unsigned i = 0; i < kIters; ++i) {
            steps.push_back(tx([](MemCtx m) -> TxCoro {
                std::uint64_t v = co_await m.load(kBase);
                co_await m.compute(300);
                co_await m.store(kBase, std::uint32_t(v + 1));
            }));
        }
        sys.addThread(p, std::move(steps));
    }
    sys.run();

    EXPECT_EQ(sys.readWord32(p, kBase), kThreads * kIters);
    StatSnapshot s = sys.snapshot();
    EXPECT_EQ(s.counter("tx.commits"), kThreads * kIters);
    EXPECT_GT(s.counter("tx.aborts"), 0u);
    const TxManager &tm = sys.txmgr();
    EXPECT_GT(tm.watchdogTrips.value(), 0u);
    EXPECT_GT(tm.starvationGrants.value(), 0u);
    EXPECT_EQ(tm.starvationHolder(), invalidTxId)
        << "the token must be released by the final commit";
}

} // namespace
} // namespace ptm
