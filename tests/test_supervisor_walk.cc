/**
 * @file
 * The background commit/abort walk's contract, on every backend that
 * runs it (Copy-PTM, Select-PTM and VTM): a forced finish in the
 * middle of a walk applies each remaining item once, samples the
 * cleanup latency once, records one WalkEnd, reports cleanupDone once
 * and clears the overflow flag; the step event still pending from the
 * cut walk then finds nothing to do. A chaos-delayed start is forced
 * the same way at thread exit.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "mem/frame_alloc.hh"
#include "mem/phys_mem.hh"
#include "mem/timing.hh"
#include "ptm/vts.hh"
#include "sim/chaos.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "tx/tx_manager.hh"
#include "vtm/vtm.hh"

namespace ptm
{
namespace
{

constexpr unsigned kItems = 3;     //!< overflowed blocks, one per page
constexpr std::uint32_t kOld = 111;   //!< committed word of each block
constexpr std::uint32_t kSpec = 5000; //!< the transaction's write

/** Counts the walk records the backend emits. */
struct WalkRecords : TraceObserver
{
    unsigned starts = 0;
    unsigned ends = 0;
    void
    observe(const TraceEvent &e) override
    {
        (e.type == TraceEventType::WalkStart ? starts : ends) += 1;
    }
};

struct WalkCase
{
    TmKind kind;
    bool commit;
};

class WalkContract : public ::testing::TestWithParam<WalkCase>
{
  protected:
    void
    SetUp() override
    {
        params.tmKind = GetParam().kind;
        ptm_ = params.tmKind == TmKind::CopyPtm ||
               params.tmKind == TmKind::SelectPtm;
        if (ptm_)
            backend = std::make_unique<Vts>(params, eq, phys, txmgr,
                                            frames, dram);
        else
            backend = std::make_unique<VtmController>(params, eq, phys,
                                                      txmgr, dram);
        txmgr.setBackend(backend.get());
        txmgr.notifyAbortComplete = [this](TxId, ThreadId) {
            ++abort_completions;
        };
        tracer.subscribe(&records, {TraceEventType::WalkStart,
                                    TraceEventType::WalkEnd});
        backend->setTracer(&tracer);
        backend->regStats(reg);
        for (unsigned i = 0; i < kItems; ++i) {
            blocks.push_back(pageBase(frames.alloc()) + 2 * blockBytes);
            phys.writeWord32(blocks.back(), kOld);
        }
    }

    /** Begin a transaction that overflows a dirty copy of every block. */
    TxId
    overflowAll()
    {
        TxId tx = txmgr.begin(0, 0, 0);
        std::uint8_t data[blockBytes] = {};
        std::memcpy(data, &kSpec, sizeof kSpec);
        for (Addr b : blocks)
            backend->evictTxBlock(b, tx, true, data, 0, 0xffff);
        return tx;
    }

    /** End @p tx the way the case says. */
    void
    finishTx(TxId tx)
    {
        if (GetParam().commit)
            ASSERT_EQ(txmgr.requestCommit(tx), CommitResult::Done);
        else
            txmgr.abort(tx, AbortReason::Explicit);
    }

    StatSnapshot stats() const { return StatSnapshot(reg); }

    /** Walk items applied so far: TAV nodes freed, or XADT entries
     *  dropped (each block has the one transaction). */
    std::uint64_t
    applied() const
    {
        StatSnapshot s = stats();
        if (ptm_)
            return s.counter("vts.commit_walk_nodes") +
                   s.counter("vts.abort_walk_nodes");
        return kItems - std::uint64_t(s.value("vtm.xadt_entries"));
    }

    std::uint64_t
    latencySamples() const
    {
        std::string path = std::string(ptm_ ? "vts" : "vtm") +
                           (GetParam().commit ? ".commit_cleanup_latency"
                                              : ".abort_cleanup_latency");
        StatSnapshot s = stats();
        const StatValue *v = s.find(path);
        return v ? v->dist.samples : ~0ull;
    }

    /** The state cleanupDone must have left @p tx in. */
    TxState
    doneState() const
    {
        return GetParam().commit ? TxState::Committed : TxState::Aborted;
    }

    /** Every block's committed word after the cleanup. */
    void
    expectCommittedWords()
    {
        std::uint32_t want = GetParam().commit ? kSpec : kOld;
        for (Addr b : blocks)
            EXPECT_EQ(backend->readCommittedWord32(b), want)
                << "block " << b;
    }

    SystemParams params;
    EventQueue eq;
    PhysMem phys;
    TxManager txmgr;
    FrameAllocator frames{1024};
    DramModel dram{200, 3, 60};
    Tracer tracer;
    StatRegistry reg;
    WalkRecords records;
    std::unique_ptr<TmBackend> backend;
    std::vector<Addr> blocks;
    unsigned abort_completions = 0;
    bool ptm_ = false;
};

TEST_P(WalkContract, ForcedFinishMidWalkAppliesEachItemOnce)
{
    TxId tx = overflowAll();
    EXPECT_TRUE(backend->anyOverflow());
    finishTx(tx);
    EXPECT_EQ(records.starts, 1u);

    // Let the supervisor apply exactly the first item.
    for (Tick t = eq.curTick(); applied() == 0; t += 10)
        ASSERT_FALSE(eq.run(t)) << "the walk finished on its own";
    ASSERT_EQ(applied(), 1u);
    EXPECT_NE(txmgr.stateOf(tx), doneState());
    EXPECT_TRUE(backend->anyOverflow());
    EXPECT_EQ(latencySamples(), 0u);
    EXPECT_EQ(records.ends, 0u);

    backend->drainAllCleanups(); // the forced finish (tick limit)
    EXPECT_EQ(applied(), kItems);
    EXPECT_EQ(latencySamples(), 1u);
    EXPECT_EQ(records.ends, 1u);
    EXPECT_EQ(txmgr.stateOf(tx), doneState());
    EXPECT_EQ(abort_completions, GetParam().commit ? 0u : 1u);
    EXPECT_FALSE(backend->anyOverflow());
    expectCommittedWords();

    // The cut walk's pending step fires and must find nothing to do.
    eq.run();
    EXPECT_EQ(applied(), kItems);
    EXPECT_EQ(latencySamples(), 1u);
    EXPECT_EQ(records.starts, 1u);
    EXPECT_EQ(records.ends, 1u);
    EXPECT_EQ(abort_completions, GetParam().commit ? 0u : 1u);
    EXPECT_FALSE(backend->anyOverflow());
    expectCommittedWords();
}

TEST_P(WalkContract, DelayedStartIsForcedAtThreadExit)
{
    ChaosEngine chaos;
    ChaosParams cp;
    cp.enabled = true;
    cp.plan = chaosFaultMask(ChaosFault::CleanupDelay);
    cp.cleanupDelay = 1000 * 1000; // park the walk far in the future
    chaos.configure(cp);
    backend->setChaos(&chaos);

    // Half the walks start on time: end transactions until one parks.
    TxId tx = invalidTxId;
    while (chaos.cleanupDelays.value() == 0) {
        eq.run();
        records = WalkRecords();
        tx = overflowAll();
        finishTx(tx);
    }
    EXPECT_EQ(records.starts, 0u) << "the parked walk has not begun";
    EXPECT_NE(txmgr.stateOf(tx), doneState());
    EXPECT_TRUE(backend->anyOverflow());
    // Until the walk reaches a block, a reader must wait: the commit's
    // data is not yet where memory readers look (nor, on PTM, has an
    // abort's backup been restored). VTM aborts leave memory intact.
    BlockAccess read{blocks[0], invalidTxId, false, 0xffff};
    EXPECT_EQ(backend->checkAccess(read).stall, GetParam().commit || ptm_);

    // Thread 0 exits: its abort walks finish synchronously; a commit
    // walk keeps draining lazily.
    backend->drainThreadCleanups(0);
    if (GetParam().commit) {
        EXPECT_EQ(txmgr.stateOf(tx), TxState::Committing);
        backend->drainAllCleanups();
    }
    EXPECT_EQ(txmgr.stateOf(tx), doneState());
    EXPECT_EQ(records.starts, 1u);
    EXPECT_EQ(records.ends, 1u);
    EXPECT_FALSE(backend->anyOverflow());
    expectCommittedWords();

    eq.run(); // the parked start fires and must find nothing to do
    EXPECT_EQ(records.starts, 1u);
    EXPECT_EQ(records.ends, 1u);
    EXPECT_FALSE(backend->anyOverflow());
}

std::string
caseName(const ::testing::TestParamInfo<WalkCase> &info)
{
    std::string kind = info.param.kind == TmKind::CopyPtm     ? "CopyPtm"
                       : info.param.kind == TmKind::SelectPtm ? "SelPtm"
                                                              : "Vtm";
    return kind + (info.param.commit ? "Commit" : "Abort");
}

INSTANTIATE_TEST_SUITE_P(
    Backends, WalkContract,
    ::testing::Values(WalkCase{TmKind::CopyPtm, true},
                      WalkCase{TmKind::CopyPtm, false},
                      WalkCase{TmKind::SelectPtm, true},
                      WalkCase{TmKind::SelectPtm, false},
                      WalkCase{TmKind::Vtm, true},
                      WalkCase{TmKind::Vtm, false}),
    caseName);

} // namespace
} // namespace ptm
