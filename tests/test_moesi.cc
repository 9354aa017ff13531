/**
 * @file
 * Direct MOESI protocol tests: the MemSystem is driven with raw
 * accesses (no cores) and the line states, data movement, cache-to-
 * cache transfers and write-backs are checked transition by
 * transition.
 */

#include <gtest/gtest.h>

#include "mem/frame_alloc.hh"
#include "mem/mem_system.hh"
#include "sim_test_util.hh"

namespace ptm
{
namespace
{

/** Harness: drive MemSystem::request synchronously via eq.run(). */
class MoesiTest : public ::testing::Test
{
  protected:
    explicit MoesiTest(unsigned cores = 4)
        : params(makeParams(cores)), mem(params, eq, phys, txmgr)
    {
        // Wire the flash commit/abort hooks exactly as System does.
        txmgr.onLogicalCommit = [this](TxId t) {
            mem.commitClearTx(t);
        };
        txmgr.onLogicalAbort = [this](TxId t) {
            mem.abortInvalidate(t);
        };
    }

    static SystemParams
    makeParams(unsigned cores)
    {
        SystemParams p;
        p.numCores = cores;
        return p;
    }

    /** Issue an access and run events to completion. */
    AccessResult
    go(CoreId core, bool write, Addr paddr, std::uint32_t val = 0,
       TxId tx = invalidTxId)
    {
        Access a;
        a.core = core;
        a.tx = tx;
        a.isWrite = write;
        a.paddr = paddr;
        a.storeValue = val;
        if (auto hit = mem.trySync(a, eq.curTick()))
            return hit->second;
        AccessResult out;
        bool done = false;
        mem.request(a, [&](Tick, AccessResult r) {
            out = r;
            done = true;
        });
        eq.run();
        EXPECT_TRUE(done);
        return out;
    }

    Moesi
    stateOf(CoreId c, Addr paddr)
    {
        CacheLine *l = mem.l2(c).find(blockAlign(paddr));
        return l ? l->state : Moesi::I;
    }

    SystemParams params;
    EventQueue eq;
    PhysMem phys;
    TxManager txmgr;
    MemSystem mem;
};

constexpr Addr A = 0x10000;

TEST_F(MoesiTest, ColdReadTakesExclusive)
{
    phys.writeWord32(A, 77);
    EXPECT_EQ(go(0, false, A).value, 77u);
    EXPECT_EQ(stateOf(0, A), Moesi::E);
}

TEST_F(MoesiTest, SecondReaderDegradesToShared)
{
    go(0, false, A);
    go(1, false, A);
    EXPECT_EQ(stateOf(0, A), Moesi::S);
    EXPECT_EQ(stateOf(1, A), Moesi::S);
}

TEST_F(MoesiTest, SilentUpgradeFromExclusive)
{
    go(0, false, A);
    ASSERT_EQ(stateOf(0, A), Moesi::E);
    std::uint64_t bus_before = mem.bus().transactions();
    EXPECT_EQ(go(0, true, A, 123).value, 123u);
    EXPECT_EQ(stateOf(0, A), Moesi::M);
    EXPECT_EQ(mem.bus().transactions(), bus_before)
        << "E->M must be a silent transition";
}

TEST_F(MoesiTest, DirtyOwnerSuppliesAndKeepsOwnership)
{
    go(0, true, A, 99);
    ASSERT_EQ(stateOf(0, A), Moesi::M);
    std::uint64_t dram_before = mem.dram().accesses();
    EXPECT_EQ(go(1, false, A).value, 99u)
        << "reader must see the dirty value";
    EXPECT_EQ(stateOf(0, A), Moesi::O) << "owner keeps the dirty line";
    EXPECT_EQ(stateOf(1, A), Moesi::S);
    EXPECT_EQ(mem.dram().accesses(), dram_before)
        << "cache-to-cache transfer, no memory fetch";
}

TEST_F(MoesiTest, WriteInvalidatesAllOtherCopies)
{
    go(0, false, A);
    go(1, false, A);
    go(2, false, A);
    go(3, true, A, 5);
    EXPECT_EQ(stateOf(0, A), Moesi::I);
    EXPECT_EQ(stateOf(1, A), Moesi::I);
    EXPECT_EQ(stateOf(2, A), Moesi::I);
    EXPECT_EQ(stateOf(3, A), Moesi::M);
    EXPECT_EQ(go(1, false, A).value, 5u);
}

TEST_F(MoesiTest, UpgradeFromSharedInvalidatesPeers)
{
    go(0, true, A, 7); // M at core 0
    go(1, false, A);   // core0 -> O, core1 S
    go(1, true, A, 8); // upgrade: core0 invalidated
    EXPECT_EQ(stateOf(0, A), Moesi::I);
    EXPECT_EQ(stateOf(1, A), Moesi::M);
    EXPECT_EQ(go(2, false, A).value, 8u);
}

TEST_F(MoesiTest, EvictionWritesBackDirtyData)
{
    // Fill one set of the 4-way L2 with 5 conflicting dirty blocks:
    // the first gets evicted and its data must survive in memory.
    Addr stride = Addr(mem.l2(0).numSets()) * blockBytes;
    for (unsigned i = 0; i < 5; ++i)
        go(0, true, A + i * stride, 1000 + i);
    EXPECT_EQ(mem.l2(0).find(blockAlign(A)), nullptr)
        << "LRU eviction of the first block";
    EXPECT_EQ(phys.readWord32(A), 1000u);
    EXPECT_EQ(go(1, false, A).value, 1000u);
}

TEST_F(MoesiTest, L1BackInvalidationKeepsInclusion)
{
    go(0, false, A);
    EXPECT_NE(mem.l1(0).find(blockAlign(A)), nullptr);
    go(1, true, A, 3);
    EXPECT_EQ(mem.l1(0).find(blockAlign(A)), nullptr)
        << "snoop invalidation must reach the L1 filter";
}

TEST_F(MoesiTest, L1DowngradeOnRemoteRead)
{
    go(0, true, A, 9); // M, L1 writable
    ASSERT_TRUE(mem.l1(0).find(blockAlign(A))->writable);
    go(1, false, A); // M -> O
    L1Filter::Entry *e = mem.l1(0).find(blockAlign(A));
    ASSERT_NE(e, nullptr);
    EXPECT_FALSE(e->writable)
        << "O state must not permit silent stores";
}

TEST_F(MoesiTest, CasComparesAndSwapsAtomically)
{
    phys.writeWord32(A, 10);
    Access a;
    a.core = 0;
    a.isCas = true;
    a.paddr = A;
    a.casExpected = 10;
    a.storeValue = 20;
    AccessResult r;
    bool done = false;
    mem.request(a, [&](Tick, AccessResult res) {
        r = res;
        done = true;
    });
    eq.run();
    ASSERT_TRUE(done);
    EXPECT_EQ(r.value, 10u) << "CAS returns the observed value";
    EXPECT_EQ(go(1, false, A).value, 20u);

    // Failing CAS leaves memory untouched.
    a.casExpected = 999;
    a.storeValue = 30;
    a.core = 2;
    done = false;
    mem.request(a, [&](Tick, AccessResult res) {
        r = res;
        done = true;
    });
    eq.run();
    EXPECT_EQ(r.value, 20u);
    EXPECT_EQ(go(3, false, A).value, 20u);
}

TEST_F(MoesiTest, TransactionalMarksSetOnAccess)
{
    TxId t = txmgr.begin(0, 0, 0);
    go(0, false, A, 0, t);
    CacheLine *l = mem.l2(0).find(blockAlign(A));
    ASSERT_NE(l, nullptr);
    ASSERT_NE(l->findMark(t), nullptr);
    EXPECT_NE(l->findMark(t)->readWords, 0);
    EXPECT_EQ(l->findMark(t)->writeWords, 0);
    go(0, true, A, 1, t);
    EXPECT_NE(l->findMark(t)->writeWords, 0);
}

TEST_F(MoesiTest, ConflictAbortsYoungerTransaction)
{
    TxId older = txmgr.begin(0, 0, 0);
    TxId younger = txmgr.begin(1, 0, 1);
    go(0, true, A, 1, older);
    AccessResult r = go(1, true, A, 2, younger);
    EXPECT_TRUE(r.txAborted);
    EXPECT_EQ(txmgr.stateOf(younger), TxState::Aborted);
    EXPECT_TRUE(txmgr.isLive(older));
}

TEST_F(MoesiTest, OlderRequesterWinsConflict)
{
    TxId older = txmgr.begin(0, 0, 0);
    TxId younger = txmgr.begin(1, 0, 1);
    go(1, true, A, 2, younger);
    AccessResult r = go(0, true, A, 1, older);
    EXPECT_FALSE(r.txAborted);
    EXPECT_EQ(txmgr.stateOf(younger), TxState::Aborted);
    // After the winner commits, its value is the committed one.
    EXPECT_EQ(txmgr.requestCommit(older), CommitResult::Done);
    eq.run();
    EXPECT_EQ(go(2, false, A).value, 1u);
}

/** The same harness on a 16-core machine. */
class MoesiWideTest : public MoesiTest
{
  protected:
    MoesiWideTest() : MoesiTest(16) {}
};

// Debug reads probe only the directory's sharer cores, in ascending
// order: the first copy found wins unless a later copy is dirty. The
// copies' data is overwritten behind the protocol's back so that each
// rule picks a value no other rule would.
TEST_F(MoesiWideTest, DebugReadFollowsSharerBits)
{
    phys.writeWord32(A, 5);
    go(14, true, A, 99);
    ASSERT_EQ(stateOf(14, A), Moesi::M);
    EXPECT_EQ(mem.debugReadWord32(A), 99u)
        << "the only copy sits on a high core";

    go(3, false, A);
    ASSERT_EQ(stateOf(3, A), Moesi::S);
    ASSERT_EQ(stateOf(14, A), Moesi::O);
    mem.l2(3).find(A)->writeWord32(0, 7);
    EXPECT_EQ(mem.debugReadWord32(A), 99u)
        << "a later dirty copy replaces the first clean one";

    constexpr Addr B = A + 0x1000;
    phys.writeWord32(B, 6);
    go(5, false, B);
    go(12, false, B);
    ASSERT_EQ(stateOf(5, B), Moesi::S);
    ASSERT_EQ(stateOf(12, B), Moesi::S);
    mem.l2(12).find(B)->writeWord32(0, 8);
    EXPECT_EQ(mem.debugReadWord32(B), 6u)
        << "among clean copies the lowest core wins";
}

// The sharer directory is an array indexed by physical block number:
// a lookup past its end reads as no sharers and grows nothing.
TEST_F(MoesiTest, UntrackedBlockHasNoSharersAndGrowsNothing)
{
    go(1, false, A);
    EXPECT_EQ(mem.dirSharers(A), std::uint64_t(1) << 1);
    const std::size_t blocks = mem.dirBlocks();
    EXPECT_EQ(blocks, std::size_t(A >> blockShift) + 1);
    EXPECT_EQ(mem.dirSharers(A + blockBytes), 0u);
    EXPECT_EQ(mem.dirSharers(pageBase(1u << 20)), 0u);
    EXPECT_EQ(mem.debugReadWord32(pageBase(1u << 20)), 0u);
    EXPECT_EQ(mem.dirBlocks(), blocks);
}

/** The same harness on the widest machine the 64-bit masks allow. */
class Moesi64Test : public MoesiTest
{
  protected:
    Moesi64Test() : MoesiTest(64) {}
};

TEST_F(Moesi64Test, TopCoreSharerBitOnHighestFrame)
{
    FrameAllocator frames(64);
    PageNum top = 0;
    while (frames.available())
        top = frames.alloc();
    ASSERT_EQ(top, 63u);
    const Addr a = pageBase(top) + pageBytes - blockBytes;
    phys.writeWord32(a, 9);
    EXPECT_EQ(go(63, false, a).value, 9u);
    EXPECT_EQ(mem.dirSharers(a), std::uint64_t(1) << 63);
    EXPECT_EQ(mem.dirBlocks(), std::size_t(a >> blockShift) + 1);
    go(0, true, a, 10); // invalidates core 63's copy
    EXPECT_EQ(stateOf(63, a), Moesi::I);
    EXPECT_EQ(mem.dirSharers(a), std::uint64_t(1))
        << "core 63's bit clears at the invalidation";
    EXPECT_EQ(go(63, false, a).value, 10u);
    EXPECT_EQ(mem.dirSharers(a), (std::uint64_t(1) << 63) | 1u);
}

} // namespace
} // namespace ptm
