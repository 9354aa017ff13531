/**
 * @file
 * Unit tests of the VTM baseline: the XF counting Bloom filter, XADT
 * bookkeeping, spec-data buffering and copy-back at commit, fast
 * aborts, LRU eviction from the XADC and the victim cache, and the
 * commit-stall behavior contrasted with VC-VTM.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "sim_test_util.hh"
#include "vtm/vtm.hh"

namespace ptm
{
namespace
{

using namespace ptm::test;

TEST(XFilter, NoFalseNegatives)
{
    XFilter xf(1024);
    for (Addr a = 0; a < 200; ++a)
        xf.insert(a * blockBytes);
    for (Addr a = 0; a < 200; ++a)
        EXPECT_TRUE(xf.maybePresent(a * blockBytes));
}

TEST(XFilter, RemoveClearsMembership)
{
    XFilter xf(1 << 16);
    Addr a = 0x12340;
    xf.insert(a);
    EXPECT_TRUE(xf.maybePresent(a));
    xf.remove(a);
    // With a large filter and a single element, the counters drop to
    // zero again.
    EXPECT_FALSE(xf.maybePresent(a));
}

TEST(XFilter, CountingSurvivesAliasedInserts)
{
    XFilter xf(1 << 16);
    Addr a = 0x40;
    xf.insert(a);
    xf.insert(a);
    xf.remove(a);
    EXPECT_TRUE(xf.maybePresent(a)) << "counting filter: one of two "
                                       "inserts removed";
    xf.remove(a);
    EXPECT_FALSE(xf.maybePresent(a));
}

/** Direct VtmController tests. */
class VtmUnit : public ::testing::Test
{
  protected:
    void
    build(TmKind kind)
    {
        params.tmKind = kind;
        dram = std::make_unique<DramModel>(200, 3, 60);
        vtm = std::make_unique<VtmController>(params, eq, phys, txmgr,
                                              *dram);
        txmgr.backendCommit = [this](TxId t) { vtm->commitTx(t); };
        txmgr.backendAbort = [this](TxId t) { vtm->abortTx(t); };
    }

    void
    evictDirty(TxId tx, Addr block, std::uint32_t seed)
    {
        std::uint8_t data[blockBytes];
        for (unsigned w = 0; w < wordsPerBlock; ++w) {
            std::uint32_t v = seed + w;
            std::memcpy(data + w * 4, &v, 4);
        }
        vtm->evictTxBlock(block, tx, true, data, 0, 0xffff);
    }

    SystemParams params;
    EventQueue eq;
    PhysMem phys;
    TxManager txmgr;
    std::unique_ptr<DramModel> dram;
    std::unique_ptr<VtmController> vtm;
};

TEST_F(VtmUnit, SpecDataBufferedUntilCommitCopyback)
{
    build(TmKind::Vtm);
    Addr block = 0x40000;
    phys.writeWord32(block, 11);
    TxId tx = txmgr.begin(0, 0, 0);
    evictDirty(tx, block, 9000);

    // VTM buffers the new value: memory keeps the committed one.
    EXPECT_EQ(phys.readWord32(block), 11u);
    EXPECT_TRUE(vtm->anyOverflow());

    // The writer re-reads its own spec version from the XADT and the
    // line must be re-marked speculative.
    std::uint8_t buf[blockBytes];
    std::uint16_t spec = 0;
    std::vector<TxMark> foreign;
    vtm->fillBlock(block, tx, buf, spec, foreign);
    std::uint32_t v;
    std::memcpy(&v, buf, 4);
    EXPECT_EQ(v, 9000u);
    EXPECT_EQ(spec, 0xffff);

    // The spec data moved back to the cache: deposit it again before
    // committing (as the eviction path would).
    evictDirty(tx, block, 9000);

    txmgr.requestCommit(tx);
    eq.run(); // drain the copy-back walk
    EXPECT_EQ(txmgr.stateOf(tx), TxState::Committed);
    EXPECT_EQ(phys.readWord32(block), 9000u) << "copied back at commit";
    EXPECT_GT(vtm->copybacks.value(), 0u);
    EXPECT_FALSE(vtm->anyOverflow());
}

TEST_F(VtmUnit, AbortDiscardsBufferedData)
{
    build(TmKind::Vtm);
    Addr block = 0x80000;
    phys.writeWord32(block, 5);
    TxId tx = txmgr.begin(0, 0, 0);
    evictDirty(tx, block, 1234);
    txmgr.abort(tx, AbortReason::Explicit);
    eq.run();
    EXPECT_EQ(phys.readWord32(block), 5u) << "fast abort: no copies";
    EXPECT_EQ(vtm->copybacks.value(), 0u);
    EXPECT_FALSE(vtm->anyOverflow());
}

TEST_F(VtmUnit, CommitStallUntilCopyback)
{
    build(TmKind::Vtm);
    Addr block = 0xc0000;
    TxId tx = txmgr.begin(0, 0, 0);
    TxId other = txmgr.begin(1, 0, 1);
    evictDirty(tx, block, 777);
    txmgr.requestCommit(tx);
    // Before the walk drains, another access to the block stalls.
    CheckResult r =
        vtm->checkAccess(BlockAccess{block, other, false, 0xffff});
    EXPECT_TRUE(r.stall);
    eq.run();
    r = vtm->checkAccess(BlockAccess{block, other, false, 0xffff});
    EXPECT_FALSE(r.stall);
    EXPECT_TRUE(r.conflicts.empty());
}

TEST_F(VtmUnit, ConflictDetectionThroughXadt)
{
    build(TmKind::Vtm);
    Addr block = 0x100000;
    TxId a = txmgr.begin(0, 0, 0);
    TxId b = txmgr.begin(1, 0, 1);
    std::uint8_t data[blockBytes] = {};
    // a overflows a read: b's write conflicts (WAR), b's read doesn't.
    vtm->evictTxBlock(block, a, false, data, 0xffff, 0);
    CheckResult r =
        vtm->checkAccess(BlockAccess{block, b, true, 0xffff});
    ASSERT_EQ(r.conflicts.size(), 1u);
    EXPECT_EQ(r.conflicts[0], a);
    r = vtm->checkAccess(BlockAccess{block, b, false, 0xffff});
    EXPECT_TRUE(r.conflicts.empty());
    EXPECT_FALSE(vtm->mayGrantExclusive(block, b));
}

TEST_F(VtmUnit, TinyXadcAndVictimCacheEvictLeastRecentlyUsed)
{
    params.xadcEntries = 2;
    params.victimCacheEntries = 2;
    build(TmKind::VcVtm);
    const Addr a = 0x200000, b = 0x240000, c = 0x280000;
    TxId tx = txmgr.begin(0, 0, 0);
    evictDirty(tx, a, 100);
    evictDirty(tx, b, 200);
    evictDirty(tx, a, 300); // a becomes most recent in both caches
    EXPECT_EQ(vtm->victimWritebacks.value(), 0u);
    evictDirty(tx, c, 400); // evicts b, the LRU, from both caches
    EXPECT_EQ(vtm->xadcHits.value(), 1u);
    EXPECT_EQ(vtm->xadcMisses.value(), 3u);
    EXPECT_EQ(vtm->victimWritebacks.value(), 1u);

    // The XADC holds {c, a}: a hits; b misses and evicts c, so c
    // misses too.
    auto probe = [&](Addr blk) {
        vtm->checkAccess(BlockAccess{blk, tx, false, 0xffff});
    };
    probe(a);
    EXPECT_EQ(vtm->xadcHits.value(), 2u);
    EXPECT_EQ(vtm->xadcMisses.value(), 3u);
    probe(b);
    probe(c);
    EXPECT_EQ(vtm->xadcHits.value(), 2u);
    EXPECT_EQ(vtm->xadcMisses.value(), 5u);

    // The victim cache holds {c, a}: those two commit instantly and b
    // alone is copied back by the walk.
    txmgr.requestCommit(tx);
    eq.run();
    EXPECT_EQ(txmgr.stateOf(tx), TxState::Committed);
    EXPECT_EQ(vtm->victimHits.value(), 2u);
    EXPECT_EQ(vtm->copybacks.value(), 1u);
    EXPECT_EQ(vtm->victimWritebacks.value(), 1u);
    EXPECT_EQ(phys.readWord32(a), 300u);
    EXPECT_EQ(phys.readWord32(b), 200u);
    EXPECT_EQ(phys.readWord32(c), 400u);
}

TEST(VtmIntegration, VictimCacheReducesCommitStalls)
{
    // Two runs of an overflow-then-reread pattern: VC-VTM must beat
    // base VTM because committed blocks are served from the victim
    // cache instead of stalling on copy-backs.
    auto run = [](TmKind kind) {
        System sys(tinyCacheParams(kind));
        ProcId p = sys.createProcess();
        constexpr Addr base = 0x100000;
        constexpr unsigned kBlocks = 150;
        std::vector<Step> steps;
        for (unsigned round = 0; round < 4; ++round) {
            steps.push_back(tx([round](MemCtx m) -> TxCoro {
                for (unsigned b = 0; b < kBlocks; ++b)
                    co_await m.store(base + Addr(b) * blockBytes,
                                     round * 1000 + b);
            }));
            // Immediately re-read everything non-transactionally:
            // base VTM stalls on not-yet-copied blocks.
            steps.push_back(plain([](MemCtx m) -> TxCoro {
                for (unsigned b = 0; b < kBlocks; ++b)
                    co_await m.load(base + Addr(b) * blockBytes);
            }));
        }
        sys.addThread(p, std::move(steps));
        sys.run();
        StatSnapshot s = sys.snapshot();
        bool ok = true;
        for (unsigned b = 0; b < kBlocks; ++b)
            ok = ok && sys.readWord32(p, base + Addr(b) * blockBytes) ==
                           3000 + b;
        EXPECT_TRUE(ok);
        return s;
    };
    StatSnapshot vtm = run(TmKind::Vtm);
    StatSnapshot vc = run(TmKind::VcVtm);
    EXPECT_GT(vc.counter("vtm.victim_hits"), 0u);
    EXPECT_LT(vc.value("sys.cycles"), vtm.value("sys.cycles"))
        << "the victim cache must hide commit copy-back latency";
}

} // namespace
} // namespace ptm
