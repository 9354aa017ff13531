/**
 * @file
 * Unit tests of the PTM structures driven directly against the VTS:
 * page-granularity mapping, shadow-page allocation and data placement
 * for both versioning policies, selection-vector toggling at commit,
 * Copy-PTM abort restores, conflict checks and stalls, exclusive-grant
 * refusal, paging through the Swap Index Table, and the shadow freeing
 * policies.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <unordered_set>

#include "mem/frame_alloc.hh"
#include "mem/phys_mem.hh"
#include "mem/timing.hh"
#include "ptm/granularity.hh"
#include "ptm/vts.hh"
#include "sim/event_queue.hh"
#include "tx/tx_manager.hh"

namespace ptm
{
namespace
{

TEST(PageGran, BlockModeMapsBlocks)
{
    PageGran g(false);
    EXPECT_EQ(g.bitsPerPage(), 64u);
    std::vector<unsigned> bits;
    g.forBits(pageBase(5) + 3 * blockBytes, 0x0011,
              [&](unsigned b) { bits.push_back(b); });
    EXPECT_EQ(bits, (std::vector<unsigned>{3}));
    EXPECT_EQ(g.wordBit(pageBase(5) + 3 * blockBytes + 8), 3u);
    EXPECT_EQ(g.unitBytes(), blockBytes);

    // blockWords repeats the block's one bit over its 16 words.
    BitVec v = g.makeVec();
    v.set(63);
    EXPECT_EQ(g.blockWords(v, pageBase(5) + 63 * blockBytes), 0xffffu);
    EXPECT_EQ(g.blockWords(v, pageBase(5) + 62 * blockBytes), 0u);
    EXPECT_TRUE(g.anySet(v, pageBase(5) + 63 * blockBytes, 0x0001));
}

TEST(PageGran, WordModeMapsWords)
{
    PageGran g(true);
    EXPECT_EQ(g.bitsPerPage(), 1024u);
    std::vector<unsigned> bits;
    g.forBits(pageBase(5) + 3 * blockBytes, 0x0011,
              [&](unsigned b) { bits.push_back(b); });
    EXPECT_EQ(bits, (std::vector<unsigned>{48, 52}));
    EXPECT_EQ(g.wordBit(pageBase(5) + 3 * blockBytes + 8), 50u);
    EXPECT_EQ(g.unitBytes(), wordBytes);

    // blockWords returns the block's own 16 bits; a page's last block
    // is the top 16 bits of the vector's last 64-bit word.
    const Addr last = pageBase(5) + 63 * blockBytes;
    BitVec v = g.makeVec();
    v.set(63 * 16 + 0);
    v.set(63 * 16 + 15);
    v.set(3 * 16 + 4);
    EXPECT_EQ(g.blockWords(v, last), 0x8001u);
    EXPECT_EQ(g.blockWords(v, pageBase(5) + 3 * blockBytes), 0x0010u);
    EXPECT_EQ(g.blockWords(v, pageBase(5) + 2 * blockBytes), 0u);
    EXPECT_TRUE(g.anySet(v, last, 0x8000));
    EXPECT_FALSE(g.anySet(v, last, 0x7ffe));
}

TEST(BitVec, Bits16ReadsAlignedGroups)
{
    BitVec v(128);
    v.set(48);
    v.set(63); // the top 16 bits of the first 64-bit word
    v.set(64);
    v.set(70);
    EXPECT_EQ(v.bits16(0), 0u);
    EXPECT_EQ(v.bits16(48), 0x8001u);
    EXPECT_EQ(v.bits16(64), 0x0041u);
    EXPECT_EQ(v.bits16(112), 0u);
}

// Regression for the old (home << 22) ^ tx TAV-cache key: it aliased
// distinct (page, tx) pairs once tx ids crossed 22 bits — e.g.
// (home=1, tx=0) and (home=0, tx=1<<22) collided — silently merging
// unrelated cache entries. The mixed key must keep every pair of a
// realistic id grid distinct.
TEST(Vts, TavKeyNoCollisions)
{
    // Pairs the old fold mapped to the same key.
    EXPECT_EQ((PageNum(1) << 22) ^ TxId(0),
              (PageNum(0) << 22) ^ (TxId(1) << 22));
    EXPECT_NE(Vts::tavKey(1, 0), Vts::tavKey(0, TxId(1) << 22));
    EXPECT_NE(Vts::tavKey(3, 5), Vts::tavKey(5, 3));

    std::unordered_set<std::uint64_t> keys;
    std::vector<PageNum> homes;
    std::vector<TxId> txs;
    // Dense low ranges plus sparse high ids (beyond 22 bits).
    for (std::uint64_t i = 0; i < 64; ++i) {
        homes.push_back(i);
        txs.push_back(i);
    }
    for (std::uint64_t i = 1; i <= 64; ++i) {
        homes.push_back(i * 0x3fffffull);  // spread across 22+ bits
        txs.push_back(i << 22);            // old-key alias candidates
        txs.push_back((i << 22) + 1);
    }
    for (PageNum h : homes)
        for (TxId t : txs)
            keys.insert(Vts::tavKey(h, t));
    EXPECT_EQ(keys.size(), homes.size() * txs.size());
}

/** Fixture wiring a VTS to its dependencies. */
class VtsTest : public ::testing::Test
{
  protected:
    explicit VtsTest() {}

    void
    build(TmKind kind,
          Granularity gran = Granularity::Block,
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
    }

    /** Evict a dirty speculative block of @p tx with given data. */
    void
    evictDirty(TxId tx, unsigned blk, std::uint32_t seed,
               std::uint16_t write_words = 0xffff)
    {
        std::uint8_t data[blockBytes];
        for (unsigned w = 0; w < wordsPerBlock; ++w) {
            std::uint32_t v = seed + w;
            std::memcpy(data + w * 4, &v, 4);
        }
        vts->evictTxBlock(blockAddr(blk), tx, true, data, 0,
                          write_words);
    }

    Addr
    blockAddr(unsigned blk) const
    {
        return pageBase(home) + Addr(blk) * blockBytes;
    }

    SystemParams params;
    EventQueue eq;
    PhysMem phys;
    TxManager txmgr;
    std::unique_ptr<FrameAllocator> frames;
    std::unique_ptr<DramModel> dram;
    std::unique_ptr<Vts> vts;
    PageNum home = 0;
};

TEST_F(VtsTest, SelectEvictionAllocatesShadowAndStoresSpecData)
{
    build(TmKind::SelectPtm);
    phys.writeWord32(blockAddr(2), 111); // committed value

    TxId tx = txmgr.begin(0, 0, 0);
    evictDirty(tx, 2, 5000);

    const SptEntry *e = vts->sptEntry(home);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->hasShadow());
    EXPECT_TRUE(e->writeSummary.test(2));
    ASSERT_NE(e->findTav(tx), nullptr);
    EXPECT_TRUE(e->findTav(tx)->write.test(2));
    EXPECT_TRUE(vts->anyOverflow());

    // Committed value still reads from the home page.
    EXPECT_EQ(vts->readCommittedWord32(blockAddr(2)), 111u);
    // Speculative data went to the shadow page (selection bit clear).
    EXPECT_EQ(phys.readWord32(pageBase(e->shadow) + 2 * blockBytes),
              5000u);
}

TEST_F(VtsTest, SelectFillComposesSpecForWriterOnly)
{
    build(TmKind::SelectPtm);
    phys.writeWord32(blockAddr(1), 42);
    TxId writer = txmgr.begin(0, 0, 0);
    TxId other = txmgr.begin(1, 0, 1);
    evictDirty(writer, 1, 9000);

    std::uint8_t buf[blockBytes];
    std::uint16_t spec = 0;
    std::vector<TxMark> foreign;
    vts->fillBlock(blockAddr(1), writer, buf, spec, foreign);
    std::uint32_t v;
    std::memcpy(&v, buf, 4);
    EXPECT_EQ(v, 9000u);
    EXPECT_EQ(spec, 0xffff) << "writer's fill must be re-marked";

    // In block mode a non-writer's fill composes the committed
    // version (a real run would have resolved the whole-block
    // conflict before the fill).
    foreign.clear();
    vts->fillBlock(blockAddr(1), other, buf, spec, foreign);
    std::memcpy(&v, buf, 4);
    EXPECT_EQ(v, 42u);
    EXPECT_EQ(spec, 0u);
    EXPECT_TRUE(foreign.empty());
    (void)other;
}

TEST_F(VtsTest, WordModeFillCarriesForeignSpecMarks)
{
    // Word-granularity sharing lets a non-writer legitimately fill a
    // block containing another live transaction's overflowed words:
    // the paper's XOR rule fetches the speculative location and the
    // line must carry the writer's mark.
    build(TmKind::SelectPtm, Granularity::WordCacheMem);
    phys.writeWord32(blockAddr(1), 42);
    TxId writer = txmgr.begin(0, 0, 0);
    TxId other = txmgr.begin(1, 0, 1);
    std::uint8_t data[blockBytes] = {};
    std::uint32_t sv = 9000;
    std::memcpy(data, &sv, 4);
    vts->evictTxBlock(blockAddr(1), writer, true, data, 0, 0x0001);

    std::uint8_t buf[blockBytes];
    std::uint16_t spec = 0;
    std::vector<TxMark> foreign;
    vts->fillBlock(blockAddr(1), other, buf, spec, foreign);
    std::uint32_t v;
    std::memcpy(&v, buf, 4);
    EXPECT_EQ(v, 9000u) << "XOR rule: speculative location";
    EXPECT_EQ(spec, 0u);
    ASSERT_EQ(foreign.size(), 1u);
    EXPECT_EQ(foreign[0].tx, writer);
    EXPECT_EQ(foreign[0].writeWords, 0x0001);
}

TEST_F(VtsTest, SelectCommitTogglesSelectionNoCopies)
{
    build(TmKind::SelectPtm);
    phys.writeWord32(blockAddr(3), 7);
    TxId tx = txmgr.begin(0, 0, 0);
    evictDirty(tx, 3, 1234);

    EXPECT_EQ(txmgr.requestCommit(tx), CommitResult::Done);
    EXPECT_EQ(txmgr.stateOf(tx), TxState::Committing);
    eq.run(); // drain the supervisor walk
    EXPECT_EQ(txmgr.stateOf(tx), TxState::Committed);

    const SptEntry *e = vts->sptEntry(home);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->selection.test(3)) << "committed unit now in shadow";
    EXPECT_EQ(vts->readCommittedWord32(blockAddr(3)), 1234u);
    // The home page still holds the stale value: no copy happened.
    EXPECT_EQ(phys.readWord32(blockAddr(3)), 7u);
    EXPECT_EQ(e->tavHead, nullptr);
    EXPECT_FALSE(vts->anyOverflow());
    // Shadow stays allocated (selection non-empty, MergeOnSwap).
    EXPECT_TRUE(e->hasShadow());
}

TEST_F(VtsTest, SelectAbortIsFree)
{
    build(TmKind::SelectPtm);
    phys.writeWord32(blockAddr(4), 77);
    TxId tx = txmgr.begin(0, 0, 0);
    evictDirty(tx, 4, 5555);
    txmgr.abort(tx, AbortReason::Explicit);
    eq.run();
    EXPECT_EQ(txmgr.stateOf(tx), TxState::Aborted);
    const SptEntry *e = vts->sptEntry(home);
    EXPECT_FALSE(e->selection.test(4));
    EXPECT_EQ(vts->readCommittedWord32(blockAddr(4)), 77u);
    // Shadow page freed: no committed units live there.
    EXPECT_FALSE(e->hasShadow());
    EXPECT_EQ(vts->liveShadowPages(), 0u);
}

TEST_F(VtsTest, CopyPtmBacksUpThenRestoresOnAbort)
{
    build(TmKind::CopyPtm);
    phys.writeWord32(blockAddr(5), 321);
    TxId tx = txmgr.begin(0, 0, 0);
    evictDirty(tx, 5, 8800);

    const SptEntry *e = vts->sptEntry(home);
    ASSERT_TRUE(e->hasShadow());
    // Copy-PTM: speculative data lands in the HOME page; the old
    // committed block was copied to the shadow.
    EXPECT_EQ(phys.readWord32(blockAddr(5)), 8800u);
    EXPECT_EQ(phys.readWord32(pageBase(e->shadow) + 5 * blockBytes),
              321u);
    EXPECT_EQ(vts->copyBackups.value(), 1u);

    txmgr.abort(tx, AbortReason::Explicit);
    eq.run();
    // Abort restored the home page from the shadow.
    EXPECT_EQ(phys.readWord32(blockAddr(5)), 321u);
    EXPECT_GT(vts->abortRestoreUnits.value(), 0u);
    EXPECT_FALSE(vts->sptEntry(home)->hasShadow()) << "shadow freed";
}

TEST_F(VtsTest, CopyPtmCommitLeavesDataInPlace)
{
    build(TmKind::CopyPtm);
    phys.writeWord32(blockAddr(6), 1);
    TxId tx = txmgr.begin(0, 0, 0);
    evictDirty(tx, 6, 4242);
    EXPECT_EQ(txmgr.requestCommit(tx), CommitResult::Done);
    eq.run();
    EXPECT_EQ(phys.readWord32(blockAddr(6)), 4242u);
    EXPECT_EQ(vts->readCommittedWord32(blockAddr(6)), 4242u);
    EXPECT_FALSE(vts->sptEntry(home)->hasShadow());
}

TEST_F(VtsTest, CheckAccessConflictsAndStalls)
{
    build(TmKind::SelectPtm);
    TxId a = txmgr.begin(0, 0, 0);
    TxId b = txmgr.begin(1, 0, 1);
    evictDirty(a, 7, 100);

    // b writing the same block conflicts with a.
    CheckResult r =
        vts->checkAccess(BlockAccess{blockAddr(7), b, true, 0xffff});
    ASSERT_EQ(r.conflicts.size(), 1u);
    EXPECT_EQ(r.conflicts[0], a);
    EXPECT_FALSE(r.stall);

    // A different block of the same page: no conflict.
    r = vts->checkAccess(BlockAccess{blockAddr(9), b, true, 0xffff});
    EXPECT_TRUE(r.conflicts.empty());

    // While a is committing (cleanup pending), the access stalls.
    txmgr.requestCommit(a);
    r = vts->checkAccess(BlockAccess{blockAddr(7), b, true, 0xffff});
    EXPECT_TRUE(r.stall);
    eq.run();
    // After cleanup, no stall and no conflict.
    r = vts->checkAccess(BlockAccess{blockAddr(7), b, true, 0xffff});
    EXPECT_FALSE(r.stall);
    EXPECT_TRUE(r.conflicts.empty());
}

TEST_F(VtsTest, ReadOverflowBlocksExclusiveGrant)
{
    build(TmKind::SelectPtm);
    TxId a = txmgr.begin(0, 0, 0);
    TxId b = txmgr.begin(1, 0, 1);
    std::uint8_t data[blockBytes] = {};
    // a overflows a clean READ of block 8.
    vts->evictTxBlock(blockAddr(8), a, false, data, 0xffff, 0);

    EXPECT_FALSE(vts->mayGrantExclusive(blockAddr(8), b))
        << "section 4.4.1: no E grant on overflow-read blocks";
    EXPECT_TRUE(vts->mayGrantExclusive(blockAddr(8), a))
        << "the overflowing transaction itself may take E";
    EXPECT_TRUE(vts->mayGrantExclusive(blockAddr(10), b));
}

TEST_F(VtsTest, MergeOnSwapMigratesThroughSit)
{
    build(TmKind::SelectPtm, Granularity::Block,
          ShadowFreePolicy::MergeOnSwap);
    phys.writeWord32(blockAddr(11), 5);
    TxId tx = txmgr.begin(0, 0, 0);
    evictDirty(tx, 11, 6600);
    txmgr.requestCommit(tx);
    eq.run();
    ASSERT_TRUE(vts->sptEntry(home)->hasShadow());
    ASSERT_TRUE(vts->swappable(home));

    // Swap out: the shadow's committed block merges into the home
    // frame and the SIT records a shadow-less entry.
    vts->pageSwapOut(home, /*slot=*/99);
    EXPECT_EQ(vts->sptEntry(home), nullptr);
    EXPECT_EQ(phys.readWord32(blockAddr(11)), 6600u)
        << "committed data merged into the home frame";
    EXPECT_EQ(vts->liveShadowPages(), 0u);

    // Swap back in at a new frame: SPT entry restored, no shadow,
    // selection cleared.
    PageNum new_home = frames->alloc();
    vts->pageSwapIn(99, new_home);
    const SptEntry *e = vts->sptEntry(new_home);
    ASSERT_NE(e, nullptr);
    EXPECT_FALSE(e->hasShadow());
    EXPECT_TRUE(e->selection.none());
}

TEST_F(VtsTest, LazyMigrateSwapsShadowWithHome)
{
    build(TmKind::SelectPtm, Granularity::Block,
          ShadowFreePolicy::LazyMigrate);
    phys.writeWord32(blockAddr(12), 5);
    TxId tx = txmgr.begin(0, 0, 0);
    evictDirty(tx, 12, 7700);
    txmgr.requestCommit(tx);
    eq.run();
    ASSERT_TRUE(vts->sptEntry(home)->hasShadow());

    // Under LazyMigrate the shadow swaps out alongside the home page
    // and returns with it.
    vts->pageSwapOut(home, 7);
    EXPECT_EQ(vts->liveShadowPages(), 0u);
    PageNum new_home = frames->alloc();
    vts->pageSwapIn(7, new_home);
    const SptEntry *e = vts->sptEntry(new_home);
    ASSERT_NE(e, nullptr);
    ASSERT_TRUE(e->hasShadow());
    EXPECT_TRUE(e->selection.test(12));
    EXPECT_EQ(phys.readWord32(pageBase(e->shadow) + 12 * blockBytes),
              7700u);
}

TEST_F(VtsTest, LazyMigrationDrainsSelectionAndFreesShadow)
{
    build(TmKind::SelectPtm, Granularity::Block,
          ShadowFreePolicy::LazyMigrate);
    TxId tx = txmgr.begin(0, 0, 0);
    evictDirty(tx, 13, 3100);
    txmgr.requestCommit(tx);
    eq.run();
    ASSERT_TRUE(vts->sptEntry(home)->selection.test(13));

    // A non-speculative writeback of the block is forced to the home
    // page, toggling the selection bit and freeing the shadow. The
    // block's one selection bit covers all 16 words: every word goes
    // home and the migration counts once.
    std::uint8_t data[blockBytes];
    for (unsigned w = 0; w < wordsPerBlock; ++w) {
        std::uint32_t v = 4000 + w;
        std::memcpy(data + w * 4, &v, 4);
    }
    vts->writebackBlock(blockAddr(13), data, 0xffff);
    const SptEntry *e = vts->sptEntry(home);
    EXPECT_FALSE(e->selection.test(13));
    for (unsigned w = 0; w < wordsPerBlock; ++w)
        EXPECT_EQ(phys.readWord32(blockAddr(13) + w * 4), 4000u + w)
            << "word " << w;
    EXPECT_FALSE(e->hasShadow());
    EXPECT_EQ(vts->lazyMigrations.value(), 1u);
}

TEST_F(VtsTest, WordGranularityVectorsPerWord)
{
    build(TmKind::SelectPtm, Granularity::WordCacheMem);
    phys.writeWord32(blockAddr(1) + 0, 10);
    phys.writeWord32(blockAddr(1) + 4, 11);
    TxId tx = txmgr.begin(0, 0, 0);
    // Speculatively write only word 1 of block 1.
    std::uint8_t data[blockBytes] = {};
    std::uint32_t v = 999;
    std::memcpy(data + 4, &v, 4);
    vts->evictTxBlock(blockAddr(1), tx, true, data, 0, 0x0002);

    const SptEntry *e = vts->sptEntry(home);
    EXPECT_TRUE(e->writeSummary.test(16 + 1));
    EXPECT_FALSE(e->writeSummary.test(16 + 0));

    txmgr.requestCommit(tx);
    eq.run();
    // Word 1 committed in shadow; word 0 untouched in home.
    EXPECT_EQ(vts->readCommittedWord32(blockAddr(1) + 4), 999u);
    EXPECT_EQ(vts->readCommittedWord32(blockAddr(1) + 0), 10u);
}

// While a commit's walk has not reached the page, the committed copy
// of a written unit is already the one the walk will select: a fill
// reads it and a writeback updates it there.
TEST_F(VtsTest, CommittingWriterMovesCommittedLocation)
{
    build(TmKind::SelectPtm);
    phys.writeWord32(blockAddr(3), 7);
    TxId tx = txmgr.begin(0, 0, 0);
    evictDirty(tx, 3, 1234);
    ASSERT_EQ(txmgr.requestCommit(tx), CommitResult::Done);
    ASSERT_EQ(txmgr.stateOf(tx), TxState::Committing);
    const SptEntry *e = vts->sptEntry(home);
    ASSERT_FALSE(e->selection.test(3)) << "walk still pending";

    std::uint8_t buf[blockBytes];
    std::uint16_t spec = 0;
    std::vector<TxMark> foreign;
    vts->fillBlock(blockAddr(3), invalidTxId, buf, spec, foreign);
    for (unsigned w = 0; w < wordsPerBlock; ++w) {
        std::uint32_t v;
        std::memcpy(&v, buf + w * 4, 4);
        EXPECT_EQ(v, 1234u + w) << "word " << w;
    }
    EXPECT_EQ(spec, 0u);
    EXPECT_EQ(vts->readCommittedWord32(blockAddr(3) + 8), 1236u);

    std::uint8_t data[blockBytes];
    for (unsigned w = 0; w < wordsPerBlock; ++w) {
        std::uint32_t v = 500 + w;
        std::memcpy(data + w * 4, &v, 4);
    }
    vts->writebackBlock(blockAddr(3), data, 0xffff);
    EXPECT_EQ(phys.readWord32(pageBase(e->shadow) + 3 * blockBytes),
              500u);
    EXPECT_EQ(phys.readWord32(blockAddr(3)), 7u) << "home untouched";

    eq.run();
    ASSERT_TRUE(vts->sptEntry(home)->selection.test(3));
    for (unsigned w = 0; w < wordsPerBlock; ++w)
        EXPECT_EQ(vts->readCommittedWord32(blockAddr(3) + w * 4),
                  500u + w)
            << "word " << w;
}

// Two live writers overflowed words of one block. Each word's foreign
// mark names the first live writer in TAV list order (the newest
// node first), and the marks are listed by first marked word.
TEST_F(VtsTest, WordModeForeignMarkFollowsTavListOrder)
{
    build(TmKind::SelectPtm, Granularity::WordCacheMem);
    TxId a = txmgr.begin(0, 0, 0);
    TxId b = txmgr.begin(1, 0, 1);
    TxId c = txmgr.begin(2, 0, 2);
    std::uint8_t data[blockBytes] = {};
    for (unsigned w = 0; w < 3; ++w) {
        std::uint32_t v = 100 + w;
        std::memcpy(data + w * 4, &v, 4);
    }
    vts->evictTxBlock(blockAddr(1), a, true, data, 0, 0x0003);
    for (unsigned w = 0; w < 3; ++w) {
        std::uint32_t v = 200 + w;
        std::memcpy(data + w * 4, &v, 4);
    }
    vts->evictTxBlock(blockAddr(1), b, true, data, 0, 0x0006);
    ASSERT_EQ(vts->sptEntry(home)->tavHead->tx, b) << "newest first";

    std::uint8_t buf[blockBytes];
    std::uint16_t spec = 0;
    std::vector<TxMark> foreign;
    vts->fillBlock(blockAddr(1), c, buf, spec, foreign);
    EXPECT_EQ(spec, 0u);
    ASSERT_EQ(foreign.size(), 2u);
    EXPECT_EQ(foreign[0].tx, a);
    EXPECT_EQ(foreign[0].writeWords, 0x0001);
    EXPECT_EQ(foreign[1].tx, b);
    EXPECT_EQ(foreign[1].writeWords, 0x0006);
    std::uint32_t v[3];
    std::memcpy(v, buf, sizeof(v));
    EXPECT_EQ(v[0], 100u);
    EXPECT_EQ(v[1], 201u) << "one speculative location per word";
    EXPECT_EQ(v[2], 202u);

    // The requester's own words are never foreign.
    vts->fillBlock(blockAddr(1), a, buf, spec, foreign);
    EXPECT_EQ(spec, 0x0003);
    ASSERT_EQ(foreign.size(), 1u);
    EXPECT_EQ(foreign[0].tx, b);
    EXPECT_EQ(foreign[0].writeWords, 0x0004);
}

} // namespace
} // namespace ptm
