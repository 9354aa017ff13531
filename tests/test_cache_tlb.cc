/**
 * @file
 * Unit tests for the cache substrate: MOESI helpers, the mark list and
 * CacheLine mark management, the set-associative array with LRU
 * replacement and its tag array, and the L1 filter.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "cache/cache.hh"

namespace ptm
{
namespace
{

TEST(Moesi, StatePredicates)
{
    EXPECT_TRUE(moesiDirty(Moesi::M));
    EXPECT_TRUE(moesiDirty(Moesi::O));
    EXPECT_FALSE(moesiDirty(Moesi::E));
    EXPECT_FALSE(moesiDirty(Moesi::S));
    EXPECT_TRUE(moesiWritable(Moesi::M));
    EXPECT_TRUE(moesiWritable(Moesi::E));
    EXPECT_FALSE(moesiWritable(Moesi::O));
    EXPECT_FALSE(moesiWritable(Moesi::S));
}

TEST(CacheLine, MarkLifecycle)
{
    CacheLine l;
    EXPECT_FALSE(l.transactional());
    TxMark &m = l.mark(7);
    m.readWords = 0x00f0;
    l.mark(7).writeWords = 0x0001;
    EXPECT_TRUE(l.transactional());
    EXPECT_EQ(l.marks.size(), 1u); // same tx reuses its mark
    l.mark(9).writeWords = 0x0002;
    EXPECT_EQ(l.marks.size(), 2u);
    EXPECT_EQ(l.writeMask(), 0x0003);
    EXPECT_EQ(l.writerCount(), 2u);
    l.removeMark(7);
    EXPECT_EQ(l.marks.size(), 1u);
    EXPECT_EQ(l.findMark(7), nullptr);
    EXPECT_NE(l.findMark(9), nullptr);
    l.invalidate();
    EXPECT_FALSE(l.valid());
    EXPECT_FALSE(l.transactional());
}

/** The tx ids of @p l in list order. */
std::vector<TxId>
markIds(const MarkList &l)
{
    std::vector<TxId> ids;
    for (const TxMark &m : l)
        ids.push_back(m.tx);
    return ids;
}

TEST(MarkList, ThirdMarkSpills)
{
    MarkList l;
    l.push_back(TxMark{1, 0x1, 0});
    l.push_back(TxMark{2, 0, 0x2});
    EXPECT_FALSE(l.spilled());
    TxMark &third = l.push_back(TxMark{3, 0x4, 0x8});
    EXPECT_TRUE(l.spilled());
    EXPECT_EQ(third.tx, 3u);
    EXPECT_EQ(markIds(l), (std::vector<TxId>{1, 2, 3}));
    // The inline marks moved to the heap intact.
    EXPECT_EQ(l.begin()[0].readWords, 0x1);
    EXPECT_EQ(l.begin()[1].writeWords, 0x2);
    EXPECT_EQ(l.begin()[2].writeWords, 0x8);
    for (TxId t = 4; t <= 9; ++t)
        l.push_back(TxMark{t, 0, 0});
    EXPECT_EQ(l.size(), 9u);
    EXPECT_EQ(markIds(l).back(), 9u);
}

TEST(MarkList, EraseFromMiddleKeepsOrder)
{
    MarkList inl;
    inl.push_back(TxMark{1, 0, 0});
    inl.push_back(TxMark{2, 0, 0});
    inl.erase(inl.begin());
    EXPECT_EQ(markIds(inl), (std::vector<TxId>{2}));

    MarkList l;
    for (TxId t = 1; t <= 5; ++t)
        l.push_back(TxMark{t, std::uint16_t(t), 0});
    l.erase(l.begin() + 2);
    EXPECT_EQ(markIds(l), (std::vector<TxId>{1, 2, 4, 5}));
    EXPECT_EQ(l.begin()[2].readWords, 4);
    l.erase(l.end() - 1);
    l.erase(l.begin() + 1);
    EXPECT_EQ(markIds(l), (std::vector<TxId>{1, 4}));
}

TEST(MarkList, ClearAfterSpillReturnsInline)
{
    MarkList l;
    for (TxId t = 1; t <= 3; ++t)
        l.push_back(TxMark{t, 0, 0});
    ASSERT_TRUE(l.spilled());
    l.clear();
    EXPECT_TRUE(l.empty());
    EXPECT_FALSE(l.spilled());
    l.push_back(TxMark{7, 0, 0});
    EXPECT_FALSE(l.spilled());
    EXPECT_EQ(markIds(l), (std::vector<TxId>{7}));
}

TEST(MarkList, MoveTransfersMarks)
{
    MarkList spilled;
    for (TxId t = 1; t <= 3; ++t)
        spilled.push_back(TxMark{t, 0, 0});
    MarkList a(std::move(spilled));
    EXPECT_TRUE(a.spilled());
    EXPECT_EQ(markIds(a), (std::vector<TxId>{1, 2, 3}));
    EXPECT_TRUE(spilled.empty());
    EXPECT_FALSE(spilled.spilled());

    MarkList inl;
    inl.push_back(TxMark{5, 0x3, 0});
    MarkList b(std::move(inl));
    EXPECT_FALSE(b.spilled());
    EXPECT_EQ(markIds(b), (std::vector<TxId>{5}));
    EXPECT_EQ(b.begin()->readWords, 0x3);
    EXPECT_TRUE(inl.empty());
}

TEST(CacheLine, WordAccessors)
{
    CacheLine l;
    l.writeWord32(12, 0xdeadbeef);
    EXPECT_EQ(l.readWord32(12), 0xdeadbeefu);
    EXPECT_EQ(l.readWord32(8), 0u);
}

TEST(CacheArray, FindAndVictimLru)
{
    // 8 lines, 2-way: 4 sets. Addresses with equal set bits collide.
    CacheArray c(8 * blockBytes, 2);
    EXPECT_EQ(c.numSets(), 4u);

    Addr a0 = 0 * blockBytes;          // set 0
    Addr a1 = 4 * blockBytes;          // set 0
    Addr a2 = 8 * blockBytes;          // set 0

    CacheLine &l0 = c.victim(a0);
    c.install(l0, a0);
    l0.state = Moesi::E;
    c.touch(l0);
    CacheLine &l1 = c.victim(a1);
    c.install(l1, a1);
    l1.state = Moesi::E;
    c.touch(l1);

    EXPECT_EQ(c.find(a0), &l0);
    EXPECT_EQ(c.find(a1), &l1);
    EXPECT_EQ(c.find(a2), nullptr);

    // Touch a0 so a1 is LRU; the next victim in set 0 must be a1.
    c.touch(*c.find(a0));
    CacheLine &v = c.victim(a2);
    EXPECT_EQ(&v, &l1);
}

TEST(CacheArray, ForEachValidSkipsInvalid)
{
    CacheArray c(8 * blockBytes, 2);
    CacheLine &l = c.victim(0);
    c.install(l, 0);
    l.state = Moesi::S;
    unsigned n = 0;
    c.forEachValid([&](CacheLine &) { ++n; });
    EXPECT_EQ(n, 1u);
    l.invalidate();
    n = 0;
    c.forEachValid([&](CacheLine &) { ++n; });
    EXPECT_EQ(n, 0u);
}

TEST(CacheArray, FreshSlotsAreDefaultLines)
{
    // The array zero-fills its storage instead of constructing lines,
    // so a default CacheLine must be all zero bytes.
    alignas(CacheLine) unsigned char buf[sizeof(CacheLine)];
    std::memset(buf, 0xa5, sizeof(buf));
    CacheLine *l = ::new (buf) CacheLine();
    for (unsigned char b : buf)
        ASSERT_EQ(b, 0);
    l->~CacheLine();

    CacheArray c(8 * blockBytes, 2);
    for (std::size_t i = 0; i < c.numLines(); ++i) {
        EXPECT_FALSE(c.slot(i).valid());
        EXPECT_FALSE(c.slot(i).transactional());
        EXPECT_EQ(c.slot(i).readWord32(60), 0u);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&c.slot(i)) %
                      alignof(CacheLine),
                  0u);
    }
}

TEST(CacheArray, StaleTagAfterInvalidate)
{
    CacheArray c(8 * blockBytes, 2);
    Addr a = 0 * blockBytes; // set 0
    Addr b = 4 * blockBytes; // set 0
    CacheLine &w0 = c.victim(a);
    c.install(w0, a);
    w0.state = Moesi::E;
    c.touch(w0);
    CacheLine &w1 = c.victim(b);
    ASSERT_NE(&w1, &w0);
    c.install(w1, b);
    w1.state = Moesi::S;
    c.touch(w1);

    // Invalidating the line leaves its tag behind; find must not
    // return the invalid line.
    w0.invalidate();
    EXPECT_EQ(c.find(a), nullptr);
    EXPECT_EQ(c.find(b), &w1);

    // Re-install a in the other way: the stale tag in way 0 still
    // names a, and find must skip it to reach way 1.
    w1.invalidate();
    c.install(w1, a);
    w1.state = Moesi::M;
    EXPECT_EQ(c.find(a), &w1);
    EXPECT_EQ(c.find(b), nullptr);
}

TEST(L1Filter, InsertFindInvalidate)
{
    L1Filter f(8 * blockBytes, 1);
    Addr a = 3 * blockBytes;
    EXPECT_EQ(f.find(a), nullptr);
    L1Filter::Entry &e = f.insert(a);
    e.writable = true;
    EXPECT_NE(f.find(a), nullptr);
    f.downgrade(a);
    EXPECT_FALSE(f.find(a)->writable);
    f.invalidate(a);
    EXPECT_EQ(f.find(a), nullptr);
}

TEST(L1Filter, DirectMappedConflictEvicts)
{
    L1Filter f(8 * blockBytes, 1);
    Addr a = 2 * blockBytes;
    Addr b = a + 8 * blockBytes; // same set, direct mapped
    f.insert(a);
    f.insert(b);
    EXPECT_EQ(f.find(a), nullptr);
    EXPECT_NE(f.find(b), nullptr);
}

} // namespace
} // namespace ptm
