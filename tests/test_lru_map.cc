/**
 * @file
 * Unit tests of the one fully-associative LRU map and the structures
 * built on it: the LruMap itself, the VTS metadata cache (SPT/TAV
 * caches, partitioned by bank) and the TLB. VTM's XADC and victim
 * cache are pinned through the controller in test_vtm.cc.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "cache/tlb.hh"
#include "ptm/vts.hh"
#include "sim/lru_map.hh"

namespace ptm
{
namespace
{

// ------------------------------------------------------------ LruMap

TEST(LruMap, EvictionHandsBackTheLeastRecentlyUsedEntry)
{
    LruMap<int> m(2);
    EXPECT_FALSE(m.insert(1, 10));
    EXPECT_FALSE(m.insert(2, 20));
    EXPECT_FALSE(m.insert(1, 11)); // resident: updated, most recent
    auto ev = m.insert(3, 30);
    ASSERT_TRUE(ev);
    EXPECT_EQ(ev->key, 2u);
    EXPECT_EQ(ev->value, 20);
    EXPECT_EQ(m.find(2), nullptr);
    EXPECT_EQ(*m.find(1), 11);
    ASSERT_NE(m.find(3), nullptr); // 1 is now the LRU
    EXPECT_EQ(m.insert(4, 40)->key, 1u);
    EXPECT_EQ(m.size(), 2u);
}

TEST(LruMap, EraseAndPopLruHandBackEntries)
{
    LruMap<int> m(3);
    m.insert(1, 10);
    m.insert(2, 20);
    m.insert(3, 30);
    auto gone = m.erase(2);
    ASSERT_TRUE(gone);
    EXPECT_EQ(gone->value, 20);
    EXPECT_FALSE(m.erase(2));
    auto lru = m.popLru();
    ASSERT_TRUE(lru);
    EXPECT_EQ(lru->key, 1u);
    EXPECT_EQ(m.popLru()->key, 3u);
    EXPECT_FALSE(m.popLru());
    EXPECT_EQ(m.size(), 0u);
    // Recycled slots start from the inserted value.
    m.insert(4, 40);
    EXPECT_EQ(*m.find(4), 40);
}

// ---------------------------------------- VTS metadata cache (1 bank)
//
// These sequences pin the SPT/TAV caches' externally observable
// behavior: hit/miss classification, LRU victim selection and dirty
// write-back signaling.

TEST(VtsMetaCacheSeq, HitsMovesEntryToMostRecent)
{
    BankedVtsCache c(3, 1);
    bool evd = false;
    EXPECT_FALSE(c.access(0, 10, false, evd));
    EXPECT_FALSE(c.access(0, 11, false, evd));
    EXPECT_FALSE(c.access(0, 12, false, evd));
    // Touch 10: LRU is now 11.
    EXPECT_TRUE(c.access(0, 10, false, evd));
    EXPECT_FALSE(c.access(0, 13, false, evd)); // evicts 11
    EXPECT_TRUE(c.access(0, 10, false, evd));
    EXPECT_TRUE(c.access(0, 12, false, evd));
    EXPECT_TRUE(c.access(0, 13, false, evd));
    EXPECT_FALSE(c.access(0, 11, false, evd)); // 11 was the victim
    EXPECT_EQ(c.hits.value(), 4u);
    EXPECT_EQ(c.misses.value(), 5u);
}

TEST(VtsMetaCacheSeq, EvictionChainFollowsRecency)
{
    BankedVtsCache c(2, 1);
    bool evd = false;
    c.access(0, 1, false, evd);
    c.access(0, 2, false, evd);
    // Victims must come off in recency order: 1, then 2, then 3.
    c.access(0, 3, false, evd);                 // evicts 1
    EXPECT_FALSE(c.access(0, 1, false, evd));   // miss; evicts 2
    EXPECT_FALSE(c.access(0, 2, false, evd));   // miss; evicts 3
    EXPECT_FALSE(c.access(0, 3, false, evd));   // miss
    EXPECT_TRUE(c.access(0, 2, false, evd));    // still resident
    EXPECT_EQ(c.misses.value(), 6u);
    EXPECT_EQ(c.hits.value(), 1u);
}

TEST(VtsMetaCache, HitMissDirtyEviction)
{
    BankedVtsCache c(2, 1);
    bool evd = false;
    EXPECT_FALSE(c.access(0, 1, true, evd));
    EXPECT_FALSE(c.access(0, 2, false, evd));
    EXPECT_TRUE(c.access(0, 1, false, evd));
    // Inserting key 3 evicts LRU key 2 (clean).
    EXPECT_FALSE(c.access(0, 3, false, evd));
    EXPECT_FALSE(evd);
    // Inserting key 4 evicts key 1, which is dirty.
    EXPECT_FALSE(c.access(0, 4, false, evd));
    EXPECT_TRUE(evd);
    EXPECT_EQ(c.dirtyEvictions.value(), 1u);
}

TEST(VtsMetaCacheSeq, DirtyWritebackOnlyForDirtyVictims)
{
    BankedVtsCache c(2, 1);
    bool evd = false;
    c.access(0, 1, false, evd); // clean insert
    c.access(0, 2, true, evd);  // dirty insert
    // Evicting clean 1 signals no write-back.
    EXPECT_FALSE(c.access(0, 3, false, evd));
    EXPECT_FALSE(evd);
    // Evicting dirty 2 signals one.
    EXPECT_FALSE(c.access(0, 4, false, evd));
    EXPECT_TRUE(evd);
    EXPECT_EQ(c.dirtyEvictions.value(), 1u);
    // A hit with mark_dirty dirties an initially clean entry and
    // makes it most recent, so 4 (clean) goes first, then 3
    // (dirty).
    EXPECT_TRUE(c.access(0, 3, true, evd));
    EXPECT_FALSE(c.access(0, 5, false, evd)); // evicts clean 4
    EXPECT_FALSE(evd);
    EXPECT_FALSE(c.access(0, 6, false, evd)); // evicts dirty 3
    EXPECT_TRUE(evd);
    EXPECT_EQ(c.dirtyEvictions.value(), 2u);
}

TEST(VtsMetaCacheSeq, RecycledSlotsStartClean)
{
    BankedVtsCache c(1, 1);
    bool evd = false;
    c.access(0, 1, true, evd);
    c.access(0, 2, false, evd); // dirty 1 evicted; 2 reuses its slot
    EXPECT_TRUE(evd);
    c.access(0, 3, false, evd); // 2 must evict clean
    EXPECT_FALSE(evd);
    EXPECT_EQ(c.dirtyEvictions.value(), 1u);
}

TEST(VtsMetaCacheSeq, RemoveFreesCapacityWithoutEviction)
{
    BankedVtsCache c(2, 1);
    bool evd = false;
    c.access(0, 1, true, evd);
    c.access(0, 2, false, evd);
    c.remove(0, 1); // structure freed: no write-back, no counter
    EXPECT_EQ(c.dirtyEvictions.value(), 0u);
    // Capacity freed: inserting 3 must not evict 2.
    EXPECT_FALSE(c.access(0, 3, false, evd));
    EXPECT_FALSE(evd);
    EXPECT_TRUE(c.access(0, 2, false, evd));
    // The removed key is gone.
    EXPECT_FALSE(c.access(0, 1, false, evd));
    c.remove(0, 99); // absent key: no-op
}

// --------------------------------------------------- banked VTS cache

TEST(BankedVtsCache, SinglePartitionMatchesPlainCache)
{
    BankedVtsCache banked(8, 1);
    LruMap<bool> plain(8);
    ASSERT_EQ(banked.numPartitions(), 1u);
    std::uint64_t plain_hits = 0, plain_misses = 0;
    for (std::uint64_t k = 0; k < 32; ++k) {
        bool dirty = k % 3 == 0;
        bool ed_b = false, ed_p = false;
        bool hit_b = banked.access(PageNum(k), k, dirty, ed_b);
        bool hit_p = false;
        if (bool *d = plain.find(k)) {
            *d |= dirty;
            hit_p = true;
            ++plain_hits;
        } else {
            ++plain_misses;
            auto victim = plain.insert(k, dirty);
            ed_p = victim && victim->value;
        }
        EXPECT_EQ(hit_b, hit_p) << k;
        EXPECT_EQ(ed_b, ed_p) << k;
    }
    EXPECT_EQ(banked.hits.value(), plain_hits);
    EXPECT_EQ(banked.misses.value(), plain_misses);
}

TEST(BankedVtsCache, PartitionsAreIndependent)
{
    BankedVtsCache banked(8, 4); // 2 entries per partition
    ASSERT_EQ(banked.numPartitions(), 4u);
    EXPECT_EQ(banked.capacity(), 8u);
    bool ed = false;
    // Two keys on partition 0 fit; a third evicts, but keys routed to
    // other partitions are untouched.
    EXPECT_FALSE(banked.access(PageNum(0), 100, false, ed));
    EXPECT_FALSE(banked.access(PageNum(4), 104, false, ed));
    EXPECT_FALSE(banked.access(PageNum(1), 101, false, ed));
    EXPECT_FALSE(banked.access(PageNum(8), 108, false, ed)); // evicts
    EXPECT_TRUE(banked.access(PageNum(1), 101, false, ed));
}

TEST(BankedVtsCache, SqueezeDropsLruEntriesAndRestores)
{
    BankedVtsCache c(4, 1);
    bool evd = false;
    for (std::uint64_t k = 1; k <= 4; ++k)
        c.access(0, k, true, evd);
    c.setCapacity(0); // clamped to one entry: 4 stays
    EXPECT_EQ(c.capacity(), 1u);
    // The squeeze's write-backs are not dirty-eviction counts.
    EXPECT_EQ(c.dirtyEvictions.value(), 0u);
    EXPECT_TRUE(c.access(0, 4, false, evd));
    EXPECT_FALSE(c.access(0, 3, false, evd));
    EXPECT_TRUE(evd); // evicts dirty 4
    c.setCapacity(4);
    EXPECT_EQ(c.capacity(), 4u);
    EXPECT_FALSE(c.access(0, 1, false, evd));
    EXPECT_FALSE(evd); // room again: no eviction
    EXPECT_TRUE(c.access(0, 3, false, evd));
}

// --------------------------------------------------------------- TLB

TEST(Tlb, HitMissAndLru)
{
    Tlb t(2);
    EXPECT_EQ(t.lookup(0, 10), invalidPage);
    t.insert(0, 10, 100);
    t.insert(0, 11, 101);
    EXPECT_EQ(t.lookup(0, 10), 100u);
    EXPECT_EQ(t.lookup(0, 11), 101u);
    // 10 was used less recently than 11? lookup(10) then lookup(11):
    // 10 older -> inserting a third entry evicts 10.
    t.lookup(0, 11);
    t.insert(0, 12, 102);
    EXPECT_EQ(t.lookup(0, 12), 102u);
    EXPECT_EQ(t.lookup(0, 10), invalidPage);
    EXPECT_EQ(t.misses.value(), 2u);
    EXPECT_EQ(t.hits.value(), 4u);
}

TEST(Tlb, HitOnlyLookupMatchesLookup)
{
    // Two TLBs see the same accesses, filling on a miss. One
    // translates through lookup(), the other through lookupHit(); the
    // hits, the misses seen and the LRU victims must agree, and
    // lookupHit() must count no miss.
    Tlb full(3);
    Tlb fast(3);
    const PageNum pages[] = {1, 2, 1, 3, 3, 4, 2, 1, 5, 1, 1, 4, 3};
    std::uint64_t fast_misses = 0;
    for (PageNum p : pages) {
        PageNum a = full.lookup(0, p);
        PageNum b = fast.lookupHit(0, p);
        EXPECT_EQ(a, b) << "page " << p;
        if (a == invalidPage)
            full.insert(0, p, 100 + p);
        if (b == invalidPage) {
            ++fast_misses;
            fast.insert(0, p, 100 + p);
        }
    }
    EXPECT_EQ(fast.hits.value(), full.hits.value());
    EXPECT_EQ(fast.misses.value(), 0u);
    EXPECT_EQ(fast_misses, full.misses.value());
    // Same residents: LRU order picked the same victims.
    for (PageNum p = 1; p <= 5; ++p)
        EXPECT_EQ(full.lookupHit(0, p), fast.lookupHit(0, p))
            << "page " << p;
}

TEST(Tlb, ProcessTagged)
{
    Tlb t(4);
    t.insert(0, 10, 100);
    t.insert(1, 10, 200);
    EXPECT_EQ(t.lookup(0, 10), 100u);
    EXPECT_EQ(t.lookup(1, 10), 200u);
}

TEST(Tlb, Shootdown)
{
    Tlb t(4);
    t.insert(0, 10, 100);
    t.invalidate(0, 10);
    EXPECT_EQ(t.lookup(0, 10), invalidPage);
}

} // namespace
} // namespace ptm
