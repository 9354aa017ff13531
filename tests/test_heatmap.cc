/**
 * @file
 * Unit tests for the contention heatmap: the space-saving top-K
 * summary's exactness, sum preservation, deterministic eviction and
 * error bounds, plus the TxManager integration invariant that
 * per-page abort attributions reconcile exactly with the per-cause
 * abort counters.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ptm/heatmap.hh"
#include "tx/tx_manager.hh"

namespace ptm
{
namespace
{

std::uint64_t
sumCounts(const std::vector<SpaceSavingTopK::Entry> &entries)
{
    std::uint64_t sum = 0;
    for (const auto &e : entries)
        sum += e.count;
    return sum;
}

TEST(SpaceSavingTopK, ExactBelowCapacity)
{
    SpaceSavingTopK s(8);
    s.record(10, 3);
    s.record(20, 5);
    s.record(10);
    auto top = s.top();
    ASSERT_EQ(top.size(), 2u);
    // Sorted by descending count.
    EXPECT_EQ(top[0].key, 20u);
    EXPECT_EQ(top[0].count, 5u);
    EXPECT_EQ(top[1].key, 10u);
    EXPECT_EQ(top[1].count, 4u);
    // Below capacity every count is exact.
    EXPECT_EQ(top[0].error, 0u);
    EXPECT_EQ(top[1].error, 0u);
    EXPECT_EQ(s.total(), 9u);
}

TEST(SpaceSavingTopK, SumPreservedOverCapacity)
{
    SpaceSavingTopK s(4);
    // 16 distinct keys with skewed frequencies: far over capacity.
    for (std::uint64_t k = 0; k < 16; ++k)
        s.record(k, 16 - k);
    std::uint64_t expected = 0;
    for (std::uint64_t k = 0; k < 16; ++k)
        expected += 16 - k;
    EXPECT_EQ(s.total(), expected);
    EXPECT_EQ(s.size(), 4u);
    // Every record() landed in exactly one stored entry, so the
    // stored counts still sum to the exact total.
    EXPECT_EQ(sumCounts(s.top()), expected);
}

TEST(SpaceSavingTopK, DeterministicEviction)
{
    SpaceSavingTopK s(2);
    s.record(5, 10);
    s.record(7, 10);
    // Full. The victim is the min count; the 5/7 tie breaks on the
    // smallest key, so key 5 is replaced and key 9 inherits its count.
    s.record(9);
    auto top = s.top();
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].key, 9u);
    EXPECT_EQ(top[0].count, 11u);
    EXPECT_EQ(top[0].error, 10u) << "replacement inherits the victim "
                                    "count as its error bound";
    EXPECT_EQ(top[1].key, 7u);
    EXPECT_EQ(top[1].count, 10u);
    EXPECT_EQ(top[1].error, 0u);
}

TEST(SpaceSavingTopK, ErrorBoundedByTotalOverCapacity)
{
    const unsigned cap = 8;
    SpaceSavingTopK s(cap);
    // A heavy hitter plus a uniform tail of distinct keys.
    for (int i = 0; i < 100; ++i)
        s.record(1);
    for (std::uint64_t k = 1000; k < 1200; ++k)
        s.record(k);
    for (const auto &e : s.top()) {
        EXPECT_LE(e.error, e.count);
        EXPECT_LE(e.error, s.total() / cap)
            << "key " << e.key << " violates the space-saving bound";
    }
    // The heavy hitter cannot be evicted and stays exact-ish: its
    // count must at least cover its true frequency.
    auto top = s.top();
    EXPECT_EQ(top[0].key, 1u);
    EXPECT_GE(top[0].count, 100u);
    EXPECT_LE(top[0].count - top[0].error, 100u);
}

TEST(SpaceSavingTopK, TopSortTieBreaksOnKey)
{
    SpaceSavingTopK s(8);
    s.record(30, 2);
    s.record(10, 2);
    s.record(20, 2);
    auto top = s.top();
    ASSERT_EQ(top.size(), 3u);
    EXPECT_EQ(top[0].key, 10u);
    EXPECT_EQ(top[1].key, 20u);
    EXPECT_EQ(top[2].key, 30u);
}

TEST(ContentionHeatmap, ConflictKeysPageAndBlock)
{
    ContentionHeatmap h(16);
    // Two addresses in the same page, different 64-byte blocks.
    h.recordConflict(0x1000);
    h.recordConflict(0x1040);
    h.recordConflict(0x1044); // same block as 0x1040
    auto snap = h.snapshot();
    EXPECT_TRUE(snap.enabled);
    EXPECT_EQ(snap.conflictsTotal, 3u);
    ASSERT_EQ(snap.conflictPages.size(), 1u);
    EXPECT_EQ(snap.conflictPages[0].key, 0x1000u >> 12);
    EXPECT_EQ(snap.conflictPages[0].count, 3u);
    ASSERT_EQ(snap.conflictBlocks.size(), 2u);
    EXPECT_EQ(sumCounts(snap.conflictBlocks), 3u);
}

TEST(ContentionHeatmap, UnattributedEventsUseSentinel)
{
    ContentionHeatmap h(16);
    h.recordConflict(invalidAddr);
    h.recordAbort(unsigned(AbortReason::Explicit), invalidAddr);
    auto snap = h.snapshot();
    ASSERT_EQ(snap.conflictPages.size(), 1u);
    EXPECT_EQ(snap.conflictPages[0].key, invalidPage);
    unsigned cause = unsigned(AbortReason::Explicit);
    EXPECT_EQ(snap.abortsTotal[cause], 1u);
    ASSERT_EQ(snap.abortPages[cause].size(), 1u);
    EXPECT_EQ(snap.abortPages[cause][0].key, invalidPage);
}

TEST(ContentionHeatmap, HotPagesJsonShape)
{
    ContentionHeatmap h(16);
    h.recordConflict(0x3000);
    h.recordConflict(0x3000);
    h.recordConflict(invalidAddr);
    EXPECT_EQ(h.hotPagesJson(8),
              "[{\"page\":3,\"count\":2,\"err\":0},"
              "{\"page\":-1,\"count\":1,\"err\":0}]");
    // The bound caps the listing.
    EXPECT_EQ(h.hotPagesJson(1),
              "[{\"page\":3,\"count\":2,\"err\":0}]");
}

TEST(ContentionHeatmap, AbortAttributionMatchesTxCounters)
{
    // The integration invariant behind the hot_pages JSON: drive a
    // bare TxManager with the heatmap attached and check that the
    // per-page attribution sums reconcile exactly with the per-cause
    // abort counters.
    TxManager m;
    ContentionHeatmap h(16);
    Tracer obs;
    obs.subscribe(&h, {TraceEventType::TxAbort});
    m.setTracer(&obs);

    // Three conflict-lost aborts on two pages.
    for (Addr a : {Addr(0x1000), Addr(0x1010), Addr(0x2000)}) {
        TxId t = m.begin(0, 0, 0);
        m.abort(t, AbortReason::ConflictLost, a);
        m.restart(t, 1);
        m.abort(t, AbortReason::Explicit); // default: unattributed
        EXPECT_EQ(m.stateOf(t), TxState::Aborted);
    }
    // A double abort must not double-count (abort is idempotent).
    TxId t = m.begin(1, 0, 0);
    m.abort(t, AbortReason::ConflictLost, 0x1000);
    m.abort(t, AbortReason::ConflictLost, 0x1000);

    auto snap = h.snapshot();
    unsigned conflict = unsigned(AbortReason::ConflictLost);
    unsigned expl = unsigned(AbortReason::Explicit);
    EXPECT_EQ(snap.abortsTotal[conflict], m.abortsConflict.value());
    EXPECT_EQ(snap.abortsTotal[expl], m.abortsExplicit.value());
    EXPECT_EQ(sumCounts(snap.abortPages[conflict]),
              snap.abortsTotal[conflict]);
    EXPECT_EQ(sumCounts(snap.abortPages[expl]), snap.abortsTotal[expl]);
    std::uint64_t all = 0;
    for (unsigned c = 0; c < heatAbortCauses; ++c)
        all += snap.abortsTotal[c];
    EXPECT_EQ(all, m.aborts.value());
    // Page 1 took two conflict aborts (0x1000 and 0x1010), page 2 one.
    ASSERT_EQ(snap.abortPages[conflict].size(), 2u);
    EXPECT_EQ(snap.abortPages[conflict][0].key, 1u);
    EXPECT_EQ(snap.abortPages[conflict][0].count, 3u);
    EXPECT_EQ(snap.abortPages[conflict][1].key, 2u);
    EXPECT_EQ(snap.abortPages[conflict][1].count, 1u);
}

TEST(ContentionHeatmap, ResolveConflictsRecordsEdges)
{
    TxManager m;
    ContentionHeatmap h(16);
    Tracer obs;
    obs.subscribe(&h, {TraceEventType::ConflictEdge, TraceEventType::TxAbort});
    m.setTracer(&obs);
    TxId older = m.begin(0, 0, 0);
    TxId younger = m.begin(1, 0, 5);
    // Older requester wins the block at 0x5040: one conflict edge and
    // one conflict-lost abort, both attributed to that address.
    EXPECT_TRUE(m.resolveConflicts(older, {younger}, 0x5040));
    auto snap = h.snapshot();
    EXPECT_EQ(snap.conflictsTotal, 1u);
    ASSERT_EQ(snap.conflictPages.size(), 1u);
    EXPECT_EQ(snap.conflictPages[0].key, 5u);
    ASSERT_EQ(snap.conflictBlocks.size(), 1u);
    EXPECT_EQ(snap.conflictBlocks[0].key, 0x5040u);
    unsigned conflict = unsigned(AbortReason::ConflictLost);
    ASSERT_EQ(snap.abortPages[conflict].size(), 1u);
    EXPECT_EQ(snap.abortPages[conflict][0].key, 5u);
}

TEST(ContentionHeatmap, CauseNamesAreStable)
{
    EXPECT_STREQ(heatAbortCauseName(0), "conflict");
    EXPECT_STREQ(heatAbortCauseName(1), "nontx");
    EXPECT_STREQ(heatAbortCauseName(2), "multiwriter");
    EXPECT_STREQ(heatAbortCauseName(3), "explicit");
}

} // namespace
} // namespace ptm
