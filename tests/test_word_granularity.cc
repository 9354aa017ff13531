/**
 * @file
 * Figure 5 machinery tests: word-granularity conflict detection in the
 * caches and in the PTM structures, multi-writer block evictions, the
 * word-level abort restore, and the stale-fill regression (a fill must
 * stall on blocks with pending commit cleanup even when the accessed
 * word does not overlap).
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "sim_test_util.hh"

namespace ptm
{
namespace
{

using namespace ptm::test;

constexpr Addr kBlock = 0x100000; // one shared block

/** Each thread hammers its own word of the same cache block. */
StatSnapshot
disjointWordRun(Granularity g)
{
    SystemParams prm = quietParams(TmKind::SelectPtm);
    prm.granularity = g;
    System sys(prm);
    ProcId p = sys.createProcess();
    constexpr unsigned kIters = 40;
    for (unsigned t = 0; t < 4; ++t) {
        std::vector<Step> steps;
        for (unsigned i = 0; i < kIters; ++i) {
            steps.push_back(tx([t](MemCtx m) -> TxCoro {
                Addr addr = kBlock + 4 * t;
                std::uint64_t v = co_await m.load(addr);
                co_await m.compute(12);
                co_await m.store(addr, std::uint32_t(v + 1));
            }));
        }
        sys.addThread(p, std::move(steps));
    }
    sys.run();
    StatSnapshot s = sys.snapshot();
    for (unsigned t = 0; t < 4; ++t)
        EXPECT_EQ(sys.readWord32(p, kBlock + 4 * t), kIters)
            << "thread " << t;
    return s;
}

TEST(WordGranularity, BlockModeFalselyConflicts)
{
    StatSnapshot s = disjointWordRun(Granularity::Block);
    EXPECT_GT(s.counter("tx.aborts"), 0u)
        << "disjoint words of one block must conflict at block "
           "granularity";
}

TEST(WordGranularity, WordModeEliminatesFalseConflicts)
{
    StatSnapshot s = disjointWordRun(Granularity::WordCacheMem);
    EXPECT_EQ(s.counter("tx.aborts"), 0u);
    EXPECT_EQ(s.counter("tx.aborts_multiwriter"), 0u);
}

TEST(WordGranularity, WordCacheModeAlsoAvoidsAccessConflicts)
{
    StatSnapshot s = disjointWordRun(Granularity::WordCache);
    EXPECT_EQ(s.counter("tx.aborts"), 0u) << "no evictions here, so wd:cache "
                               "behaves like wd:cache+mem";
}

/** Force mid-transaction evictions of multi-writer blocks. */
StatSnapshot
multiWriterEvictionRun(Granularity g)
{
    SystemParams prm = tinyCacheParams(TmKind::SelectPtm);
    prm.granularity = g;
    prm.l2Bytes = 4096;
    System sys(prm);
    ProcId p = sys.createProcess();
    constexpr unsigned kBlocks = 200; // >> 64-line L2
    for (unsigned t = 0; t < 4; ++t) {
        std::vector<Step> steps;
        for (unsigned i = 0; i < 3; ++i) {
            steps.push_back(tx([t](MemCtx m) -> TxCoro {
                for (unsigned b = 0; b < kBlocks; ++b)
                    co_await m.store(kBlock + Addr(b) * blockBytes +
                                         4 * t,
                                     b * 16 + t);
            }));
        }
        sys.addThread(p, std::move(steps));
    }
    sys.run();
    StatSnapshot s = sys.snapshot();
    for (unsigned t = 0; t < 4; ++t)
        for (unsigned b = 0; b < kBlocks; ++b)
            EXPECT_EQ(sys.readWord32(p, kBlock + Addr(b) * blockBytes +
                                            4 * t),
                      b * 16 + t);
    return s;
}

TEST(WordGranularity, WdCacheAbortsOnMultiWriterEviction)
{
    // "Evicting a block with multiple writers would cause an abort,
    // since the overflowed PTM structures only kept track of one
    // writer per block" (section 6.3).
    StatSnapshot s = multiWriterEvictionRun(Granularity::WordCache);
    EXPECT_GT(s.counter("tx.aborts_multiwriter"), 0u);
}

TEST(WordGranularity, WdCacheMemSurvivesMultiWriterEviction)
{
    StatSnapshot s = multiWriterEvictionRun(Granularity::WordCacheMem);
    EXPECT_EQ(s.counter("tx.aborts_multiwriter"), 0u)
        << "per-word vectors track every writer";
}

TEST(WordGranularity, AbortRestoresOnlyTheAbortedWords)
{
    // Two transactions write disjoint words of the same block; a
    // non-transactional write kills one of them. Only the victim's
    // word may revert.
    SystemParams prm = quietParams(TmKind::SelectPtm);
    prm.granularity = Granularity::WordCacheMem;
    System sys(prm);
    ProcId p = sys.createProcess();

    auto attempts = std::make_shared<unsigned>(0);
    // Thread 0: word 0, lingers on its first attempt.
    sys.addThread(p, {tx([attempts](MemCtx m) -> TxCoro {
                      unsigned a = ++*attempts;
                      co_await m.store(kBlock, 100 + a);
                      if (a == 1)
                          for (int i = 0; i < 80; ++i)
                              co_await m.compute(200);
                  })});
    // Thread 1: word 1, commits quickly.
    sys.addThread(p, {tx([](MemCtx m) -> TxCoro {
                      co_await m.store(kBlock + 4, 500);
                  })});
    // Thread 2: non-transactional conflicting write on word 0, mid
    // thread-0 transaction.
    sys.addThread(p, {plain([](MemCtx m) -> TxCoro {
                      co_await m.compute(4000);
                      co_await m.store(kBlock, 9);
                  })});
    sys.run();
    EXPECT_GE(*attempts, 2u) << "thread 0 must have been aborted";
    EXPECT_EQ(sys.readWord32(p, kBlock), 102u)
        << "restarted transaction wrote last";
    EXPECT_EQ(sys.readWord32(p, kBlock + 4), 500u)
        << "the other transaction's word must survive the abort";
}

TEST(WordGranularity, StaleFillRegression)
{
    // Regression for the bug where a fill composed a block containing
    // stale committed words of a still-cleaning transaction: tx1
    // overflows word 3 of many blocks, and immediately afterwards tx2
    // writes word 7 of the same blocks (disjoint: no conflict). The
    // fills must wait for tx1's lazy commit walk, or tx2's write-backs
    // clobber tx1's updates.
    SystemParams prm = tinyCacheParams(TmKind::SelectPtm);
    prm.granularity = Granularity::WordCacheMem;
    System sys(prm);
    ProcId p = sys.createProcess();
    constexpr unsigned kBlocks = 100;

    std::vector<Step> steps;
    steps.push_back(plain([](MemCtx m) -> TxCoro {
        for (unsigned b = 0; b < kBlocks; ++b)
            for (unsigned w = 0; w < wordsPerBlock; ++w)
                co_await m.store(kBlock + Addr(b) * blockBytes + 4 * w,
                                 1000 + b * 16 + w);
    }));
    steps.push_back(tx([](MemCtx m) -> TxCoro {
        for (unsigned b = 0; b < kBlocks; ++b)
            co_await m.store(kBlock + Addr(b) * blockBytes + 12,
                             5000 + b);
    }));
    steps.push_back(tx([](MemCtx m) -> TxCoro {
        for (unsigned b = 0; b < kBlocks; ++b)
            co_await m.store(kBlock + Addr(b) * blockBytes + 28,
                             7000 + b);
    }));
    sys.addThread(p, std::move(steps));
    sys.run();

    for (unsigned b = 0; b < kBlocks; ++b) {
        ASSERT_EQ(sys.readWord32(p, kBlock + Addr(b) * blockBytes + 12),
                  5000 + b)
            << "block " << b;
        ASSERT_EQ(sys.readWord32(p, kBlock + Addr(b) * blockBytes + 28),
                  7000 + b)
            << "block " << b;
    }
}

TEST(WordGranularity, RadixGainsFromWordGranularity)
{
    // The Figure 5 headline at test scale: radix improves with word
    // granularity because its scattered permutation writes share
    // blocks but not words.
    SystemParams blk = quietParams(TmKind::SelectPtm);
    ExperimentResult rb = runWorkload("radix", blk, 0, 4);
    SystemParams wd = quietParams(TmKind::SelectPtm);
    wd.granularity = Granularity::WordCacheMem;
    ExperimentResult rw = runWorkload("radix", wd, 0, 4);
    EXPECT_TRUE(rb.verified);
    EXPECT_TRUE(rw.verified);
    EXPECT_GT(rb.snapshot.counter("tx.aborts"),
              rw.snapshot.counter("tx.aborts"));
    EXPECT_LT(rw.cycles, rb.cycles);
}

} // namespace
} // namespace ptm
