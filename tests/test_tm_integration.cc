/**
 * @file
 * End-to-end integration tests of the transactional memory system:
 * single-thread execution, commits, conflicts and atomicity, cache
 * overflow under Copy-PTM / Select-PTM / VTM / VC-VTM, abort recovery
 * with overflowed state, ordered transactions, and context switches.
 */

#include <gtest/gtest.h>

#include "sim_test_util.hh"

namespace ptm
{
namespace
{

using namespace ptm::test;

constexpr Addr kBase = 0x10000;

TEST(Integration, SerialPlainExecution)
{
    System sys(quietParams(TmKind::Serial));
    ProcId p = sys.createProcess();
    sys.addThread(p, {plain([](MemCtx m) -> TxCoro {
                      for (unsigned i = 0; i < 64; ++i)
                          co_await m.store(kBase + 4 * i, i * 3 + 1);
                      std::uint64_t sum = 0;
                      for (unsigned i = 0; i < 64; ++i)
                          sum += co_await m.load(kBase + 4 * i);
                      co_await m.store(kBase + 4096, std::uint32_t(sum));
                  })});
    Tick end = sys.run();
    EXPECT_GT(end, 0u);
    std::uint64_t expect = 0;
    for (unsigned i = 0; i < 64; ++i)
        expect += i * 3 + 1;
    EXPECT_EQ(sys.readWord32(p, kBase + 4096), expect);
    EXPECT_EQ(sys.snapshot().counter("tx.commits"), 0u);
}

TEST(Integration, SingleTransactionCommits)
{
    System sys(quietParams(TmKind::SelectPtm));
    ProcId p = sys.createProcess();
    sys.addThread(p, {tx([](MemCtx m) -> TxCoro {
                      for (unsigned i = 0; i < 32; ++i)
                          co_await m.store(kBase + 4 * i, 100 + i);
                  })});
    sys.run();
    StatSnapshot s = sys.snapshot();
    EXPECT_EQ(s.counter("tx.commits"), 1u);
    EXPECT_EQ(s.counter("tx.aborts"), 0u);
    for (unsigned i = 0; i < 32; ++i)
        EXPECT_EQ(sys.readWord32(p, kBase + 4 * i), 100 + i);
}

/** Parameterized over every TM backend: atomic counter increments. */
class AtomicityTest : public ::testing::TestWithParam<TmKind>
{};

TEST_P(AtomicityTest, ConcurrentIncrementsAreAtomic)
{
    System sys(quietParams(GetParam()));
    ProcId p = sys.createProcess();
    constexpr unsigned kIters = 60;
    constexpr unsigned kThreads = 4;
    for (unsigned t = 0; t < kThreads; ++t) {
        std::vector<Step> steps;
        for (unsigned i = 0; i < kIters; ++i) {
            steps.push_back(tx([](MemCtx m) -> TxCoro {
                std::uint64_t v = co_await m.load(kBase);
                co_await m.compute(20);
                co_await m.store(kBase, std::uint32_t(v + 1));
            }));
        }
        sys.addThread(p, std::move(steps));
    }
    sys.run();
    StatSnapshot s = sys.snapshot();
    EXPECT_EQ(sys.readWord32(p, kBase), kIters * kThreads);
    EXPECT_EQ(s.counter("tx.commits"), kIters * kThreads);
    // With a 20-cycle window inside each transaction, conflicts must
    // actually occur for this test to mean anything.
    EXPECT_GT(s.counter("tx.aborts"), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, AtomicityTest,
                         ::testing::Values(TmKind::SelectPtm,
                                           TmKind::CopyPtm,
                                           TmKind::Vtm, TmKind::VcVtm),
                         [](const auto &info) {
                             switch (info.param) {
                               case TmKind::SelectPtm:
                                 return "SelectPtm";
                               case TmKind::CopyPtm:
                                 return "CopyPtm";
                               case TmKind::Vtm:
                                 return "Vtm";
                               default:
                                 return "VcVtm";
                             }
                         });

/** Overflow: transaction footprint exceeds the (tiny) caches. */
class OverflowTest : public ::testing::TestWithParam<TmKind>
{};

TEST_P(OverflowTest, OverflowedTransactionCommits)
{
    System sys(tinyCacheParams(GetParam()));
    ProcId p = sys.createProcess();
    constexpr unsigned kBlocks = 200; // 200 blocks >> 32-line L2
    sys.addThread(p, {tx([](MemCtx m) -> TxCoro {
                      for (unsigned i = 0; i < kBlocks; ++i)
                          co_await m.store(kBase + blockBytes * i,
                                           7000 + i);
                  })});
    sys.run();
    StatSnapshot s = sys.snapshot();
    EXPECT_EQ(s.counter("tx.commits"), 1u);
    EXPECT_GT(s.counter("mem.tx_evictions"), 0u)
        << "test must exercise overflow";
    for (unsigned i = 0; i < kBlocks; ++i)
        EXPECT_EQ(sys.readWord32(p, kBase + blockBytes * i), 7000 + i)
            << "block " << i;
}

TEST_P(OverflowTest, AbortAfterOverflowRestoresMemory)
{
    System sys(tinyCacheParams(GetParam()));
    ProcId p = sys.createProcess();
    constexpr unsigned kBlocks = 120;

    // Pre-set committed values non-transactionally.
    std::vector<Step> writer_steps;
    writer_steps.push_back(plain([](MemCtx m) -> TxCoro {
        for (unsigned i = 0; i < kBlocks; ++i)
            co_await m.store(kBase + blockBytes * i, 500 + i);
        // Flag for thread B to start.
        co_await m.store(kBase - 4096, 1);
    }));
    // Then: transactional overwrite that overflows, with a long
    // compute window; attempt 1 gets killed by a non-transactional
    // write from the other thread, attempt 2 succeeds.
    auto attempt = std::make_shared<unsigned>(0);
    writer_steps.push_back(tx([attempt](MemCtx m) -> TxCoro {
        unsigned a = ++*attempt;
        for (unsigned i = 0; i < kBlocks; ++i)
            co_await m.store(kBase + blockBytes * i, 9000 + a);
        if (a == 1) {
            // Linger so the conflicting write lands mid-transaction.
            for (int j = 0; j < 200; ++j)
                co_await m.compute(500);
        }
    }));
    sys.addThread(p, std::move(writer_steps));

    // Thread B: wait for the flag, then do one conflicting
    // NON-transactional write (non-tx code always wins, 2.3.3).
    sys.addThread(p, {plain([](MemCtx m) -> TxCoro {
                      while (co_await m.load(kBase - 4096) != 1)
                          co_await m.compute(200);
                      co_await m.compute(3000);
                      co_await m.store(kBase, 12345);
                  })});

    sys.run();
    StatSnapshot s = sys.snapshot();
    EXPECT_EQ(*attempt, 2u) << "transaction must abort exactly once";
    EXPECT_GE(s.counter("tx.aborts_nontx"), 1u);
    // Final state: attempt 2's values everywhere (it overwrote block 0
    // after the non-tx write, transactionally and successfully).
    for (unsigned i = 0; i < kBlocks; ++i)
        EXPECT_EQ(sys.readWord32(p, kBase + blockBytes * i), 9002u)
            << "block " << i;
}

INSTANTIATE_TEST_SUITE_P(AllBackends, OverflowTest,
                         ::testing::Values(TmKind::SelectPtm,
                                           TmKind::CopyPtm,
                                           TmKind::Vtm, TmKind::VcVtm),
                         [](const auto &info) {
                             switch (info.param) {
                               case TmKind::SelectPtm:
                                 return "SelectPtm";
                               case TmKind::CopyPtm:
                                 return "CopyPtm";
                               case TmKind::Vtm:
                                 return "Vtm";
                               default:
                                 return "VcVtm";
                             }
                         });

TEST(Integration, OrderedTransactionsCommitInRankOrder)
{
    System sys(quietParams(TmKind::SelectPtm));
    ProcId p = sys.createProcess();
    std::uint32_t scope = sys.createOrderedScope();
    constexpr unsigned kIters = 40;
    constexpr unsigned kThreads = 4;
    // Each ordered transaction multiplies then adds its rank into an
    // accumulator: the result is order-sensitive, so a correct run
    // proves rank-order commits.
    for (unsigned t = 0; t < kThreads; ++t) {
        std::vector<Step> steps;
        for (unsigned i = 0; i < kIters; ++i) {
            std::uint64_t rank = i * kThreads + t;
            steps.push_back(
                orderedTx(scope, rank, [rank](MemCtx m) -> TxCoro {
                    std::uint64_t v = co_await m.load(kBase);
                    co_await m.compute(10);
                    co_await m.store(
                        kBase,
                        std::uint32_t(v * 3 + rank + 1));
                }));
        }
        sys.addThread(p, std::move(steps));
    }
    sys.run();

    std::uint32_t expect = 0;
    for (unsigned r = 0; r < kIters * kThreads; ++r)
        expect = expect * 3 + r + 1;
    EXPECT_EQ(sys.readWord32(p, kBase), expect);
    EXPECT_EQ(sys.snapshot().counter("tx.commits"), kIters * kThreads);
}

TEST(Integration, ContextSwitchesPreserveTransactions)
{
    SystemParams prm = quietParams(TmKind::SelectPtm);
    prm.numCores = 2;
    prm.osQuantum = 3000; // aggressive time slicing
    System sys(prm);
    ProcId p = sys.createProcess();
    constexpr unsigned kThreads = 6; // 3x oversubscribed
    constexpr unsigned kIters = 25;
    for (unsigned t = 0; t < kThreads; ++t) {
        std::vector<Step> steps;
        for (unsigned i = 0; i < kIters; ++i) {
            steps.push_back(tx([t](MemCtx m) -> TxCoro {
                std::uint64_t v = co_await m.load(kBase);
                co_await m.compute(100);
                co_await m.store(kBase, std::uint32_t(v + 1));
                // Private work so quanta expire inside transactions.
                for (unsigned j = 0; j < 8; ++j)
                    co_await m.store(kBase + 4096 * (t + 1) + 4 * j,
                                     j);
            }));
        }
        sys.addThread(p, std::move(steps));
    }
    sys.run();
    StatSnapshot s = sys.snapshot();
    EXPECT_EQ(sys.readWord32(p, kBase), kThreads * kIters);
    EXPECT_GT(s.counter("os.context_switches"), 0u);
}

TEST(Integration, DeterministicAcrossRuns)
{
    auto run_once = [] {
        System sys(quietParams(TmKind::SelectPtm));
        ProcId p = sys.createProcess();
        for (unsigned t = 0; t < 4; ++t) {
            std::vector<Step> steps;
            for (unsigned i = 0; i < 30; ++i)
                steps.push_back(tx([](MemCtx m) -> TxCoro {
                    std::uint64_t v = co_await m.load(kBase);
                    co_await m.store(kBase, std::uint32_t(v + 1));
                }));
            sys.addThread(p, std::move(steps));
        }
        return sys.run();
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Integration, NonTransactionalCodeAbortsConflictingTx)
{
    System sys(quietParams(TmKind::SelectPtm));
    ProcId p = sys.createProcess();
    auto attempts = std::make_shared<unsigned>(0);
    sys.addThread(p, {tx([attempts](MemCtx m) -> TxCoro {
                      ++*attempts;
                      co_await m.store(kBase, 1);
                      for (int j = 0; j < 100; ++j)
                          co_await m.compute(200);
                  })});
    sys.addThread(p, {plain([](MemCtx m) -> TxCoro {
                      co_await m.compute(4000);
                      co_await m.store(kBase, 777);
                  })});
    sys.run();
    EXPECT_GE(*attempts, 2u);
    EXPECT_GE(sys.snapshot().counter("tx.aborts_nontx"), 1u);
    EXPECT_EQ(sys.readWord32(p, kBase), 1u)
        << "restarted transaction rewrites the block last";
}

} // namespace
} // namespace ptm
