/**
 * @file
 * Virtual-memory and paging tests: demand allocation, swap-out/in
 * round trips with data integrity, TLB shootdowns, shared segments
 * across processes, and PTM's SPT <-> SIT migration under memory
 * pressure.
 */

#include <gtest/gtest.h>

#include "sim_test_util.hh"

namespace ptm
{
namespace
{

using namespace ptm::test;

TEST(Paging, SwapRoundTripPreservesData)
{
    SystemParams prm = quietParams(TmKind::Serial);
    prm.swapEnabled = true;
    prm.physFrames = 64; // tiny: forces swapping
    System sys(prm);
    ProcId p = sys.createProcess();
    constexpr unsigned kPages = 120;
    constexpr Addr base = 0x1000000;
    sys.addThread(p, {plain([](MemCtx m) -> TxCoro {
                      // Touch 120 pages (exceeding physical memory),
                      // then revisit them all.
                      for (unsigned pg = 0; pg < kPages; ++pg)
                          co_await m.store(base + Addr(pg) * pageBytes,
                                           7000 + pg);
                      for (unsigned pg = 0; pg < kPages; ++pg) {
                          std::uint64_t v = co_await m.load(
                              base + Addr(pg) * pageBytes);
                          co_await m.store(base + Addr(pg) * pageBytes +
                                               8,
                                           std::uint32_t(v) + 1);
                      }
                  })});
    sys.run();
    StatSnapshot s = sys.snapshot();
    EXPECT_GT(s.counter("os.swap_outs"), 0u);
    EXPECT_GT(s.counter("os.swap_ins"), 0u);
    for (unsigned pg = 0; pg < kPages; ++pg) {
        EXPECT_EQ(sys.readWord32(p, base + Addr(pg) * pageBytes),
                  7000 + pg);
        EXPECT_EQ(sys.readWord32(p, base + Addr(pg) * pageBytes + 8),
                  7001 + pg);
    }
}

TEST(Paging, TransactionsSurviveMemoryPressure)
{
    SystemParams prm = quietParams(TmKind::SelectPtm);
    prm.swapEnabled = true;
    prm.physFrames = 96;
    prm.l2Bytes = 8 * 1024;
    prm.l2Assoc = 2;
    prm.l1Bytes = 1024;
    System sys(prm);
    ProcId p = sys.createProcess();
    constexpr unsigned kPages = 60;
    constexpr Addr base = 0x2000000;
    // Transactions dirty one block per page -> shadow pages double the
    // footprint and trigger swap while transactions commit.
    std::vector<Step> steps;
    for (unsigned wave = 0; wave < 4; ++wave) {
        steps.push_back(tx([wave](MemCtx m) -> TxCoro {
            for (unsigned pg = wave * (kPages / 4);
                 pg < (wave + 1) * (kPages / 4); ++pg)
                for (unsigned b = 0; b < 8; ++b)
                    co_await m.store(base + Addr(pg) * pageBytes +
                                         b * blockBytes,
                                     wave * 10000 + pg * 10 + b);
        }));
    }
    sys.addThread(p, std::move(steps));
    sys.run();
    StatSnapshot s = sys.snapshot();
    EXPECT_EQ(s.counter("tx.commits"), 4u);
    EXPECT_GT(s.counter("vts.shadow_allocs"), 0u);
    for (unsigned wave = 0; wave < 4; ++wave)
        for (unsigned pg = wave * (kPages / 4);
             pg < (wave + 1) * (kPages / 4); ++pg)
            for (unsigned b = 0; b < 8; ++b)
                ASSERT_EQ(sys.readWord32(p, base + Addr(pg) * pageBytes +
                                                b * blockBytes),
                          wave * 10000 + pg * 10 + b);
}

TEST(Paging, SharedSegmentDifferentVirtualBases)
{
    SystemParams prm = quietParams(TmKind::SelectPtm);
    System sys(prm);
    ProcId a = sys.createProcess();
    ProcId b = sys.createProcess();
    constexpr Addr base_a = 0x4000000;
    constexpr Addr base_b = 0x7770000;
    sys.shareSegmentAt({{a, base_a}, {b, base_b}}, 2);

    // A writes through its view; B must observe through its own.
    sys.addThread(a, {plain([](MemCtx m) -> TxCoro {
                      for (unsigned i = 0; i < 16; ++i)
                          co_await m.store(base_a + i * 4, 100 + i);
                      co_await m.store(base_a + pageBytes, 1);
                  })});
    sys.addThread(b, {plain([](MemCtx m) -> TxCoro {
                      while (co_await m.load(base_b + pageBytes) != 1)
                          co_await m.compute(100);
                      std::uint64_t sum = 0;
                      for (unsigned i = 0; i < 16; ++i)
                          sum += co_await m.load(base_b + i * 4);
                      co_await m.store(base_b + pageBytes + 64,
                                       std::uint32_t(sum));
                  })});
    sys.run();
    std::uint32_t expect = 0;
    for (unsigned i = 0; i < 16; ++i)
        expect += 100 + i;
    EXPECT_EQ(sys.readWord32(a, base_a + pageBytes + 64), expect);
    EXPECT_EQ(sys.readWord32(b, base_b + pageBytes + 64), expect);
}

TEST(Paging, CrossProcessTransactionAtomicity)
{
    // The paper's section 3.5.3 claim: physically-indexed PTM
    // structures detect conflicts between transactions of different
    // processes on shared memory.
    SystemParams prm = quietParams(TmKind::SelectPtm);
    System sys(prm);
    ProcId a = sys.createProcess();
    ProcId b = sys.createProcess();
    constexpr Addr base_a = 0x4000000;
    constexpr Addr base_b = 0x9990000;
    sys.shareSegmentAt({{a, base_a}, {b, base_b}}, 1);

    constexpr unsigned kIters = 50;
    auto worker = [&](ProcId proc, Addr base) {
        std::vector<Step> steps;
        for (unsigned i = 0; i < kIters; ++i)
            steps.push_back(tx([base](MemCtx m) -> TxCoro {
                std::uint64_t v = co_await m.load(base);
                co_await m.compute(15);
                co_await m.store(base, std::uint32_t(v + 1));
            }));
        sys.addThread(proc, std::move(steps));
    };
    worker(a, base_a);
    worker(b, base_b);
    sys.run();
    EXPECT_EQ(sys.readWord32(a, base_a), 2 * kIters);
    EXPECT_GT(sys.snapshot().counter("mem.conflicts"), 0u)
        << "cross-process conflicts must actually occur";
}

TEST(Paging, DaemonsAndQuantaProduceSystemEvents)
{
    SystemParams prm = quietParams(TmKind::SelectPtm);
    prm.daemonInterval = 50 * 1000;
    prm.daemonRunLength = 2000;
    prm.osQuantum = 100 * 1000;
    System sys(prm);
    ProcId p = sys.createProcess();
    for (unsigned t = 0; t < 6; ++t) { // oversubscribed: 6 on 4
        std::vector<Step> steps;
        for (unsigned i = 0; i < 20; ++i)
            steps.push_back(tx([t](MemCtx m) -> TxCoro {
                for (unsigned b = 0; b < 50; ++b) {
                    co_await m.store(
                        0x100000 + t * 0x10000 + b * blockBytes, b);
                    co_await m.compute(40);
                }
            }));
        sys.addThread(p, std::move(steps));
    }
    sys.run();
    StatSnapshot s = sys.snapshot();
    EXPECT_GT(s.counter("os.context_switches"), 0u);
    EXPECT_GT(s.counter("os.exceptions"), 0u);
    EXPECT_EQ(s.counter("tx.commits"), 6u * 20u);
}

} // namespace
} // namespace ptm
