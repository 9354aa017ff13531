/**
 * @file
 * Abort-accounting tests: every AbortReason is induced on purpose and
 * the per-cause counters must (a) individually move, (b) sum exactly
 * to the abort total, and (c) agree with the TxAbort events in the
 * trace ring, whose payload carries the reason.
 */

#include <gtest/gtest.h>

#include <array>

#include "sim_test_util.hh"
#include "tx/tx_manager.hh"

namespace ptm
{
namespace
{

using namespace ptm::test;

constexpr Addr kBase = 0x50000;

/** Per-cause abort counts read back from a finished system. */
struct AbortBreakdown
{
    std::uint64_t total = 0;
    std::array<std::uint64_t, 4> byReason{}; // indexed by AbortReason
};

AbortBreakdown
breakdownOf(System &sys)
{
    const TxManager &tm = sys.txmgr();
    AbortBreakdown b;
    b.total = tm.aborts.value();
    b.byReason[unsigned(AbortReason::ConflictLost)] =
        tm.abortsConflict.value();
    b.byReason[unsigned(AbortReason::NonTxConflict)] =
        tm.abortsNonTx.value();
    b.byReason[unsigned(AbortReason::MultiWriterEviction)] =
        tm.abortsMultiWriter.value();
    b.byReason[unsigned(AbortReason::Explicit)] =
        tm.abortsExplicit.value();
    return b;
}

/**
 * The invariant under test: the per-cause counters partition the
 * total, and the traced TxAbort events reproduce the same partition
 * (requires the ring not to have dropped anything).
 */
void
checkAccounting(System &sys)
{
    AbortBreakdown b = breakdownOf(sys);
    EXPECT_EQ(b.byReason[0] + b.byReason[1] + b.byReason[2] +
                  b.byReason[3],
              b.total)
        << "per-cause abort counters must sum to the abort total";

    ASSERT_EQ(sys.tracer().dropped(), 0u)
        << "ring too small: trace comparison would be meaningless";
    std::array<std::uint64_t, 4> traced{};
    std::uint64_t traced_total = 0;
    for (const TraceEvent &e : sys.tracer().snapshot()) {
        if (e.type != TraceEventType::TxAbort)
            continue;
        ++traced_total;
        ASSERT_LT(e.a0, 4u) << "TxAbort payload is not a reason";
        ++traced[e.a0];
    }
    EXPECT_EQ(traced_total, b.total);
    for (unsigned r = 0; r < 4; ++r)
        EXPECT_EQ(traced[r], b.byReason[r])
            << "trace disagrees with counter for reason " << r;
}

SystemParams
tracedParams(SystemParams prm)
{
    prm.trace.path = "unused"; // non-empty enables wiring
    prm.trace.categories = traceCatMask(TraceCat::Tx);
    prm.trace.bufferEvents = std::size_t(1) << 18;
    return prm;
}

/** Conflicting read-modify-write increments: ConflictLost aborts. */
TEST(AbortAccounting, ConflictLostAborts)
{
    System sys(tracedParams(quietParams(TmKind::SelectPtm)));
    ProcId p = sys.createProcess();
    constexpr unsigned kThreads = 4, kIters = 30;
    for (unsigned t = 0; t < kThreads; ++t) {
        std::vector<Step> steps;
        for (unsigned i = 0; i < kIters; ++i) {
            steps.push_back(tx([](MemCtx m) -> TxCoro {
                std::uint64_t v = co_await m.load(kBase);
                co_await m.compute(50);
                co_await m.store(kBase, std::uint32_t(v + 1));
            }));
        }
        sys.addThread(p, std::move(steps));
    }
    sys.run();
    EXPECT_EQ(sys.readWord32(p, kBase), kThreads * kIters);
    AbortBreakdown b = breakdownOf(sys);
    EXPECT_GT(b.byReason[unsigned(AbortReason::ConflictLost)], 0u);
    checkAccounting(sys);
}

/** A plain store into a transaction's write set: NonTxConflict. */
TEST(AbortAccounting, NonTxConflictAborts)
{
    System sys(tracedParams(quietParams(TmKind::SelectPtm)));
    ProcId p = sys.createProcess();
    std::vector<Step> txer;
    for (unsigned i = 0; i < 20; ++i) {
        txer.push_back(tx([](MemCtx m) -> TxCoro {
            std::uint64_t v = co_await m.load(kBase);
            co_await m.compute(400);
            co_await m.store(kBase, std::uint32_t(v + 1));
        }));
    }
    sys.addThread(p, std::move(txer));
    std::vector<Step> plainer;
    for (unsigned i = 0; i < 20; ++i) {
        plainer.push_back(plain([i](MemCtx m) -> TxCoro {
            co_await m.compute(300);
            co_await m.store(kBase + 4, i); // same block, plain
        }));
    }
    sys.addThread(p, std::move(plainer));
    sys.run();
    AbortBreakdown b = breakdownOf(sys);
    EXPECT_GT(b.byReason[unsigned(AbortReason::NonTxConflict)], 0u)
        << "the non-transactional writer never hit the tx block";
    checkAccounting(sys);
}

/** wd:cache evictions of multi-writer blocks: MultiWriterEviction. */
TEST(AbortAccounting, MultiWriterEvictionAborts)
{
    SystemParams prm = tinyCacheParams(TmKind::SelectPtm);
    prm.granularity = Granularity::WordCache;
    prm.l2Bytes = 4096;
    System sys(tracedParams(prm));
    ProcId p = sys.createProcess();
    constexpr unsigned kBlocks = 200; // >> 64-line L2
    for (unsigned t = 0; t < 4; ++t) {
        std::vector<Step> steps;
        for (unsigned i = 0; i < 3; ++i) {
            steps.push_back(tx([t](MemCtx m) -> TxCoro {
                for (unsigned b = 0; b < kBlocks; ++b)
                    co_await m.store(kBase + Addr(b) * blockBytes +
                                         4 * t,
                                     b * 16 + t);
            }));
        }
        sys.addThread(p, std::move(steps));
    }
    sys.run();
    AbortBreakdown b = breakdownOf(sys);
    EXPECT_GT(b.byReason[unsigned(AbortReason::MultiWriterEviction)],
              0u);
    checkAccounting(sys);
}

/** Chaos-injected forced aborts: Explicit. */
TEST(AbortAccounting, InjectedExplicitAborts)
{
    SystemParams prm = tinyCacheParams(TmKind::SelectPtm);
    prm.chaos.enabled = true;
    prm.chaos.seed = 5;
    prm.chaos.plan = chaosFaultMask(ChaosFault::ExplicitAbort);
    prm.chaos.interval = 4000;
    System sys(tracedParams(prm));
    ProcId p = sys.createProcess();
    for (unsigned t = 0; t < 4; ++t) {
        std::vector<Step> steps;
        for (unsigned i = 0; i < 3; ++i) {
            steps.push_back(tx([t, i](MemCtx m) -> TxCoro {
                for (unsigned b = 0; b < 16; ++b)
                    co_await m.store(kBase +
                                         Addr(t) * 64 * blockBytes +
                                         Addr(b) * blockBytes,
                                     100 * t + 10 * i + b);
            }));
        }
        sys.addThread(p, std::move(steps));
    }
    sys.run();
    AbortBreakdown b = breakdownOf(sys);
    EXPECT_GT(b.byReason[unsigned(AbortReason::Explicit)], 0u)
        << "no injection found a live victim; shorten the interval";
    EXPECT_EQ(b.byReason[unsigned(AbortReason::Explicit)],
              sys.chaos().injectedAborts.value());
    checkAccounting(sys);
}

/**
 * Every observer on in one run: the traced TxAbort records and the
 * heatmap's per-cause totals both equal tx.aborts_*.
 */
TEST(AbortAccounting, ObserversAgreeOnOneRun)
{
    SystemParams prm = tracedParams(quietParams(TmKind::SelectPtm));
    prm.heatmap.enabled = true;
    prm.profile.enabled = true;
    prm.chaos.enabled = true;
    prm.chaos.seed = 5;
    prm.chaos.plan = chaosFaultMask(ChaosFault::ExplicitAbort);
    prm.chaos.interval = 4000;
    System sys(prm);
    ASSERT_NE(sys.heatmap(), nullptr);
    ASSERT_NE(sys.flightrec(), nullptr);
    ProcId p = sys.createProcess();
    for (unsigned t = 0; t < 4; ++t) {
        std::vector<Step> steps;
        for (unsigned i = 0; i < 30; ++i) {
            steps.push_back(tx([](MemCtx m) -> TxCoro {
                std::uint64_t v = co_await m.load(kBase);
                co_await m.compute(50);
                co_await m.store(kBase, std::uint32_t(v + 1));
            }));
        }
        sys.addThread(p, std::move(steps));
    }
    sys.run();
    EXPECT_EQ(sys.readWord32(p, kBase), 4u * 30u);

    AbortBreakdown b = breakdownOf(sys);
    EXPECT_GT(b.byReason[unsigned(AbortReason::ConflictLost)], 0u);
    EXPECT_GT(b.byReason[unsigned(AbortReason::Explicit)], 0u);
    checkAccounting(sys);
    HeatmapSnapshot heat = sys.heatmap()->snapshot();
    for (unsigned r = 0; r < 4; ++r)
        EXPECT_EQ(heat.abortsTotal[r], b.byReason[r])
            << "heatmap disagrees with counter for reason " << r;
}

/** All reasons at once still partition the total exactly. */
TEST(AbortAccounting, MixedReasonsStillSum)
{
    SystemParams prm = tinyCacheParams(TmKind::SelectPtm);
    prm.granularity = Granularity::WordCache;
    prm.l2Bytes = 4096;
    prm.chaos.enabled = true;
    prm.chaos.seed = 9;
    prm.chaos.plan = chaosFaultMask(ChaosFault::ExplicitAbort);
    prm.chaos.interval = 20000;
    System sys(tracedParams(prm));
    ProcId p = sys.createProcess();
    constexpr unsigned kBlocks = 120;
    for (unsigned t = 0; t < 4; ++t) {
        std::vector<Step> steps;
        for (unsigned i = 0; i < 2; ++i) {
            steps.push_back(tx([t](MemCtx m) -> TxCoro {
                for (unsigned b = 0; b < kBlocks; ++b)
                    co_await m.store(kBase + Addr(b) * blockBytes +
                                         4 * t,
                                     b * 16 + t);
            }));
        }
        sys.addThread(p, std::move(steps));
    }
    sys.addThread(p, {plain([](MemCtx m) -> TxCoro {
                      co_await m.compute(5000);
                      co_await m.store(kBase + 8, 77);
                  })});
    sys.run();
    AbortBreakdown b = breakdownOf(sys);
    EXPECT_GT(b.total, 0u);
    checkAccounting(sys);
}

} // namespace
} // namespace ptm
