/**
 * @file
 * Unit tests for the cycle-accounting profiler (sim/profile) and the
 * event queue's executed-event / host-profile accounting: synthetic
 * phase-machine sequences under a manual clock, in-transaction
 * execution on a real run, nested PhaseGuard scopes, exactness
 * (bucket sums == elapsed ticks) on a real profiled workload run, and
 * the per-priority executed-event counters.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "sim/event_queue.hh"
#include "sim/profile.hh"
#include "sim_test_util.hh"

namespace ptm
{
namespace
{

std::uint64_t
bucket(const ProfSnapshot &s, unsigned core, ProfBucket b)
{
    return s.cores.at(core)[unsigned(b)];
}

/** A profiler driven by a test-owned manual clock. */
struct ManualProfiler
{
    Tick now = 0;
    CycleProfiler prof;

    explicit ManualProfiler(unsigned cores)
    {
        prof.setClock([this] { return now; });
        prof.configure(cores);
    }
};

TEST(CycleProfiler, SetAccruesIntoOutgoingPhase)
{
    ManualProfiler m(1);
    m.now = 100;
    m.prof.set(0, ProfBucket::NonTx); // [0,100) was Idle
    m.now = 250;
    m.prof.set(0, ProfBucket::Barrier); // [100,250) was NonTx
    m.prof.finish(300);                 // [250,300) was Barrier

    ProfSnapshot s = m.prof.snapshot();
    EXPECT_EQ(bucket(s, 0, ProfBucket::Idle), 100u);
    EXPECT_EQ(bucket(s, 0, ProfBucket::NonTx), 150u);
    EXPECT_EQ(bucket(s, 0, ProfBucket::Barrier), 50u);
    EXPECT_EQ(s.coreTotal(0), 300u);
    EXPECT_EQ(s.elapsed, 300u);
}

TEST(CycleProfiler, PushPopNestsAndRestores)
{
    ManualProfiler m(1);
    m.prof.set(0, ProfBucket::NonTx);
    m.now = 10;
    m.prof.push(0, ProfBucket::StallL2); // NonTx += 10
    m.now = 35;
    m.prof.pop(0); // StallL2 += 25, back to NonTx
    m.prof.finish(50);

    ProfSnapshot s = m.prof.snapshot();
    EXPECT_EQ(bucket(s, 0, ProfBucket::NonTx), 25u);
    EXPECT_EQ(bucket(s, 0, ProfBucket::StallL2), 25u);
    EXPECT_EQ(s.coreTotal(0), 50u);
}

TEST(CycleProfiler, NestedGuardsUnwindInOrder)
{
    ManualProfiler m(1);
    m.prof.set(0, ProfBucket::NonTx);
    {
        PhaseGuard outer(m.prof, 0, ProfBucket::StallMem);
        m.now = 40;
        {
            PhaseGuard inner(m.prof, 0, ProfBucket::StallXlat);
            m.now = 70;
        } // StallXlat += 30
        m.now = 100;
    } // StallMem += 40 + 30
    m.prof.finish(120);

    ProfSnapshot s = m.prof.snapshot();
    EXPECT_EQ(bucket(s, 0, ProfBucket::StallXlat), 30u);
    EXPECT_EQ(bucket(s, 0, ProfBucket::StallMem), 70u);
    EXPECT_EQ(bucket(s, 0, ProfBucket::NonTx), 20u);
    EXPECT_EQ(s.coreTotal(0), 120u);
}

// In-transaction execution lands in TxExec on a real run, whatever the
// attempt's outcome; plain steps land in NonTx.
TEST(CycleProfiler, TxExecutionLandsInTxExec)
{
    SystemParams prm = test::quietParams(TmKind::SelectPtm);
    prm.profile.enabled = true;
    System sys(prm);
    ProcId p = sys.createProcess();
    for (unsigned t = 0; t < 2; ++t) {
        std::vector<Step> steps;
        for (unsigned i = 0; i < 10; ++i) {
            steps.push_back(test::tx([](MemCtx m) -> TxCoro {
                std::uint64_t v = co_await m.load(0x40000);
                co_await m.compute(300);
                co_await m.store(0x40000, std::uint32_t(v + 1));
            }));
            steps.push_back(test::plain([](MemCtx m) -> TxCoro {
                co_await m.compute(200);
            }));
        }
        sys.addThread(p, std::move(steps));
    }
    sys.run();
    EXPECT_EQ(sys.readWord32(p, 0x40000), 20u);

    ProfSnapshot s = sys.profiler().snapshot();
    EXPECT_GE(s.bucketTotal(ProfBucket::TxExec), 20u * 300u);
    EXPECT_GE(s.bucketTotal(ProfBucket::NonTx), 20u * 200u);
    for (unsigned c = 0; c < s.cores.size(); ++c)
        EXPECT_EQ(s.coreTotal(c), s.elapsed);
}

TEST(CycleProfiler, CollapseAbandonsNestedPhases)
{
    ManualProfiler m(1);
    m.prof.set(0, ProfBucket::NonTx);
    m.prof.push(0, ProfBucket::StallMem);
    m.prof.push(0, ProfBucket::StallXlat);
    m.now = 30;
    // Abort path: the scheduled pops are abandoned wholesale.
    m.prof.collapse(0, ProfBucket::TxAbort);
    m.now = 50;
    m.prof.set(0, ProfBucket::Idle);
    m.prof.finish(50);

    ProfSnapshot s = m.prof.snapshot();
    EXPECT_EQ(bucket(s, 0, ProfBucket::StallXlat), 30u);
    EXPECT_EQ(bucket(s, 0, ProfBucket::TxAbort), 20u);
    EXPECT_EQ(s.coreTotal(0), 50u);
}

TEST(CycleProfiler, CoresAccountIndependently)
{
    ManualProfiler m(2);
    m.now = 40;
    m.prof.set(0, ProfBucket::NonTx); // core 1 untouched: stays Idle
    m.prof.finish(100);

    ProfSnapshot s = m.prof.snapshot();
    EXPECT_EQ(bucket(s, 0, ProfBucket::Idle), 40u);
    EXPECT_EQ(bucket(s, 0, ProfBucket::NonTx), 60u);
    EXPECT_EQ(bucket(s, 1, ProfBucket::Idle), 100u);
    EXPECT_EQ(s.coreTotal(0), 100u);
    EXPECT_EQ(s.coreTotal(1), 100u);
    EXPECT_EQ(s.bucketTotal(ProfBucket::Idle), 140u);
}

TEST(CycleProfiler, DisabledProfilerRecordsNothing)
{
    CycleProfiler prof; // never configured
    EXPECT_FALSE(prof.active());
    prof.set(0, ProfBucket::NonTx); // must all be single-branch no-ops
    prof.push(0, ProfBucket::StallMem);
    prof.pop(0);
    prof.charge(ProfCharge::MetaLookup, 1000);
    prof.finish(500);

    ProfSnapshot s = prof.snapshot();
    EXPECT_FALSE(s.enabled);
    EXPECT_TRUE(s.cores.empty());
    EXPECT_EQ(s.charges[unsigned(ProfCharge::MetaLookup)], 0u);
    EXPECT_FALSE(CycleProfiler::nil().active());
}

TEST(CycleProfiler, ChargesAccumulateIndependently)
{
    ManualProfiler m(1);
    m.prof.charge(ProfCharge::MetaLookup, 30);
    m.prof.charge(ProfCharge::MetaLookup, 12);
    m.prof.charge(ProfCharge::SwapIo, 7);
    m.prof.finish(0);

    ProfSnapshot s = m.prof.snapshot();
    EXPECT_EQ(s.charges[unsigned(ProfCharge::MetaLookup)], 42u);
    EXPECT_EQ(s.charges[unsigned(ProfCharge::SwapIo)], 7u);
    EXPECT_EQ(s.charges[unsigned(ProfCharge::PageFault)], 0u);
}

// The whole-point property on a real run: every tick of every core is
// attributed to exactly one bucket, so per-core sums equal the run's
// elapsed ticks exactly.
TEST(CycleProfiler, RealRunBucketsSumToElapsed)
{
    SystemParams prm;
    prm.tmKind = TmKind::SelectPtm;
    prm.profile.enabled = true;
    ExperimentResult r = runWorkload("fft", prm, 0, 2);

    ASSERT_TRUE(r.verified);
    ASSERT_TRUE(r.profile.enabled);
    ASSERT_GE(r.profile.cores.size(), 2u);
    EXPECT_GT(r.profile.elapsed, 0u);
    for (unsigned c = 0; c < r.profile.cores.size(); ++c)
        EXPECT_EQ(r.profile.coreTotal(c), r.profile.elapsed)
            << "core " << c << " buckets do not sum to elapsed";
    // The fault/swap path ran (fft at scale 0 still pages memory in),
    // and a committed-work overlay was recorded.
    EXPECT_GT(
        r.profile.charges[unsigned(ProfCharge::CommittedTxTicks)], 0u);
}

TEST(EventQueue, PerPriorityExecutedCounts)
{
    EventQueue eq;
    int ran = 0;
    eq.schedule(10, EventPriority::Cpu, [&] { ++ran; });
    eq.schedule(10, EventPriority::Cpu, [&] { ++ran; });
    eq.schedule(20, EventPriority::Memory, [&] { ++ran; });
    auto dead = eq.schedule(30, EventPriority::Os, [&] { ++ran; });
    dead.cancel(); // tombstoned events must not count as executed
    ASSERT_TRUE(eq.run());

    EXPECT_EQ(ran, 3);
    EXPECT_EQ(eq.scheduledEvents(), 4u);
    EXPECT_EQ(eq.executedEvents(EventPriority::Cpu), 2u);
    EXPECT_EQ(eq.executedEvents(EventPriority::Memory), 1u);
    EXPECT_EQ(eq.executedEvents(EventPriority::Os), 0u);
    EXPECT_EQ(eq.executedEvents(), 3u);
}

TEST(EventQueue, HostProfileCountsPerSite)
{
    EventQueue eq;
    eq.enableHostProfile(1); // sample every event
    std::uint16_t site = eq.siteId("test.site");
    EXPECT_EQ(site, eq.siteId("test.site")) << "ids must be interned";
    for (int i = 0; i < 5; ++i)
        eq.scheduleIn(Tick(i), EventPriority::Cpu, [] {}, site);
    eq.scheduleIn(1, EventPriority::Memory, [] {}); // default site
    ASSERT_TRUE(eq.run());

    HostProfile h = eq.hostProfile();
    ASSERT_TRUE(h.enabled);
    EXPECT_EQ(h.sampleInterval, 1u);
    std::uint64_t site_events = 0, mem_events = 0;
    for (const auto &s : h.sites) {
        if (s.name == "test.site") {
            site_events = s.events;
            EXPECT_EQ(s.sampled, s.events);
        }
        if (s.name == "memory")
            mem_events = s.events;
    }
    EXPECT_EQ(site_events, 5u);
    EXPECT_EQ(mem_events, 1u);
}

} // namespace
} // namespace ptm
