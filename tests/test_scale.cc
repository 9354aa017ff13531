/**
 * @file
 * Wide-machine scaling: banked interconnect interleaving, the
 * direct-execution fast-forward invariants (simulated results and
 * every observer's view), configuration validation, and a 64-core
 * audited end-to-end smoke.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "harness/experiment.hh"
#include "mem/timing.hh"
#include "ptm/vts.hh"
#include "sim/config.hh"
#include "sim_test_util.hh"

namespace ptm
{
namespace
{

using namespace ptm::test;

// ---------------------------------------------------------------- bus

TEST(BankedBus, EveryBlockMapsToExactlyOneBank)
{
    BusModel bus(20, 8);
    ASSERT_EQ(bus.numBanks(), 8u);
    for (Addr block = 0; block < 256 * blockBytes; block += blockBytes) {
        unsigned b = bus.bankOf(block);
        EXPECT_LT(b, 8u);
        // Deterministic: the same block always lands on the same bank.
        EXPECT_EQ(b, bus.bankOf(block));
        // Sub-block addresses share the block's bank.
        EXPECT_EQ(b, bus.bankOf(block + 4));
    }
    // Consecutive blocks interleave round-robin over the banks.
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(bus.bankOf(Addr(i) * blockBytes), i % 8);
}

TEST(BankedBus, SingleBankMatchesSerializedReference)
{
    // At banks=1 the banked model must be the paper's single FIFO bus.
    BusModel one(20, 1);
    BusModel ref(20); // default single bank
    const Addr blocks[] = {0x40, 0x80, 0xc0, 0x40, 0x1000};
    const Tick now[] = {0, 0, 100, 105, 110};
    for (unsigned i = 0; i < 5; ++i)
        EXPECT_EQ(one.reserve(blocks[i], now[i]),
                  ref.reserve(blocks[i], now[i]));
    EXPECT_EQ(one.transactions(), ref.transactions());
    EXPECT_EQ(one.busyCycles(), ref.busyCycles());
}

TEST(BankedBus, PerBankStatsSumToTotals)
{
    BusModel bus(20, 4);
    for (unsigned i = 0; i < 37; ++i)
        bus.reserve(Addr(i) * blockBytes, Tick(i) * 3);
    std::uint64_t tx = 0, busy = 0;
    for (unsigned b = 0; b < bus.numBanks(); ++b) {
        tx += bus.bankTransactions(b);
        busy += bus.bankBusyCycles(b);
    }
    EXPECT_EQ(tx, bus.transactions());
    EXPECT_EQ(busy, bus.busyCycles());
    EXPECT_EQ(tx, 37u);
    EXPECT_EQ(busy, 37u * 20u);
}

TEST(BankedBus, DisjointBanksDoNotQueueBehindEachOther)
{
    BusModel bus(20, 4);
    // Four same-tick requests to four different banks all get the bus
    // immediately; on one bank they would serialize 0/20/40/60.
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(bus.reserve(Addr(i) * blockBytes, 0), 0u);
    // A fifth to bank 0 queues behind the first only.
    EXPECT_EQ(bus.reserve(0, 0), 20u);
}

// ------------------------------------------------- banked VTS cache

TEST(BankedVtsCache, SinglePartitionMatchesPlainCache)
{
    BankedVtsCache banked(8, 1);
    VtsMetaCache plain(8);
    ASSERT_EQ(banked.numPartitions(), 1u);
    for (std::uint64_t k = 0; k < 32; ++k) {
        bool ed_b = false, ed_p = false;
        bool hit_b = banked.access(PageNum(k), k, k % 3 == 0, ed_b);
        bool hit_p = plain.access(k, k % 3 == 0, ed_p);
        EXPECT_EQ(hit_b, hit_p) << k;
        EXPECT_EQ(ed_b, ed_p) << k;
    }
    EXPECT_EQ(banked.hits.value(), plain.hits.value());
    EXPECT_EQ(banked.misses.value(), plain.misses.value());
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

// -------------------------------------------------- config validation

TEST(ValidateParams, AcceptsDefaultsAndWideMachines)
{
    SystemParams p;
    EXPECT_EQ(validateParams(p), "");
    p.numCores = 64;
    p.memBanks = 256;
    p.fastForwardOps = 1000;
    EXPECT_EQ(validateParams(p), "");
}

TEST(ValidateParams, RejectsBadCoreCounts)
{
    SystemParams p;
    p.numCores = 0;
    EXPECT_NE(validateParams(p).find("--cores"), std::string::npos);
    p.numCores = 65;
    EXPECT_NE(validateParams(p).find("64"), std::string::npos);
}

TEST(ValidateParams, RejectsBadBankCounts)
{
    SystemParams p;
    p.memBanks = 0;
    EXPECT_NE(validateParams(p), "");
    p.memBanks = 3;
    EXPECT_NE(validateParams(p).find("power of two"),
              std::string::npos);
    p.memBanks = 512;
    EXPECT_NE(validateParams(p), "");
}

// ------------------------------------------------------ fast-forward

/**
 * The fast-forward contract: simulated results (cycles, commits,
 * aborts, memory ops, cache traffic) are bit-identical to the
 * one-event-per-op path (fastForwardOps = 0); only host event counts
 * shrink. This is the entry/exit invariant test — a batch entered
 * with an open transaction or acting past a pending snoop's tick
 * would perturb these totals.
 */
TEST(FastForward, SimulatedResultsUnchangedEventsFewer)
{
    for (const char *wl : {"fft", "kv"}) {
        SystemParams ff = quietParams(TmKind::SelectPtm);
        SystemParams base = ff;
        base.fastForwardOps = 0;
        ExperimentResult a = runWorkload(wl, base, 0, 4);
        ExperimentResult b = runWorkload(wl, ff, 0, 4);
        ASSERT_TRUE(a.verified);
        ASSERT_TRUE(b.verified);
        EXPECT_EQ(a.cycles, b.cycles) << wl;
        for (const char *stat :
             {"tx.commits", "tx.aborts", "sys.mem_ops", "mem.l1_hits",
              "mem.l2_hits", "mem.misses", "mem.bus_transactions",
              "os.exceptions", "os.context_switches", "os.tlb_misses"})
            if (a.snapshot.has(stat) && b.snapshot.has(stat)) {
                EXPECT_EQ(a.snapshot.counter(stat),
                          b.snapshot.counter(stat))
                    << wl << " " << stat;
            }
        std::uint64_t ff_ops = 0;
        for (unsigned c = 0; c < ff.numCores; ++c)
            ff_ops += b.snapshot.counter(
                "core" + std::to_string(c) + ".ff_ops");
        EXPECT_GT(ff_ops, 0u) << wl;
        EXPECT_LE(b.snapshot.value("events.executed"),
                  a.snapshot.value("events.executed"))
            << wl;
    }
}

TEST(FastForward, ComposesWithOsNoiseAndQuanta)
{
    // Preemption boundaries (quantum + daemon) are batch-exit points;
    // results must stay identical with them enabled.
    SystemParams ff = quietParams(TmKind::SelectPtm);
    ff.osQuantum = 6000;
    ff.daemonInterval = 9000;
    SystemParams base = ff;
    base.fastForwardOps = 0;
    ExperimentResult a = runWorkload("fft", base, 0, 4);
    ExperimentResult b = runWorkload("fft", ff, 0, 4);
    ASSERT_TRUE(a.verified);
    ASSERT_TRUE(b.verified);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.snapshot.counter("tx.commits"),
              b.snapshot.counter("tx.commits"));
    EXPECT_EQ(a.snapshot.counter("os.context_switches"),
              b.snapshot.counter("os.context_switches"));
    EXPECT_EQ(a.snapshot.counter("sys.mem_ops"),
              b.snapshot.counter("sys.mem_ops"));
}

/** A run with the cycle profiler, the whole trace ring and the time
 *  series on, batching up to @p ff_ops ops (0 = one event per op). */
ExperimentResult
observedRun(const char *wl, TmKind kind, unsigned ff_ops)
{
    SystemParams p = quietParams(kind);
    p.fastForwardOps = ff_ops;
    p.profile.enabled = true;
    p.trace.path = "unused"; // non-empty wires the ring; nothing writes
    p.timeseries.capture = true;
    p.timeseries.interval = 5000;
    ExperimentResult r = runWorkload(wl, p, 0, 4);
    EXPECT_TRUE(r.verified) << wl;
    return r;
}

/** One line per time-series interval, minus the host-side counters
 *  batching is allowed to move (events.*, core<N>.ff_*). */
std::vector<std::string>
modelSeries(const TimeseriesCapture &ts)
{
    std::vector<std::string> out;
    for (const TimeseriesInterval &iv : ts.intervals) {
        std::string line = std::to_string(iv.t0) + ".." +
                           std::to_string(iv.t1) +
                           (iv.final_ ? " final" : "");
        for (const auto &c : iv.counters) {
            const std::string &name = ts.counterNames[c.ref];
            if (name.rfind("events.", 0) == 0 ||
                name.find(".ff_") != std::string::npos)
                continue;
            line += " " + name + "=" + std::to_string(c.delta);
        }
        for (const auto &d : iv.dists)
            line += " " + ts.distNames[d.ref] + "=" +
                    std::to_string(d.samples) + "/" +
                    std::to_string(d.sum);
        out.push_back(std::move(line));
    }
    return out;
}

/** Every payload field of a trace record, for equality. */
auto
fields(const TraceEvent &e)
{
    return std::make_tuple(e.tick, e.type, e.core, e.thread, e.tx, e.tx2,
                           e.a0, e.a1, e.v, e.a2);
}

/**
 * Batching is invisible to every observer: with the profiler, the
 * trace ring (all categories) and the time series on, a batched run
 * yields the same cycle accounting, trace records and time-series
 * deltas as the one-event-per-op reference — and the batches really
 * run under those observers.
 */
TEST(FastForward, ObserversSeeTheSameRun)
{
    const std::pair<const char *, TmKind> runs[] = {
        {"fft", TmKind::SelectPtm},
        {"kv", TmKind::SelectPtm},
        {"radix", TmKind::Locks},
    };
    for (const auto &[wl, kind] : runs) {
        SCOPED_TRACE(std::string(wl) + "/" + tmKindName(kind));
        ExperimentResult a = observedRun(wl, kind, 0);
        ExperimentResult b = observedRun(wl, kind, 32);
        std::uint64_t ff_ops = 0;
        for (unsigned c = 0; c < 4; ++c)
            ff_ops += b.snapshot.counter("core" + std::to_string(c) +
                                         ".ff_ops");
        EXPECT_GT(ff_ops, 0u);
        EXPECT_EQ(a.cycles, b.cycles);

        ASSERT_TRUE(a.profile.enabled && b.profile.enabled);
        EXPECT_EQ(a.profile.elapsed, b.profile.elapsed);
        ASSERT_EQ(a.profile.cores.size(), b.profile.cores.size());
        for (std::size_t c = 0; c < a.profile.cores.size(); ++c)
            for (unsigned k = 0; k < profBuckets; ++k)
                EXPECT_EQ(a.profile.cores[c][k], b.profile.cores[c][k])
                    << "core" << c << " "
                    << profBucketName(ProfBucket(k));
        EXPECT_EQ(a.profile.charges, b.profile.charges);

        EXPECT_EQ(a.trace.dropped, 0u);
        EXPECT_EQ(a.trace.recorded, b.trace.recorded);
        ASSERT_EQ(a.trace.events.size(), b.trace.events.size());
        for (std::size_t i = 0; i < a.trace.events.size(); ++i)
            ASSERT_EQ(fields(a.trace.events[i]), fields(b.trace.events[i]))
                << "trace record " << i;

        ASSERT_TRUE(a.timeseries.enabled && b.timeseries.enabled);
        EXPECT_GT(a.timeseries.intervals.size(), 1u);
        EXPECT_EQ(modelSeries(a.timeseries), modelSeries(b.timeseries));
    }
}

/**
 * Watchpoint hits inside a batch carry their own virtual issue ticks,
 * not the tick the batch started at: a thread storing to a watched
 * word between short compute ops records the same ticks batched as
 * one event per op.
 */
TEST(FastForward, WatchpointHitsMidBatchKeepTheirTicks)
{
    constexpr Addr kWord = 0x40000;
    auto watchTicks = [](unsigned ff_ops, std::uint64_t &batched) {
        SystemParams p = quietParams(TmKind::SelectPtm);
        p.numCores = 1;
        p.fastForwardOps = ff_ops;
        p.trace.path = "unused";
        p.trace.categories = traceCatMask(TraceCat::Watch);
        System sys(p);
        ProcId proc = sys.createProcess();
        // Map the page up front so the watchpoint can name its word's
        // physical address.
        sys.readWord32(proc, kWord);
        sys.tracer().setWatchAddr(
            sys.os().translate(0, proc, kWord, false).paddr);
        std::vector<Step> steps;
        steps.push_back(plain([](MemCtx m) -> TxCoro {
            for (unsigned i = 0; i < 9; ++i) {
                co_await m.compute(3);
                co_await m.store(kWord, i);
            }
        }));
        sys.addThread(proc, std::move(steps));
        sys.run();
        EXPECT_EQ(sys.readWord32(proc, kWord), 8u);
        batched = sys.snapshot().counter("core0.ff_ops");
        std::vector<Tick> ticks;
        for (const TraceEvent &e : sys.tracer().snapshot())
            if (e.type == TraceEventType::Watchpoint)
                ticks.push_back(e.tick);
        return ticks;
    };
    std::uint64_t ref_ff = 0, ff = 0;
    std::vector<Tick> ref = watchTicks(0, ref_ff);
    std::vector<Tick> got = watchTicks(32, ff);
    EXPECT_EQ(ref_ff, 0u);
    EXPECT_GE(ff, 8u); // the stores after the first miss hit in-batch
    ASSERT_EQ(ref.size(), 9u);
    EXPECT_TRUE(std::adjacent_find(ref.begin(), ref.end(),
                                   std::greater_equal<Tick>()) ==
                ref.end());
    EXPECT_EQ(got, ref);
}

// ----------------------------------------------- wide-machine smoke

TEST(WideMachine, SixtyFourCoreAuditedRunPasses)
{
    SystemParams p = quietParams(TmKind::SelectPtm);
    p.numCores = 64;
    p.memBanks = 8;
    p.audit.enabled = true;
    ExperimentResult r = runWorkload("fft", p, 0, 64);
    EXPECT_TRUE(r.verified);
    EXPECT_TRUE(r.auditViolations.empty());
    EXPECT_GT(r.auditChecks, 0u);
}

TEST(WideMachine, BankingPreservesResultsAndBankStatsAddUp)
{
    // banks=1 is the bit-exact paper machine; more banks change grant
    // timing (and hence abort/retry counts) but never the functional
    // result or the committed work, and the per-bank occupancy
    // accounting must stay consistent with the aggregate.
    SystemParams one = quietParams(TmKind::SelectPtm);
    one.numCores = 16;
    SystemParams banked = one;
    banked.memBanks = 8;
    ExperimentResult a = runWorkload("radix", one, 0, 16);
    ExperimentResult b = runWorkload("radix", banked, 0, 16);
    EXPECT_TRUE(a.verified);
    EXPECT_TRUE(b.verified);
    // Every transaction commits exactly once under either machine.
    EXPECT_EQ(a.snapshot.counter("tx.commits"),
              b.snapshot.counter("tx.commits"));
    std::uint64_t per_bank = 0;
    for (unsigned i = 0; i < 8; ++i)
        per_bank += b.snapshot.counter(
            "mem.bus_bank" + std::to_string(i) + "_busy_cycles");
    EXPECT_EQ(per_bank, b.snapshot.counter("mem.bus_busy_cycles"));
    EXPECT_GT(per_bank, 0u);
}

} // namespace
} // namespace ptm
