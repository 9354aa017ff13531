/**
 * @file
 * Wide-machine scaling: banked interconnect interleaving, the
 * direct-execution fast-forward invariants (simulated results and
 * every observer's view, in and out of transactions), footprint-only
 * commit/abort/flush cleanup, configuration validation, and a 64-core
 * audited end-to-end smoke.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "harness/experiment.hh"
#include "mem/mem_system.hh"
#include "mem/timing.hh"
#include "ptm/vts.hh"
#include "sim/config.hh"
#include "sim_test_util.hh"
#include "workloads/workload.hh"

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

/** Sum of per-core counter @p stat ("ff_ops", ...) over @p cores. */
std::uint64_t
coreSum(const StatSnapshot &s, const char *stat, unsigned cores)
{
    std::uint64_t n = 0;
    for (unsigned c = 0; c < cores; ++c)
        n += s.counter("core" + std::to_string(c) + "." + stat);
    return n;
}

/**
 * The fast-forward contract: simulated results (cycles, commits,
 * aborts, memory ops, cache traffic) are bit-identical to the
 * one-event-per-op path (fastForwardOps = 0); only host event counts
 * shrink. This is the entry/exit invariant test — a batch acting past
 * a pending snoop's tick would perturb these totals. On kv, whose ops
 * are almost all transactional, most transactional ops must retire
 * in batches and the event count must at least halve, so losing the
 * transactional batches fails here.
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
        std::uint64_t ff_ops = coreSum(b.snapshot, "ff_ops", ff.numCores);
        EXPECT_GT(ff_ops, 0u) << wl;
        EXPECT_LE(b.snapshot.value("events.executed"),
                  a.snapshot.value("events.executed"))
            << wl;
        if (std::string(wl) == "kv") {
            EXPECT_GT(2 * ff_ops,
                      coreSum(b.snapshot, "tx_mem_ops", ff.numCores));
            EXPECT_LE(b.snapshot.value("events.executed"),
                      0.5 * a.snapshot.value("events.executed"));
        }
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

/** A run of @p p with the cycle profiler, the whole trace ring and
 *  the time series on, batching up to @p ff_ops ops (0 = one event
 *  per op). */
ExperimentResult
observedRun(const char *wl, SystemParams p, unsigned ff_ops)
{
    p.fastForwardOps = ff_ops;
    p.profile.enabled = true;
    p.trace.path = "unused"; // non-empty wires the ring; nothing writes
    p.timeseries.capture = true;
    p.timeseries.interval = 5000;
    ExperimentResult r = runWorkload(wl, p, 0, 4);
    EXPECT_TRUE(r.verified) << wl;
    return r;
}

/** The bytes of the file at @p path (empty when it cannot be read). */
std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
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
 * yields the same cycle accounting, trace records, time-series deltas
 * and durable log bytes as the one-event-per-op reference — and the
 * batches really run under those observers. kv covers every system
 * (its transactions batch too), word-granularity detection and the
 * write-ahead log.
 */
TEST(FastForward, ObserversSeeTheSameRun)
{
    struct Run
    {
        const char *wl;
        SystemParams p;
        std::string label;
    };
    std::vector<Run> runs = {
        {"fft", quietParams(TmKind::SelectPtm), "sel-ptm"},
        {"radix", quietParams(TmKind::Locks), "locks"},
    };
    for (TmKind kind : {TmKind::Serial, TmKind::Locks, TmKind::CopyPtm,
                        TmKind::SelectPtm, TmKind::Vtm, TmKind::VcVtm})
        runs.push_back({"kv", quietParams(kind), tmKindName(kind)});
    // Small caches keep committed words dirty under transactional
    // stores, so word-mode persists happen mid-batch.
    SystemParams wd = tinyCacheParams(TmKind::SelectPtm);
    wd.granularity = Granularity::WordCache;
    wd.trace.bufferEvents = std::size_t(1) << 18; // every spill kept
    runs.push_back({"kv", wd, "sel-ptm wd:cache small caches"});
    SystemParams wal = quietParams(TmKind::SelectPtm);
    wal.persist.policy = Durability::Wal;
    runs.push_back({"kv", wal, "sel-ptm wal"});

    for (Run &run : runs) {
        SCOPED_TRACE(std::string(run.wl) + "/" + run.label);
        const std::string dump = testing::TempDir() + "/ff_observers.wal";
        if (run.p.persist.enabled())
            run.p.persist.walPath = dump;
        ExperimentResult a = observedRun(run.wl, run.p, 0);
        const std::string ref_log = fileBytes(dump);
        ExperimentResult b = observedRun(run.wl, run.p, 32);
        if (run.p.persist.enabled()) {
            EXPECT_FALSE(ref_log.empty());
            EXPECT_EQ(ref_log, fileBytes(dump));
            std::remove(dump.c_str());
        }
        const unsigned cores = run.p.tmKind == TmKind::Serial ? 1 : 4;
        EXPECT_GT(coreSum(b.snapshot, "ff_ops", cores), 0u);
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

/**
 * The same inside a transaction: stores to a watched word between
 * short compute ops of a TxStep keep their ticks. The first of them
 * overwrites dirty committed data, whose writeback records and posts
 * at the current tick, so it is refused mid-batch and replays at its
 * own tick — in block mode (the whole-line writeback, with its
 * Writeback record) and in word mode (the per-word persist).
 */
TEST(FastForward, TxStoresAndCommittedWritebacksKeepTheirTicks)
{
    constexpr Addr kWord = 0x40000;
    struct Seen
    {
        std::vector<std::tuple<Tick, TraceEventType, std::uint64_t>>
            recs;
        Tick cycles = 0;
        std::uint64_t writebacks = 0;
        std::uint64_t ffOps = 0;
    };
    auto runOnce = [](Granularity g, unsigned ff_ops) {
        SystemParams p = quietParams(TmKind::SelectPtm);
        p.numCores = 1;
        p.granularity = g;
        p.fastForwardOps = ff_ops;
        p.trace.path = "unused";
        p.trace.categories =
            traceCatMask(TraceCat::Watch) | traceCatMask(TraceCat::Cache);
        System sys(p);
        ProcId proc = sys.createProcess();
        sys.readWord32(proc, kWord);
        sys.tracer().setWatchAddr(
            sys.os().translate(0, proc, kWord, false).paddr);
        std::vector<Step> steps;
        // Leave the watched word dirty and committed in the L2.
        steps.push_back(plain([](MemCtx m) -> TxCoro {
            co_await m.store(kWord, 100);
        }));
        steps.push_back(tx([](MemCtx m) -> TxCoro {
            for (unsigned i = 0; i < 9; ++i) {
                co_await m.compute(3);
                co_await m.store(kWord, i);
            }
        }));
        sys.addThread(proc, std::move(steps));
        Seen s;
        s.cycles = sys.run();
        EXPECT_EQ(sys.readWord32(proc, kWord), 8u);
        for (const TraceEvent &e : sys.tracer().snapshot())
            s.recs.emplace_back(e.tick, e.type, e.a0);
        StatSnapshot snap = sys.snapshot();
        s.writebacks = snap.counter("mem.writebacks");
        s.ffOps = snap.counter("core0.ff_ops");
        return s;
    };
    for (Granularity g : {Granularity::Block, Granularity::WordCache}) {
        SCOPED_TRACE(granularityName(g));
        Seen ref = runOnce(g, 0);
        Seen got = runOnce(g, 32);
        EXPECT_EQ(ref.ffOps, 0u);
        EXPECT_GE(got.ffOps, 8u); // the tx's later stores hit in-batch
        EXPECT_GE(ref.writebacks, 1u);
        EXPECT_EQ(got.writebacks, ref.writebacks);
        EXPECT_EQ(got.cycles, ref.cycles);
        auto watches = std::count_if(
            ref.recs.begin(), ref.recs.end(), [](const auto &r) {
                return std::get<1>(r) == TraceEventType::Watchpoint;
            });
        EXPECT_EQ(watches, 10); // the plain store and nine tx stores
        if (g == Granularity::Block) {
            EXPECT_TRUE(std::any_of(
                ref.recs.begin(), ref.recs.end(), [](const auto &r) {
                    return std::get<1>(r) == TraceEventType::Writeback;
                }));
        }
        EXPECT_EQ(got.recs, ref.recs);
    }
}

// ------------------------------------------- footprint-only cleanup

/**
 * L2 marks and L1 entries anywhere in the machine that still name
 * @p tx: the full-cache walk the footprint cleanup replaced.
 */
unsigned
leftoverState(System &sys, TxId tx)
{
    unsigned n = 0;
    for (CoreId c = 0; c < sys.params().numCores; ++c) {
        sys.mem().l2(c).forEachValid([&](CacheLine &l) {
            n += l.findMark(tx) != nullptr;
        });
        sys.mem().l1(c).forEachValid([&](L1Filter::Entry &e) {
            n += e.txId == tx;
        });
    }
    return n;
}

/** Counts of clean-up sites checked, and of leftovers found. */
struct CleanupChecks
{
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t flushes = 0;
    std::uint64_t leftovers = 0;
    /** Aborts evictions made while a flush ran (mem.ctxsw_flush_aborts). */
    std::uint64_t flushAborts = 0;
};

/**
 * Walks the machine after every tx flush: a chaos TxFlush records its
 * ChaosInject once the flush is done; a flush-on-context-switch
 * preemption records its CtxSwitch just before flushing, so the walk
 * runs in a same-tick event after it (the preempted thread cannot run
 * again before the context-switch latency).
 */
class FlushChecker : public TraceObserver
{
  public:
    FlushChecker(System &sys, CleanupChecks &out) : sys_(sys), out_(out)
    {}

    void
    observe(const TraceEvent &e) override
    {
        if (e.type == TraceEventType::ChaosInject) {
            if (e.a0 == std::uint64_t(ChaosFault::TxFlush))
                check(e.tx);
            return;
        }
        if (e.a0 != 1 || !sys_.params().flushOnContextSwitch)
            return; // not a preemption, or no flush follows it
        TxId tx = sys_.thread(e.thread).curTx;
        if (tx == invalidTxId)
            return;
        sys_.eq().scheduleIn(0, EventPriority::Stats, [this, tx] {
            if (sys_.txmgr().isLive(tx))
                check(tx);
        });
    }

  private:
    void
    check(TxId tx)
    {
        ++out_.flushes;
        out_.leftovers += leftoverState(sys_, tx);
    }

    System &sys_;
    CleanupChecks &out_;
};

/** Run kv on @p p, walking the machine after every commit, abort and
 *  tx flush for state of the finished (or flushed) transaction. */
CleanupChecks
checkedKvRun(SystemParams p)
{
    WorkloadConfig wcfg;
    wcfg.mode = syncModeFor(p.tmKind);
    if (wcfg.mode == SyncMode::Serial)
        p.numCores = 1;
    auto wl = makeWorkload("kv", wcfg, {{"scale", "0"}});
    System sys(p);
    wl->build(sys);

    CleanupChecks out;
    TxManager &tm = sys.txmgr();
    tm.onLogicalCommit = [&, hook = tm.onLogicalCommit](TxId tx) {
        hook(tx);
        ++out.commits;
        out.leftovers += leftoverState(sys, tx);
    };
    tm.onLogicalAbort = [&, hook = tm.onLogicalAbort](TxId tx) {
        hook(tx);
        ++out.aborts;
        out.leftovers += leftoverState(sys, tx);
    };
    FlushChecker flushes(sys, out);
    sys.tracer().subscribe(&flushes, {TraceEventType::ChaosInject,
                                      TraceEventType::CtxSwitch});
    sys.run();
    out.flushAborts = sys.snapshot().counter("mem.ctxsw_flush_aborts");
    EXPECT_TRUE(wl->verify(sys));
    return out;
}

/**
 * Commit, abort and tx-flush clean up through the transaction's
 * footprint, not a cache walk; a walk after each finds nothing left.
 * Small caches make lines evict and slots get reused under live
 * footprints.
 */
TEST(FootprintCleanup, LeavesNoMarkOrL1EntryBehind)
{
    for (TmKind kind : {TmKind::Serial, TmKind::Locks, TmKind::CopyPtm,
                        TmKind::SelectPtm, TmKind::Vtm, TmKind::VcVtm}) {
        SCOPED_TRACE(tmKindName(kind));
        CleanupChecks c = checkedKvRun(tinyCacheParams(kind));
        EXPECT_EQ(c.leftovers, 0u);
        if (syncModeFor(kind) == SyncMode::Tx) {
            EXPECT_GT(c.commits, 0u);
            EXPECT_GT(c.aborts, 0u);
        }
    }
}

TEST(FootprintCleanup, FlushesLeaveNothingBehind)
{
    SystemParams chaos = tinyCacheParams(TmKind::SelectPtm);
    chaos.chaos.enabled = true;
    chaos.chaos.plan = std::uint32_t(ChaosFault::TxFlush);
    chaos.chaos.interval = 3000;
    SystemParams chaos_wd = chaos;
    chaos_wd.granularity = Granularity::WordCache;
    // Daemon preemptions switch threads out mid-transaction.
    SystemParams vtm_switch = tinyCacheParams(TmKind::Vtm);
    vtm_switch.flushOnContextSwitch = true;
    vtm_switch.daemonInterval = 3000;
    SystemParams wd_switch = vtm_switch;
    wd_switch.tmKind = TmKind::SelectPtm;
    wd_switch.granularity = Granularity::WordCache;
    const std::pair<const char *, SystemParams> runs[] = {
        {"chaos flush", chaos},
        {"chaos flush wd:cache", chaos_wd},
        {"vtm flush-on-switch", vtm_switch},
        {"wd:cache flush-on-switch", wd_switch},
    };
    for (const auto &[label, p] : runs) {
        SCOPED_TRACE(label);
        CleanupChecks c = checkedKvRun(p);
        EXPECT_GT(c.flushes, 0u);
        EXPECT_GT(c.commits, 0u);
        EXPECT_EQ(c.leftovers, 0u);
        if (p.granularity == Granularity::WordCache) {
            EXPECT_GT(c.flushAborts, 0u); // multi-writer evictions
        }
    }
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
