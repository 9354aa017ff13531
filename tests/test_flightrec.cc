/**
 * @file
 * Tests for the transaction flight recorder and post-mortem
 * forensics: the starvation-grant post-mortem must name the actual
 * killer chain (every DAG node cross-checked against the traced
 * TxAbort / ConflictEdge events of the same run), per-record lost
 * ticks must reconcile exactly with the cycle profiler, ring overflow
 * must be counted, restricting the traced categories must not change
 * a post-mortem, and forensics must never perturb simulated timing.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "harness/forensics_io.hh"
#include "harness/system.hh"
#include "harness/trace_io.hh"
#include "sim/flightrec.hh"
#include "sim/profile.hh"
#include "sim/trace.hh"
#include "sim_test_util.hh"
#include "tx/tx_manager.hh"
#include "workloads/workload.hh"

namespace ptm
{
namespace
{

using test::quietParams;
using test::tx;

constexpr Addr kBase = 0x40000;

/** Contention preset: one shared counter hammered by every thread,
 *  with the retry budget low enough that the starvation token fires. */
SystemParams
contendedParams()
{
    SystemParams prm = quietParams(TmKind::SelectPtm);
    prm.contention.randomBackoff = true;
    prm.contention.watchdogThreshold = 3;
    prm.contention.retryBudget = 3;
    return prm;
}

void
addCounterThreads(System &sys, ProcId p, unsigned threads,
                  unsigned iters)
{
    for (unsigned t = 0; t < threads; ++t) {
        std::vector<Step> steps;
        for (unsigned i = 0; i < iters; ++i) {
            steps.push_back(tx([](MemCtx m) -> TxCoro {
                std::uint64_t v = co_await m.load(kBase);
                co_await m.compute(300);
                co_await m.store(kBase, std::uint32_t(v + 1));
            }));
        }
        sys.addThread(p, std::move(steps));
    }
}

/**
 * The killer chain a starvation-grant post-mortem reports must be the
 * chain that actually happened: every non-terminal DAG node matches a
 * traced TxAbort event (same tx, tick, and cause), every conflict
 * edge matches a traced ConflictEdge (same winner, loser, and tick),
 * and the edge structure walks strictly back in time.
 */
TEST(FlightRecorder, StarvationGrantPostmortemMatchesTrace)
{
    SystemParams prm = contendedParams();
    prm.forensics.postmortemPath = "stderr"; // arms capture
    prm.trace.path = "unused"; // configures the tracer; nothing writes
    System sys(prm);
    ASSERT_NE(sys.flightrec(), nullptr);
    ASSERT_TRUE(sys.flightrec()->armed());
    // Keep the reports; skip the System's stderr emission.
    sys.flightrec()->onReport = nullptr;

    ProcId p = sys.createProcess();
    constexpr unsigned kThreads = 4, kIters = 20;
    addCounterThreads(sys, p, kThreads, kIters);
    sys.run();

    EXPECT_EQ(sys.readWord32(p, kBase), kThreads * kIters);
    ASSERT_GT(sys.txmgr().starvationGrants.value(), 0u);

    // Index the run's traced abort and conflict events. The
    // cross-check is only sound if the ring kept everything.
    ASSERT_EQ(sys.tracer().dropped(), 0u);
    std::set<std::tuple<TxId, Tick, std::uint64_t>> aborts;
    std::set<std::tuple<TxId, TxId, Tick>> edges;
    for (const TraceEvent &ev : sys.tracer().snapshot()) {
        if (ev.type == TraceEventType::TxAbort)
            aborts.insert({ev.tx, ev.tick, ev.a0});
        else if (ev.type == TraceEventType::ConflictEdge)
            edges.insert({ev.tx, ev.tx2, ev.tick});
    }

    const auto &reports = sys.flightrec()->reports();
    ASSERT_FALSE(reports.empty());
    unsigned grants = 0, chained = 0;
    for (const PostmortemReport &r : reports) {
        if (r.trigger != PostmortemTrigger::StarvationGrant)
            continue;
        ++grants;
        ASSERT_FALSE(r.nodes.empty());
        // The subject's own aborts lead the node list.
        EXPECT_EQ(r.nodes[0].tx, r.subject);
        EXPECT_EQ(r.nodes[0].generation, 0u);

        for (const PostmortemNode &n : r.nodes) {
            if (n.tick == 0)
                continue; // terminal: no recorded abort
            EXPECT_TRUE(aborts.count(
                {n.tx, n.tick, std::uint64_t(n.cause)}))
                << "node tx " << n.tx << " @ " << n.tick
                << " names an abort the trace never saw";
            if (n.winner != invalidTxId &&
                AbortReason(n.cause) == AbortReason::ConflictLost) {
                EXPECT_TRUE(edges.count({n.winner, n.tx, n.tick}))
                    << "winner tx " << n.winner << " over tx " << n.tx
                    << " @ " << n.tick
                    << " names an edge the trace never saw";
            }
        }
        for (const PostmortemEdge &e : r.edges) {
            ASSERT_LT(e.from, r.nodes.size());
            ASSERT_LT(e.to, r.nodes.size());
            const PostmortemNode &from = r.nodes[e.from];
            const PostmortemNode &to = r.nodes[e.to];
            // An edge is exactly "my killer's previous abort".
            EXPECT_EQ(from.winner, to.tx);
            if (to.tick != 0) {
                EXPECT_LT(to.tick, from.tick);
            }
        }
        if (!r.edges.empty())
            ++chained;

        // Involved records ride along, sorted by id, subject included.
        bool subject_seen = false;
        for (std::size_t i = 0; i < r.records.size(); ++i) {
            if (i > 0) {
                EXPECT_LT(r.records[i - 1].id, r.records[i].id);
            }
            if (r.records[i].id == r.subject) {
                subject_seen = true;
                EXPECT_GT(r.records[i].abortCount, 0u);
            }
        }
        EXPECT_TRUE(subject_seen);
    }
    EXPECT_GT(grants, 0u);
    EXPECT_GT(chained, 0u) << "no grant post-mortem had a killer chain";
}

/**
 * Per-record lost ticks are the one account of wasted work: on kv at
 * zipf 0.99 with a ring deep enough to keep every transaction, the
 * records folded from it sum exactly to the profiler's
 * aborted_tx_ticks charge.
 */
TEST(FlightRecorder, LostTicksSumToAbortedTxTicks)
{
    SystemParams prm = quietParams(TmKind::SelectPtm);
    prm.profile.enabled = true;
    prm.forensics.depth = 1u << 20;
    WorkloadConfig wcfg;
    auto wl = makeWorkload("kv", wcfg, {{"scale", "0"}, {"zipf", "0.99"}});
    System sys(prm);
    wl->build(sys);
    sys.run();
    ASSERT_TRUE(wl->verify(sys));

    const FlightRecorder &fr = *sys.flightrec();
    FlightRecords folded = fr.fold();
    std::uint64_t txs = 0;
    Tick lost = 0;
    for (TxId id = 1; const FlightRecord *rec = folded.find(id); ++id) {
        ++txs;
        lost += rec->lostTicks;
    }
    ForensicsSnapshot fs = fr.snapshot();
    EXPECT_EQ(fs.droppedRecords, 0u);
    EXPECT_EQ(txs, sys.snapshot().counter("tx.commits"));
    ProfSnapshot ps = sys.profiler().snapshot();
    EXPECT_GT(lost, 0u) << "kv at zipf 0.99 aborted nothing";
    EXPECT_EQ(lost, ps.charges[unsigned(ProfCharge::AbortedTxTicks)]);

    EXPECT_FALSE(fs.armed);
    EXPECT_EQ(fs.postmortems, 0u);
    EXPECT_FALSE(fs.topKillers.empty());
    EXPECT_GT(fs.maxLostTicks, 0u);
}

/** A tiny ring must overflow on this workload; the overwritten events
 *  are what the recorder reports dropped, so truncated forensics never
 *  read as complete, and every recorded event is either held or
 *  dropped. */
TEST(FlightRecorder, RingDropsCountedWithoutLosingTotals)
{
    SystemParams prm = contendedParams();
    prm.forensics.depth = 16;
    System sys(prm);
    ASSERT_NE(sys.flightrec(), nullptr);

    ProcId p = sys.createProcess();
    addCounterThreads(sys, p, 4, 20);
    sys.run();

    const Tracer &ring = sys.tracer();
    ForensicsSnapshot fs = sys.flightrec()->snapshot();
    EXPECT_EQ(fs.depth, 16u);
    EXPECT_GT(fs.droppedRecords, 0u);
    EXPECT_EQ(fs.droppedRecords, ring.dropped());
    EXPECT_EQ(sys.snapshot().counter("flightrec.dropped_records"),
              ring.dropped());
    std::size_t held = ring.snapshot().size();
    EXPECT_EQ(held, 16u);
    EXPECT_EQ(ring.recorded(), ring.dropped() + held);
}

/**
 * Tracing only the conflict category still keeps the recorder's record
 * types in the ring: the trace lists conflict events alone, and the
 * abort-threshold post-mortems equal those of the same seed traced
 * with every category.
 */
TEST(FlightRecorder, RestrictedTraceCategoriesKeepPostmortems)
{
    auto run = [](std::uint32_t categories, TraceCapture &cap) {
        SystemParams prm = contendedParams();
        prm.trace.path = "unused"; // configures the ring; nothing writes
        prm.trace.categories = categories;
        prm.forensics.onAbortThreshold = 4;
        System sys(prm);
        sys.flightrec()->onReport = nullptr;
        ProcId p = sys.createProcess();
        addCounterThreads(sys, p, 4, 20);
        sys.run();
        EXPECT_EQ(sys.tracer().dropped(), 0u);
        cap = captureTrace(sys.tracer(), "counter", {});
        std::vector<std::string> docs;
        unsigned threshold = 0;
        for (const PostmortemReport &r : sys.flightrec()->reports()) {
            threshold += r.trigger == PostmortemTrigger::AbortThreshold;
            std::ostringstream os;
            emitPostmortemJson(os, *sys.flightrec(), r);
            docs.push_back(os.str());
        }
        EXPECT_GT(threshold, 0u);
        return docs;
    };

    TraceCapture conflict, all;
    std::vector<std::string> restricted =
        run(traceCatMask(TraceCat::Conflict), conflict);
    std::vector<std::string> full = run(traceCatAll, all);
    ASSERT_FALSE(conflict.events.empty());
    for (const TraceEvent &e : conflict.events)
        EXPECT_EQ(traceEventCat(e.type), TraceCat::Conflict)
            << traceEventTypeName(e.type) << " in a conflict-only trace";
    // The ring held the recorder's records beside the traced ones.
    EXPECT_GT(conflict.recorded, conflict.events.size());
    EXPECT_EQ(restricted, full);
}

Tick
contendedRunCycles(unsigned depth, bool arm, StatSnapshot &out)
{
    SystemParams prm = contendedParams();
    prm.forensics.depth = depth;
    if (arm)
        prm.forensics.postmortemPath = "stderr";
    System sys(prm);
    if (sys.flightrec())
        sys.flightrec()->onReport = nullptr;
    ProcId p = sys.createProcess();
    addCounterThreads(sys, p, 4, 20);
    Tick end = sys.run();
    out = sys.snapshot();
    return end;
}

/** The recorder is a pure observer: the same seed must be
 *  bit-identical with forensics armed, default, or removed. */
TEST(FlightRecorder, SameSeedIdenticalAcrossForensicsModes)
{
    StatSnapshot off, def, armed;
    Tick c_off = contendedRunCycles(0, false, off);
    Tick c_def = contendedRunCycles(4096, false, def);
    Tick c_armed = contendedRunCycles(4096, true, armed);
    EXPECT_EQ(c_off, c_def);
    EXPECT_EQ(c_off, c_armed);
    EXPECT_EQ(off.counter("tx.commits"), armed.counter("tx.commits"));
    EXPECT_EQ(off.counter("tx.aborts"), armed.counter("tx.aborts"));
    EXPECT_EQ(off.value("sys.mem_ops"), armed.value("sys.mem_ops"));
    EXPECT_EQ(def.counter("tx.aborts"), armed.counter("tx.aborts"));
}

/**
 * Periodic observers (interval audits, timeseries sampling) must not
 * move a model statistic: no periodic event may outlive the last
 * thread exit and so delay where time-weighted stats close. Every
 * group but the event-queue, audit and per-core counters must match
 * the plain run exactly.
 */
TEST(FlightRecorder, PeriodicObserversLeaveModelStatsUnchanged)
{
    // Contended, overflowing transactions: the time-weighted
    // vts.avg_live_dirty_pages is nonzero and closes at the final tick.
    auto run = [](bool observed, StatSnapshot &out) {
        SystemParams prm = contendedParams();
        prm.l1Bytes = 512;
        prm.l2Bytes = 2048;
        prm.l2Assoc = 2;
        if (observed) {
            prm.audit.enabled = true;
            prm.audit.interval = 7000;
            prm.timeseries.capture = true;
            prm.timeseries.interval = 5000;
        }
        System sys(prm);
        ProcId p = sys.createProcess();
        for (unsigned t = 0; t < 4; ++t) {
            std::vector<Step> steps;
            for (unsigned i = 0; i < 6; ++i) {
                steps.push_back(tx([t](MemCtx m) -> TxCoro {
                    std::uint64_t v = co_await m.load(kBase);
                    for (unsigned b = 0; b < 48; ++b)
                        co_await m.store(kBase + 0x10000 * (t + 1) +
                                             Addr(b) * blockBytes,
                                         b);
                    co_await m.store(kBase, std::uint32_t(v + 1));
                }));
            }
            sys.addThread(p, std::move(steps));
        }
        Tick end = sys.run();
        EXPECT_EQ(sys.readWord32(p, kBase), 4u * 6u);
        out = sys.snapshot();
        return end;
    };

    StatSnapshot a, b;
    EXPECT_EQ(run(false, a), run(true, b));
    ASSERT_GT(b.counter("audit.checks_run"), 0u);
    ASSERT_GT(a.value("vts.avg_live_dirty_pages"), 0.0);
    for (const StatSnapshot::Group &g : a.groups()) {
        if (g.name == "events" || g.name.rfind("core", 0) == 0)
            continue;
        for (const auto &[name, v] : g.stats) {
            std::string path = g.name + "." + name;
            const StatValue *w = b.find(path);
            ASSERT_NE(w, nullptr) << path;
            EXPECT_EQ(v.value, w->value) << path;
            EXPECT_EQ(v.count, w->count) << path;
        }
    }
}

} // namespace
} // namespace ptm
