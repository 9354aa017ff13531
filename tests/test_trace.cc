/**
 * @file
 * Unit tests for the event tracer (sim/trace) and its sinks
 * (harness/trace_io): ring-buffer wraparound, category filtering,
 * record types kept for the flight recorder, the ring-capacity bound,
 * lazy payload suppression, watchpoint address matching, tick order
 * of real captures, and the JSONL sink. Chrome slice balance, ordering
 * and counter tracks are checked by tools/check_trace_json.py.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>

#include "harness/cli.hh"
#include "harness/experiment.hh"
#include "harness/stats_io.hh"
#include "harness/trace_io.hh"
#include "sim/trace.hh"

namespace ptm
{
namespace
{

TEST(TracerTest, InactiveByDefault)
{
    Tracer t;
    EXPECT_FALSE(t.active());
    t.record(TraceEventType::TxBegin, 0, 0, 1);
    EXPECT_EQ(t.recorded(), 0u);
    EXPECT_TRUE(t.snapshot().empty());
}

TEST(TracerTest, NilIsNeverEnabled)
{
    Tracer &n = Tracer::nil();
    EXPECT_FALSE(n.active());
    for (unsigned c = 0; c < 8; ++c)
        EXPECT_FALSE(n.enabled(TraceCat(1u << c)));
}

TEST(TracerTest, RingKeepsNewestAndCountsDrops)
{
    Tracer t;
    t.configure(traceCatAll, 8);
    for (Tick i = 0; i < 20; ++i)
        t.recordAt(i, TraceEventType::Writeback, 0, 0, invalidTxId,
                   invalidTxId, i);
    EXPECT_EQ(t.recorded(), 20u);
    EXPECT_EQ(t.dropped(), 12u);
    std::vector<TraceEvent> ev = t.snapshot();
    ASSERT_EQ(ev.size(), 8u);
    // Oldest first, and only the newest 8 events survive.
    for (std::size_t i = 0; i < ev.size(); ++i) {
        EXPECT_EQ(ev[i].tick, Tick(12 + i));
        EXPECT_EQ(ev[i].a0, 12 + i);
    }
}

/** Kept record types reach the ring with no traced category. */
TEST(TracerTest, KeptTypesRingWithoutTracing)
{
    Tracer t;
    const TraceEventType kept[] = {TraceEventType::TxAbort};
    t.configure(0, 8, kept);
    EXPECT_FALSE(t.active());
    t.record(TraceEventType::TxAbort, 0, 0, 1);
    t.record(TraceEventType::TxBegin, 0, 0, 1);
    EXPECT_EQ(t.recorded(), 1u);
    ASSERT_EQ(t.snapshot().size(), 1u);
    EXPECT_EQ(t.snapshot()[0].type, TraceEventType::TxAbort);
}

/** The option parsers refuse ring capacities above the bound, so a
 *  typo is a diagnostic, not an allocation failure. */
TEST(TraceRingBound, ParsersRejectCapacitiesAboveTheBound)
{
    auto parse = [](const char *opt, const std::string &value,
                    SystemParams &prm) {
        OptionTable opts("ptm_test", "ring bound");
        addSystemOptions(opts, prm);
        std::string prog = "ptm_test", o = opt, v = value;
        char *argv[] = {prog.data(), o.data(), v.data()};
        return opts.parse(3, argv);
    };
    const std::string max = std::to_string(traceRingMaxEvents);
    const std::string over = std::to_string(traceRingMaxEvents + 1);
    SystemParams prm;
    EXPECT_EQ(parse("--trace-buffer-events", "100000000000", prm),
              CliStatus::Error);
    EXPECT_EQ(parse("--trace-buffer-events", over, prm),
              CliStatus::Error);
    EXPECT_EQ(parse("--flightrec-depth", "4294967295", prm),
              CliStatus::Error);
    EXPECT_EQ(parse("--flightrec-depth", over, prm), CliStatus::Error);
    ASSERT_EQ(parse("--trace-buffer-events", max, prm), CliStatus::Ok);
    ASSERT_EQ(parse("--flightrec-depth", max, prm), CliStatus::Ok);
    EXPECT_EQ(prm.trace.bufferEvents, traceRingMaxEvents);
    EXPECT_EQ(prm.forensics.depth, traceRingMaxEvents);
}

TEST(TracerTest, CategoryMaskFilters)
{
    Tracer t;
    t.configure(traceCatMask(TraceCat::Tx), 64);
    EXPECT_TRUE(t.enabled(TraceCat::Tx));
    EXPECT_FALSE(t.enabled(TraceCat::Cache));
    t.record(TraceEventType::TxBegin, 0, 0, 1);
    t.record(TraceEventType::Writeback); // cache: filtered
    t.record(TraceEventType::CtxSwitch); // os: filtered
    EXPECT_EQ(t.recorded(), 1u);
    ASSERT_EQ(t.snapshot().size(), 1u);
    EXPECT_EQ(t.snapshot()[0].type, TraceEventType::TxBegin);
}

/** Counts the events an observer was handed, by type. */
struct CountingObserver : TraceObserver
{
    std::vector<TraceEventType> seen;
    void observe(const TraceEvent &e) override { seen.push_back(e.type); }
};

TEST(TracerTest, InterestMaskRoutesRecords)
{
    Tracer t;
    t.configure(traceCatMask(TraceCat::Tx), 64);
    CountingObserver a, b;
    t.subscribe(&a, {TraceEventType::TxAbort, TraceEventType::WalkEnd});
    t.subscribe(&b, {TraceEventType::TxAbort, TraceEventType::SptMiss});
    t.record(TraceEventType::TxBegin);    // ring only
    t.record(TraceEventType::TxAbort);    // ring, a and b
    t.record(TraceEventType::WalkEnd);    // a only: meta is not traced
    t.record(TraceEventType::SptMiss);    // b only: meta is not traced
    t.record(TraceEventType::Writeback);  // nobody
    EXPECT_EQ(t.recorded(), 2u);
    ASSERT_EQ(t.snapshot().size(), 2u);
    EXPECT_EQ(t.snapshot()[1].type, TraceEventType::TxAbort);
    EXPECT_EQ(a.seen, (std::vector<TraceEventType>{
                          TraceEventType::TxAbort,
                          TraceEventType::WalkEnd}));
    EXPECT_EQ(b.seen, (std::vector<TraceEventType>{
                          TraceEventType::TxAbort,
                          TraceEventType::SptMiss}));
    // Reconfiguring the ring keeps the subscriptions: an all-categories
    // ring now stores the type too, and a still sees it.
    t.configure(traceCatAll, 64);
    t.record(TraceEventType::WalkEnd);
    EXPECT_EQ(t.recorded(), 1u);
    EXPECT_EQ(a.seen.size(), 3u);
}

TEST(TracerTest, ClockStampsRecords)
{
    Tracer t;
    t.configure(traceCatAll, 8);
    Tick now = 42;
    t.setClock([&now] { return now; });
    t.record(TraceEventType::TxBegin, 0, 0, 1);
    now = 99;
    t.record(TraceEventType::TxCommit, 0, 0, 1);
    auto ev = t.snapshot();
    ASSERT_EQ(ev.size(), 2u);
    EXPECT_EQ(ev[0].tick, 42u);
    EXPECT_EQ(ev[1].tick, 99u);
}

TEST(TracerTest, WatchAddrMatchesBlockAndWord)
{
    Tracer t;
    t.setWatchAddr(0x1234);
    EXPECT_TRUE(t.watchingBlock(blockAlign(0x1234)));
    EXPECT_FALSE(t.watchingBlock(blockAlign(0x1234) + blockBytes));
    EXPECT_TRUE(t.watchingWord(wordAlign(0x1234)));
    EXPECT_FALSE(t.watchingWord(wordAlign(0x1234) + wordBytes));
    Tracer off;
    EXPECT_FALSE(off.watchingBlock(blockAlign(0x1234)));
}

TEST(TraceCategoriesParse, ListsAndAll)
{
    std::uint32_t mask = 0;
    ASSERT_TRUE(parseTraceCategories("all", mask));
    EXPECT_EQ(mask, traceCatAll);
    ASSERT_TRUE(parseTraceCategories("tx,conflict", mask));
    EXPECT_EQ(mask, traceCatMask(TraceCat::Tx) |
                        traceCatMask(TraceCat::Conflict));
    EXPECT_FALSE(parseTraceCategories("tx,bogus", mask));
}

/** Run a small traced workload and capture its events. */
TraceCapture
tracedRun(std::uint32_t categories)
{
    SystemParams prm;
    prm.tmKind = TmKind::SelectPtm;
    prm.trace.path = "unused"; // non-empty enables wiring
    prm.trace.categories = categories;
    ExperimentResult r = runWorkload("fft", prm, 0, 4);
    EXPECT_TRUE(r.verified);
    return r.trace;
}

TEST(TraceIntegration, TicksNondecreasingPerCore)
{
    TraceCapture cap = tracedRun(traceCatAll);
    ASSERT_FALSE(cap.events.empty());
    std::map<std::uint32_t, Tick> last;
    for (const TraceEvent &e : cap.events) {
        auto it = last.find(e.core);
        if (it != last.end()) {
            EXPECT_GE(e.tick, it->second)
                << "tick went backwards on core " << e.core;
        }
        last[e.core] = e.tick;
    }
    // The whole ring is globally tick-ordered too: events are pushed
    // from a single discrete-event loop.
    for (std::size_t i = 1; i < cap.events.size(); ++i)
        EXPECT_GE(cap.events[i].tick, cap.events[i - 1].tick);
}

TEST(TraceIntegration, LifecycleEventsComeInPairs)
{
    TraceCapture cap = tracedRun(traceCatMask(TraceCat::Tx));
    std::uint64_t begins = 0, restarts = 0, commits = 0, aborts = 0;
    for (const TraceEvent &e : cap.events) {
        switch (e.type) {
          case TraceEventType::TxBegin: ++begins; break;
          case TraceEventType::TxRestart: ++restarts; break;
          case TraceEventType::TxCommit: ++commits; break;
          case TraceEventType::TxAbort: ++aborts; break;
          default:
            ADD_FAILURE() << "non-tx event leaked through the mask";
        }
    }
    EXPECT_GT(begins, 0u);
    // Nothing rotated out of the ring in a tiny run, so every attempt
    // (begin or restart) has exactly one closing commit or abort.
    EXPECT_EQ(cap.dropped, 0u);
    EXPECT_EQ(begins + restarts, commits + aborts);
    EXPECT_EQ(aborts, restarts); // every abort is retried
}

TEST(TraceIntegration, JsonlRoundTripsThroughMiniJson)
{
    TraceCapture cap = tracedRun(traceCatAll);
    std::ostringstream os;
    emitTraceJsonl(os, {cap});
    std::istringstream is(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_EQ(line, std::string("{\"schema\":\"ptm-trace-v1\",\"git\":\"") +
                        gitDescribe() + "\",\"captures\":1}");
    std::size_t events = 0;
    while (std::getline(is, line))
        events += line.rfind("{\"type\":\"ev\",", 0) == 0;
    EXPECT_EQ(events, cap.events.size());
}

TEST(TraceIntegration, WriteTraceToFileAndStdoutError)
{
    TraceCapture cap = tracedRun(traceCatMask(TraceCat::Tx));
    std::string path = ::testing::TempDir() + "trace_rt.jsonl";
    std::string err;
    ASSERT_TRUE(writeTrace(path, TraceFormat::Jsonl, {cap}, &err))
        << err;
    std::ifstream f(path);
    std::string first;
    ASSERT_TRUE(std::getline(f, first));
    EXPECT_NE(first.find("ptm-trace-v1"), std::string::npos);

    EXPECT_FALSE(writeTrace("/nonexistent-dir/x.json",
                            TraceFormat::Jsonl, {cap}, &err));
    EXPECT_FALSE(err.empty());
}

/**
 * A Copy-PTM word followed through the overflow path: flushing tx
 * lines on every daemon context switch spills radix's writes to the
 * VTS, and the watched word is then filled from its home page,
 * written back committed, and restored by an abort walk. Each of
 * those three steps records a watchpoint, as its Select-PTM
 * counterpart does.
 */
TEST(TraceIntegration, CopyPtmWatchFollowsFillWritebackAndRestore)
{
    SystemParams prm;
    prm.tmKind = TmKind::CopyPtm;
    prm.flushOnContextSwitch = true;
    prm.daemonInterval = 3000;
    prm.trace.path = "unused";
    prm.trace.categories = traceCatMask(TraceCat::Watch);
    prm.trace.watchAddr = 5568;
    ExperimentResult r = runWorkload("radix", prm, 0, 4);
    ASSERT_TRUE(r.verified);
    std::map<WatchKind, unsigned> seen;
    for (const TraceEvent &e : r.trace.events) {
        ASSERT_EQ(e.type, TraceEventType::Watchpoint);
        EXPECT_EQ(e.a0, 5568u);
        ++seen[WatchKind(e.a1)];
    }
    for (WatchKind k : {WatchKind::Load, WatchKind::Store,
                        WatchKind::SpecDeposit, WatchKind::Evict,
                        WatchKind::Fill, WatchKind::Cwb,
                        WatchKind::Restore})
        EXPECT_GT(seen[k], 0u) << watchKindName(k);
}

} // namespace
} // namespace ptm
