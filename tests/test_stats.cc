/**
 * @file
 * Unit tests for the statistics registry (sim/stats) and the JSON
 * emission layer (harness/stats_io): primitive edge cases, duplicate
 * registration as a hard error, snapshot addressing, emit-and-reparse
 * round trips, and the per-system registry contents.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>

#include "harness/experiment.hh"
#include "harness/stats_io.hh"
#include "sim/stats.hh"

namespace ptm
{
namespace
{

TEST(Counter, IncrementAndAdd)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 41;
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(AverageStat, EmptyAndSamples)
{
    Average a;
    EXPECT_EQ(a.mean(), 0.0);
    EXPECT_EQ(a.samples(), 0u);
    a.sample(2.0);
    EXPECT_EQ(a.mean(), 2.0);
    a.sample(4.0);
    EXPECT_EQ(a.mean(), 3.0);
    EXPECT_EQ(a.samples(), 2u);
}

TEST(TimeWeightedStat, PiecewiseConstant)
{
    TimeWeighted t;
    t.set(0, 10.0);
    t.set(10, 20.0); // 10.0 held for [0,10)
    t.finish(30);    // 20.0 held for [10,30)
    EXPECT_DOUBLE_EQ(t.mean(), (10.0 * 10 + 20.0 * 20) / 30.0);
}

TEST(DistributionStat, Empty)
{
    Distribution d(0, 100, 10);
    EXPECT_EQ(d.samples(), 0u);
    EXPECT_EQ(d.mean(), 0.0);
    EXPECT_EQ(d.min(), 0.0);
    EXPECT_EQ(d.max(), 0.0);
    EXPECT_EQ(d.underflow(), 0u);
    EXPECT_EQ(d.overflow(), 0u);
    for (unsigned i = 0; i < d.buckets(); ++i)
        EXPECT_EQ(d.count(i), 0u);
}

TEST(DistributionStat, SingleSample)
{
    Distribution d(0, 100, 10);
    d.sample(35);
    EXPECT_EQ(d.samples(), 1u);
    EXPECT_EQ(d.mean(), 35.0);
    EXPECT_EQ(d.min(), 35.0);
    EXPECT_EQ(d.max(), 35.0);
    EXPECT_EQ(d.count(3), 1u); // bucket [30,40)
}

TEST(DistributionStat, UnderflowOverflowAndBounds)
{
    Distribution d(10, 20, 10); // buckets of width 1 over [10,20)
    d.sample(9.99);             // underflow
    d.sample(10.0);             // first bucket (inclusive lo)
    d.sample(19.99);            // last bucket
    d.sample(20.0);             // overflow (exclusive hi)
    d.sample(1000, 3);          // weighted overflow
    EXPECT_EQ(d.underflow(), 1u);
    EXPECT_EQ(d.overflow(), 4u);
    EXPECT_EQ(d.count(0), 1u);
    EXPECT_EQ(d.count(9), 1u);
    EXPECT_EQ(d.samples(), 7u);
    EXPECT_EQ(d.min(), 9.99);
    EXPECT_EQ(d.max(), 1000.0);
    // mean uses the exact sum, not bucket midpoints
    EXPECT_DOUBLE_EQ(d.sum(), 9.99 + 10.0 + 19.99 + 20.0 + 3000.0);
}

TEST(DistributionStat, WeightedSamples)
{
    Distribution d(0, 10, 5);
    d.sample(3, 4);
    EXPECT_EQ(d.samples(), 4u);
    EXPECT_EQ(d.count(1), 4u); // bucket [2,4)
    EXPECT_DOUBLE_EQ(d.mean(), 3.0);
}

TEST(DistributionStat, PercentileEmptyAndSingle)
{
    Distribution d(0, 100, 10);
    EXPECT_EQ(d.percentile(50), 0.0);
    d.sample(35);
    // One sample: every percentile is that sample (clamped to
    // [min, max], which collapses to a point).
    EXPECT_DOUBLE_EQ(d.percentile(1), 35.0);
    EXPECT_DOUBLE_EQ(d.percentile(50), 35.0);
    EXPECT_DOUBLE_EQ(d.percentile(99), 35.0);
}

TEST(DistributionStat, PercentileUniform)
{
    Distribution d(0, 100, 10);
    for (int v = 0; v < 100; ++v)
        d.sample(v + 0.5);
    EXPECT_NEAR(d.percentile(50), 50.0, 1.0);
    EXPECT_NEAR(d.percentile(95), 95.0, 1.0);
    EXPECT_NEAR(d.percentile(99), 99.0, 1.0);
    EXPECT_LE(d.percentile(50), d.percentile(95));
    EXPECT_LE(d.percentile(95), d.percentile(99));
    // The extremes clamp to the exact sample bounds.
    EXPECT_DOUBLE_EQ(d.percentile(0), d.min());
    EXPECT_DOUBLE_EQ(d.percentile(100), d.max());
}

TEST(DistributionStat, PercentileUnderOverflow)
{
    Distribution d(10, 20, 10);
    d.sample(5);      // underflow
    d.sample(15);     // bucket [15,16)
    d.sample(100, 2); // overflow
    // Rank 1 lands in the underflow bin -> exact min.
    EXPECT_DOUBLE_EQ(d.percentile(10), 5.0);
    // Ranks past the buckets land in the overflow bin -> exact max.
    EXPECT_DOUBLE_EQ(d.percentile(99), 100.0);
    // Rank 2 interpolates inside [15,16).
    double p50 = d.percentile(50);
    EXPECT_GE(p50, 15.0);
    EXPECT_LE(p50, 16.0);
}

TEST(DistributionStat, PercentileMatchesSnapshot)
{
    StatRegistry reg;
    Distribution d(0, 50, 5);
    for (int v : {1, 7, 23, 23, 48, 60})
        d.sample(v);
    reg.addGroup("g").addDistribution("d", &d);
    StatSnapshot snap(reg);
    const StatValue *sv = snap.find("g.d");
    ASSERT_NE(sv, nullptr);
    for (double p : {0.0, 25.0, 50.0, 95.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(sv->dist.percentile(p), d.percentile(p));
}

TEST(StatGroupTest, RegistrationAndEnumeration)
{
    Counter c;
    Average a;
    c += 7;
    StatGroup g("g");
    g.addCounter("c", &c);
    g.addAverage("a", &a);
    g.addScalar("s", [] { return 2.5; });
    EXPECT_EQ(g.stats().size(), 3u);
    EXPECT_EQ(g.counterValue("c"), 7u);
    ASSERT_NE(g.find("s"), nullptr);
    EXPECT_EQ(g.find("s")->kind, StatKind::Scalar);
    EXPECT_EQ(g.find("missing"), nullptr);
}

TEST(StatGroupDeathTest, DuplicateStatNamePanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Counter c1, c2;
    StatGroup g("g");
    g.addCounter("events", &c1);
    EXPECT_DEATH(g.addCounter("events", &c2), "duplicate");
}

TEST(StatGroupDeathTest, DuplicateAcrossKindsPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Counter c;
    Average a;
    StatGroup g("g");
    g.addCounter("x", &c);
    EXPECT_DEATH(g.addAverage("x", &a), "duplicate");
}

TEST(StatRegistryDeathTest, DuplicateGroupNamePanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    StatRegistry reg;
    reg.addGroup("mem");
    EXPECT_DEATH(reg.addGroup("mem"), "duplicate");
}

TEST(StatSnapshotTest, CapturesByValue)
{
    StatRegistry reg;
    Counter c;
    Distribution d(0, 10, 5);
    {
        StatGroup &g = reg.addGroup("g");
        c += 3;
        d.sample(4);
        g.addCounter("c", &c);
        g.addDistribution("d", &d);
    }
    StatSnapshot snap(reg);
    // Mutations after the snapshot must not show through.
    c += 100;
    d.sample(9);
    EXPECT_EQ(snap.counter("g.c"), 3u);
    const StatValue *v = snap.find("g.d");
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->kind, StatKind::Distribution);
    EXPECT_EQ(v->dist.samples, 1u);
    EXPECT_FALSE(snap.has("g.missing"));
    EXPECT_EQ(snap.counter("g.missing"), 0u);
}

TEST(JsonWriterTest, EscapesStrings)
{
    std::ostringstream os;
    jsonEscape(os, "a\"b\\c\nd\te\x01");
    EXPECT_EQ(os.str(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
}

TEST(JsonWriterTest, CompactModeBytes)
{
    // One line, no whitespace; a top-level object ends its line, so
    // consecutive documents form a JSONL stream. A "lines" array puts
    // each element and its closing bracket on a line of their own.
    std::ostringstream os;
    JsonWriter w(os, JsonWriter::Style::Compact);
    w.beginObject();
    w.member("s", "x\"y");
    w.member("n", std::uint64_t(12));
    w.member("neg", -3);
    w.member("d", 0.25);
    w.member("whole", 7.0);
    w.member("nan", std::nan(""));
    w.member("b", false);
    w.key("o");
    w.beginObject();
    w.endObject();
    w.key("a");
    w.beginArray();
    w.value(1u);
    w.null();
    w.endArray();
    w.endObject();
    w.beginObject();
    w.key("l");
    w.beginArray(true);
    w.beginObject();
    w.member("k", 1);
    w.endObject();
    w.value("v");
    w.endArray();
    w.key("e");
    w.beginArray(true);
    w.endArray();
    w.endObject();
    EXPECT_EQ(os.str(),
              "{\"s\":\"x\\\"y\",\"n\":12,\"neg\":-3,\"d\":0.25,"
              "\"whole\":7,\"nan\":null,\"b\":false,\"o\":{},"
              "\"a\":[1,null]}\n"
              "{\"l\":[\n{\"k\":1},\n\"v\"\n],\"e\":[\n]}\n");
}

/** Emit a populated registry and check the exact text written. */
TEST(StatsIoTest, RunJsonRoundTrip)
{
    StatRegistry reg;
    Counter c;
    c += 12;
    Average a;
    a.sample(1);
    a.sample(3);
    Distribution d(0, 100, 4);
    d.sample(-5);
    d.sample(10);
    d.sample(250, 2);
    StatGroup &g = reg.addGroup("grp");
    g.addCounter("events", &c);
    g.addAverage("avg", &a);
    g.addDistribution("dist", &d);
    g.addScalar("ratio", [] { return 0.75; });

    SystemParams prm;
    prm.tmKind = TmKind::Vtm;
    prm.seed = 99;
    RunManifest m;
    m.tool = "test";
    m.workload = "wl\"quoted";
    m.threads = 4;
    m.scale = -1;
    m.cycles = 123456;
    m.verified = true;
    m.wallSeconds = 0.25;
    m.params = &prm;

    std::ostringstream os;
    emitRunJson(os, m, StatSnapshot(reg));
    const std::string out = os.str();

    EXPECT_EQ(out.rfind("{\n  \"schema\": \"ptm-stats-v1\",\n", 0), 0u);
    const std::string manifest[] = {
        "\n    \"tool\": \"test\",\n",
        "\n    \"workload\": \"wl\\\"quoted\",\n",
        "\n    \"system\": \"" + std::string(tmKindName(prm.tmKind)) +
            "\",\n",
        "\n    \"seed\": 99,\n",
        "\n    \"scale\": -1,\n",
        "\n    \"cycles\": 123456,\n",
        "\n    \"verified\": true,\n",
        "\n    \"params\": {\n      \"num_cores\": 4,\n",
    };
    for (const std::string &line : manifest)
        EXPECT_NE(out.find(line), std::string::npos) << line;

    // The groups section closes the document, so it is compared whole.
    EXPECT_EQ(d.percentile(50), 25);
    EXPECT_EQ(d.percentile(95), 250);
    EXPECT_EQ(d.percentile(99), 250);
    const std::string groups = R"(
  "groups": {
    "grp": {
      "events": {
        "kind": "counter",
        "value": 12
      },
      "avg": {
        "kind": "average",
        "mean": 2,
        "samples": 2
      },
      "dist": {
        "kind": "distribution",
        "samples": 4,
        "sum": 505,
        "mean": 126.25,
        "min": -5,
        "max": 250,
        "p50": 25,
        "p95": 250,
        "p99": 250,
        "bucket_lo": 0,
        "bucket_width": 25,
        "underflow": 1,
        "overflow": 2,
        "counts": [
          1,
          0,
          0,
          0]
      },
      "ratio": {
        "kind": "scalar",
        "value": 0.75
      }
    }
  }
}
)";
    ASSERT_GE(out.size(), groups.size());
    EXPECT_EQ(out.substr(out.size() - groups.size()), groups);
}

TEST(StatsIoTest, DefaultParamsKeepThePaperMachine)
{
    // The paper machine's fixed timings and sizes are constants, not
    // SystemParams fields, yet the manifest still records them under
    // the same keys and values.
    SystemParams prm;
    RunManifest m;
    m.params = &prm;
    std::ostringstream os;
    emitRunJson(os, m, StatSnapshot(StatRegistry()));
    const std::string params = R"(
    "params": {
      "num_cores": 4,
      "l1_bytes": 16384,
      "l1_assoc": 1,
      "l1_latency": 1,
      "l2_bytes": 262144,
      "l2_assoc": 4,
      "l2_latency": 6,
      "bus_latency": 20,
      "dram_latency": 200,
      "dram_pipeline": 3,
      "tlb_entries": 512,
      "phys_frames": 16384,
      "swap_enabled": false,
      "os_quantum": 500000,
      "daemon_interval": 2000000,
      "spt_cache_entries": 512,
      "tav_cache_entries": 2048,
      "shadow_free": "merge-on-swap",
      "xf_entries": 1600000,
      "xadc_entries": 2560,
      "victim_cache_entries": 2560,
      "flush_on_context_switch": false,
      "max_ticks": 0
    }
)";
    EXPECT_NE(os.str().find(params), std::string::npos) << os.str();
}

TEST(StatsIoTest, BenchRecorderRoundTrip)
{
    BenchRecorder rec("mybench");
    rec.beginRow()
        .field("app", "fft")
        .field("cycles", std::uint64_t(100))
        .field("pct", 12.5)
        .field("ok", true);
    rec.beginRow().field("app", "lu");

    std::string path = ::testing::TempDir() + "bench_rt.json";
    ASSERT_TRUE(rec.writeJson(path));
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();

    EXPECT_EQ(ss.str(), std::string(R"({
  "schema": "ptm-bench-v1",
  "bench": "mybench",
  "git": ")") + gitDescribe() + R"(",
  "rows": [
    {
      "app": "fft",
      "cycles": 100,
      "pct": 12.5,
      "ok": true
    },
    {
      "app": "lu"
    }]
}
)");
}

TEST(StatsIoTest, EmptyJsonPathIsNoop)
{
    BenchRecorder rec("b");
    EXPECT_TRUE(rec.writeJson(""));
}

/**
 * Every system kind must register a non-empty, correctly named group
 * set, queryable through the snapshot an experiment returns.
 */
TEST(RegistryEnumeration, AllSystemKindsRegisterGroups)
{
    struct Case
    {
        TmKind kind;
        bool hasTx, hasVts, hasVtm;
    };
    const Case cases[] = {
        {TmKind::Serial, true, false, false},
        {TmKind::Locks, true, false, false},
        {TmKind::CopyPtm, true, true, false},
        {TmKind::SelectPtm, true, true, false},
        {TmKind::Vtm, true, false, true},
        {TmKind::VcVtm, true, false, true},
    };
    for (const Case &c : cases) {
        SystemParams prm;
        prm.tmKind = c.kind;
        ExperimentResult r = runWorkload("fft", prm, 0, 2);
        const StatSnapshot &s = r.snapshot;
        SCOPED_TRACE(tmKindName(c.kind));
        EXPECT_TRUE(r.verified);

        for (const char *g : {"sys", "mem", "os", "core0"}) {
            bool found = false;
            for (const auto &grp : s.groups())
                found = found || grp.name == g;
            EXPECT_TRUE(found) << "missing group " << g;
        }
        for (const auto &grp : s.groups())
            EXPECT_FALSE(grp.stats.empty())
                << "empty group " << grp.name;

        EXPECT_EQ(s.has("tx.commits"), c.hasTx);
        EXPECT_EQ(s.has("vts.shadow_allocs"), c.hasVts);
        EXPECT_EQ(s.has("vtm.xadt_inserts"), c.hasVtm);
    }
}

/** The per-cause abort counters must sum to the abort total. */
TEST(RegistryEnumeration, AbortCausesSumToTotal)
{
    SystemParams prm;
    prm.tmKind = TmKind::SelectPtm;
    ExperimentResult r = runWorkload("ocean", prm, 0, 4);
    const StatSnapshot &s = r.snapshot;
    EXPECT_EQ(s.counter("tx.aborts"),
              s.counter("tx.aborts_conflict") +
                  s.counter("tx.aborts_nontx") +
                  s.counter("tx.aborts_multiwriter") +
                  s.counter("tx.aborts_explicit"));
}

} // namespace
} // namespace ptm
