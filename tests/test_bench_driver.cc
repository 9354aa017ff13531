/**
 * @file
 * Tests of the bench front-end driver: the exit code it derives from
 * the tallied runs, the per-kind parameter template, and the refusal
 * of single-run options.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/bench_driver.hh"

namespace ptm
{
namespace
{

/** Parse @p args (program name first) into @p d. */
std::optional<int>
parseArgs(BenchDriver &d, std::vector<std::string> args)
{
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    return d.parse(int(argv.size()), argv.data());
}

TEST(BenchDriver, CleanRunsExitZero)
{
    BenchDriver d("bench_test", "driver test");
    ASSERT_FALSE(parseArgs(d, {"bench_test"}));
    ExperimentResult r;
    r.verified = true;
    d.record("", d.params(TmKind::SelectPtm), r, "");
    EXPECT_TRUE(d.allVerified());
    EXPECT_EQ(d.finish(BenchRecorder("test")), 0);
}

TEST(BenchDriver, FailedVerificationExitsOne)
{
    BenchDriver d("bench_test", "driver test");
    ASSERT_FALSE(parseArgs(d, {"bench_test"}));
    ExperimentResult ok, wrong;
    ok.verified = true;
    wrong.verified = false;
    d.record("", d.params(TmKind::SelectPtm), ok, "");
    d.record("", d.params(TmKind::CopyPtm), wrong, "");
    EXPECT_FALSE(d.allVerified());
    EXPECT_EQ(d.finish(BenchRecorder("test")), 1);
}

TEST(BenchDriver, AuditViolationExitsOne)
{
    BenchDriver d("bench_test", "driver test");
    ASSERT_FALSE(parseArgs(d, {"bench_test"}));
    ExperimentResult r;
    r.verified = true;
    r.auditViolations.push_back({"summary-agree", "end", 100, "test"});
    d.record("fft", d.params(TmKind::SelectPtm), r, "");
    EXPECT_TRUE(d.allVerified());
    EXPECT_EQ(d.finish(BenchRecorder("test")), 1);
}

TEST(BenchDriver, RealRunIsTallied)
{
    BenchDriver d("bench_test", "driver test");
    ASSERT_FALSE(parseArgs(d, {"bench_test", "--scale", "0"}));
    ExperimentResult r = d.run("fft", d.params(TmKind::SelectPtm), 4);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(d.finish(BenchRecorder("test")), 0);
}

TEST(BenchDriver, ParamsApplySharedOptions)
{
    BenchDriver d("bench_test", "driver test");
    ASSERT_FALSE(parseArgs(d, {"bench_test", "--durability", "wal",
                               "--audit", "--mem-banks", "4"}));
    SystemParams tm = d.params(TmKind::CopyPtm);
    EXPECT_EQ(tm.tmKind, TmKind::CopyPtm);
    EXPECT_TRUE(tm.persist.enabled());
    EXPECT_TRUE(tm.audit.enabled);
    EXPECT_EQ(tm.memBanks, 4u);
    // Baselines have no transactions to log but keep the other groups.
    for (TmKind k : {TmKind::Serial, TmKind::Locks}) {
        SystemParams base = d.params(k);
        EXPECT_FALSE(base.persist.enabled());
        EXPECT_TRUE(base.audit.enabled);
        EXPECT_EQ(base.memBanks, 4u);
    }
}

TEST(BenchDriver, RefusesSingleRunOptionsAndSharedStdout)
{
    BenchDriver wal("bench_test", "driver test");
    EXPECT_EQ(parseArgs(wal, {"bench_test", "--durability", "wal",
                              "--wal-file", "x.wal"}),
              2);
    BenchDriver crash("bench_test", "driver test");
    EXPECT_EQ(parseArgs(crash, {"bench_test", "--crash-at-tick", "5"}),
              2);
    BenchDriver sinks("bench_test", "driver test");
    EXPECT_EQ(parseArgs(sinks,
                        {"bench_test", "--json", "-", "--trace", "-"}),
              2);
    BenchDriver bad("bench_test", "driver test");
    EXPECT_EQ(parseArgs(bad, {"bench_test", "--cores", "8"}), 2);
}

TEST(BenchDriver, UnwritableJsonExitsTwoWithoutEpilogue)
{
    BenchDriver d("bench_test", "driver test");
    ASSERT_FALSE(parseArgs(
        d, {"bench_test", "--json", "/nonexistent-dir/out.json"}));
    bool epilogue = false;
    EXPECT_EQ(d.finish(BenchRecorder("test"), [&] { epilogue = true; }),
              2);
    EXPECT_FALSE(epilogue);
}

} // namespace
} // namespace ptm
