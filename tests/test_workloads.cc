/**
 * @file
 * Workload correctness across synchronization modes and TM backends:
 * every kernel, at test scale, must produce the bit-exact host
 * reference result under serial, locks, and each transactional
 * system (Select-PTM, Copy-PTM, VTM, VC-VTM).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "harness/experiment.hh"
#include "sim_test_util.hh"

namespace ptm
{
namespace
{

using namespace ptm::test;

using WorkloadCase = std::tuple<std::string, TmKind>;

class WorkloadTest : public ::testing::TestWithParam<WorkloadCase>
{};

TEST_P(WorkloadTest, ProducesReferenceResult)
{
    const auto &[name, kind] = GetParam();
    SystemParams prm = quietParams(kind);
    ExperimentResult r =
        runWorkload(name, prm, /*scale=*/0, /*threads=*/4);
    EXPECT_TRUE(r.verified) << name << " on " << tmKindName(kind);
    EXPECT_EQ(r.snapshot.value("sys.hit_tick_limit"), 0.0);
    if (syncModeFor(kind) == SyncMode::Tx) {
        EXPECT_GT(r.snapshot.counter("tx.commits"), 0u);
    }
}

std::vector<WorkloadCase>
allCases()
{
    std::vector<WorkloadCase> cases;
    for (const auto &w : workloadNames())
        for (TmKind k :
             {TmKind::Serial, TmKind::Locks, TmKind::SelectPtm,
              TmKind::CopyPtm, TmKind::Vtm, TmKind::VcVtm})
            cases.emplace_back(w, k);
    return cases;
}

std::string
caseName(const ::testing::TestParamInfo<WorkloadCase> &info)
{
    std::string label = std::get<0>(info.param);
    label += "_";
    for (char c : std::string(tmKindName(std::get<1>(info.param))))
        if (c != '-')
            label += c;
    return label;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, WorkloadTest,
                         ::testing::ValuesIn(allCases()), caseName);

TEST(WorkloadTable, UniqueNamesAndValidDefaults)
{
    // The listing order is part of every front end's help and of the
    // bench enumeration.
    EXPECT_EQ(workloadNameList(), "fft | lu | radix | ocean | water | kv");
    std::set<std::string> names;
    for (const WorkloadInfo &info : workloadTable()) {
        EXPECT_FALSE(info.name.empty());
        EXPECT_TRUE(names.insert(info.name).second)
            << "duplicate workload " << info.name;
        EXPECT_TRUE(info.factory) << info.name;
        EXPECT_EQ(findWorkload(info.name), &info);
        // Each default must pass the validation a user value gets.
        for (const WorkloadOption &opt : info.options) {
            WorkloadOptions out;
            std::string err;
            EXPECT_TRUE(resolveWorkloadOptions(
                info, {{opt.name, opt.defaultValue}}, out, &err))
                << info.name << ": " << err;
        }
    }
    EXPECT_EQ(findWorkload("bogus"), nullptr);
}

TEST(Workloads, OceanUsesOrderedTransactions)
{
    // Ocean's Tx mode runs its band sweeps as ordered transactions
    // (red before black within an iteration, no colour barrier); the
    // result must still match the sequential reference exactly.
    SystemParams prm = quietParams(TmKind::SelectPtm);
    ExperimentResult r = runWorkload("ocean", prm, 0, 4);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.snapshot.counter("tx.commits"), 0u);
}

TEST(Workloads, RadixBlockGranularityAborts)
{
    // Scattered permutation writes share blocks: block-granularity
    // conflict detection must see (false) conflicts.
    SystemParams prm = quietParams(TmKind::SelectPtm);
    ExperimentResult r = runWorkload("radix", prm, 0, 4);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.snapshot.counter("tx.aborts"), 0u);
}

TEST(Workloads, WaterIsCacheResident)
{
    SystemParams prm = quietParams(TmKind::SelectPtm);
    ExperimentResult r = runWorkload("water", prm, 0, 4);
    EXPECT_TRUE(r.verified);
    // Rare evictions: the defining property of water in Table 1
    // (at this scale it fits the caches entirely).
    EXPECT_TRUE(r.snapshot.counter("mem.evictions") == 0 ||
                r.snapshot.value("sys.mop_per_evict") > 50.0);
}

} // namespace
} // namespace ptm
