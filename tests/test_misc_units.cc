/**
 * @file
 * Unit tests for the remaining substrate pieces: functional physical
 * memory, the frame allocator, coroutine plumbing edge cases, report
 * formatting, the flat map, and a parameterized cache-geometry
 * correctness sweep.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <tuple>
#include <vector>

#include "harness/experiment.hh"
#include "harness/report.hh"
#include "mem/frame_alloc.hh"
#include "mem/phys_mem.hh"
#include "sim/flat_map.hh"
#include "sim_test_util.hh"

namespace ptm
{
namespace
{

using namespace ptm::test;

TEST(PhysMem, SparseZeroFill)
{
    PhysMem m;
    EXPECT_EQ(m.readWord32(0x123450), 0u);
    EXPECT_EQ(m.backedFrames(), 0u);
    m.writeWord32(0x123450, 42);
    EXPECT_EQ(m.readWord32(0x123450), 42u);
    EXPECT_EQ(m.backedFrames(), 1u);
}

TEST(PhysMem, BlockCopyRoundTrip)
{
    PhysMem m;
    std::uint8_t buf[blockBytes];
    for (unsigned i = 0; i < blockBytes; ++i)
        buf[i] = std::uint8_t(i * 3);
    m.writeBlock(0x40, buf);
    std::uint8_t out[blockBytes] = {};
    m.readBlock(0x40, out);
    EXPECT_EQ(std::memcmp(buf, out, blockBytes), 0);
    m.copyBlock(0x2000, 0x40);
    m.readBlock(0x2000, out);
    EXPECT_EQ(std::memcmp(buf, out, blockBytes), 0);
}

TEST(PhysMem, CopyPageAndRelease)
{
    PhysMem m;
    m.writeWord32(pageBase(3) + 8, 7);
    m.copyPage(9, 3);
    EXPECT_EQ(m.readWord32(pageBase(9) + 8), 7u);
    m.releaseFrame(9);
    EXPECT_EQ(m.readWord32(pageBase(9) + 8), 0u);
}

TEST(FrameAllocator, AllocFreeReuse)
{
    FrameAllocator fa(8);
    PageNum a = fa.alloc();
    PageNum b = fa.alloc();
    EXPECT_NE(a, b);
    EXPECT_EQ(fa.inUse(), 2u);
    fa.free(a);
    EXPECT_EQ(fa.inUse(), 1u);
    EXPECT_EQ(fa.alloc(), a) << "freed frames are recycled";
}

TEST(FrameAllocator, NeverHandsOutFrameZero)
{
    FrameAllocator fa(4);
    for (int i = 0; i < 3; ++i)
        EXPECT_NE(fa.alloc(), 0u);
}

TxCoro
emptyBody(MemCtx)
{
    co_return;
}

TEST(Coro, EmptyBodyFinishesOnFirstResume)
{
    TxCoro c = emptyBody(MemCtx{});
    EXPECT_TRUE(c.runnable());
    EXPECT_EQ(c.resume(0), nullptr);
    EXPECT_TRUE(c.done());
}

TEST(Coro, DestroyMidExecutionIsSafe)
{
    auto body = [](MemCtx m) -> TxCoro {
        for (int i = 0; i < 100; ++i)
            co_await m.load(0x1000 + 4 * i);
    };
    TxCoro c = body(MemCtx{});
    const MemYield *op = c.resume(0);
    ASSERT_NE(op, nullptr);
    EXPECT_EQ(op->kind, OpKind::Load);
    c.destroy(); // abort mid-transaction: frame must free cleanly
    EXPECT_TRUE(c.done());
}

TEST(Coro, ValuesFlowThroughAwaits)
{
    auto body = [](MemCtx m) -> TxCoro {
        std::uint64_t a = co_await m.load(0x10);
        std::uint64_t b = co_await m.load(0x14);
        co_await m.store(0x18, std::uint32_t(a + b));
    };
    TxCoro c = body(MemCtx{});
    const MemYield *op = c.resume(0);
    ASSERT_EQ(op->vaddr, 0x10u);
    op = c.resume(30);
    ASSERT_EQ(op->vaddr, 0x14u);
    op = c.resume(12);
    ASSERT_EQ(op->kind, OpKind::Store);
    EXPECT_EQ(op->value, 42u);
}

TEST(Coro, PendingOpPointsIntoSubCoroutine)
{
    auto child = [](MemCtx m) -> TxCoro {
        std::uint64_t v = co_await m.load(0x20);
        co_await m.store(0x24, v + 1);
    };
    auto body = [child](MemCtx m) -> TxCoro {
        co_await m.load(0x10);
        co_await child(m);
        co_await m.compute(5);
    };
    TxCoro c = body(MemCtx{});
    const MemYield *op = c.resume(0);
    ASSERT_EQ(op->vaddr, 0x10u);
    // The child's ops bubble up as pointers into the child's frame ...
    const MemYield *inner = c.resume(0);
    ASSERT_NE(inner, op);
    EXPECT_EQ(inner->kind, OpKind::Load);
    EXPECT_EQ(inner->vaddr, 0x20u);
    // ... and each one stays readable until the next resume.
    op = c.resume(41);
    ASSERT_EQ(op->kind, OpKind::Store);
    EXPECT_EQ(op->vaddr, 0x24u);
    EXPECT_EQ(op->value, 42u);
    EXPECT_EQ(op->vaddr, 0x24u);
    // Once the child finishes, the parent's own op is pending again.
    op = c.resume(0);
    ASSERT_EQ(op->kind, OpKind::Compute);
    EXPECT_EQ(op->cycles, 5u);
    EXPECT_EQ(c.resume(0), nullptr);
    EXPECT_TRUE(c.done());
}

TEST(Report, AlignsColumns)
{
    Report r({"name", "value"});
    r.row({"a", "1"});
    r.row({"longer", "22"});
    std::FILE *f = std::tmpfile();
    r.print(f);
    std::rewind(f);
    char line[128];
    ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
    EXPECT_TRUE(std::string(line).find("name") != std::string::npos);
    std::fclose(f);
}

/** Correctness must hold for any cache geometry: sweep L2 size/assoc
 *  (and thus overflow pressure) for a transactional kernel. */
using Geometry = std::tuple<unsigned, unsigned>; // (l2 KB, assoc)

class CacheGeometryTest : public ::testing::TestWithParam<Geometry>
{};

TEST_P(CacheGeometryTest, RadixCorrectUnderAnyGeometry)
{
    auto [kb, assoc] = GetParam();
    SystemParams prm = quietParams(TmKind::SelectPtm);
    prm.l2Bytes = kb * 1024ull;
    prm.l2Assoc = assoc;
    prm.l1Bytes = 1024;
    ExperimentResult r = runWorkload("radix", prm, 0, 4);
    EXPECT_TRUE(r.verified)
        << "L2 " << kb << "KB/" << assoc << "-way";
    EXPECT_EQ(r.snapshot.value("sys.hit_tick_limit"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheGeometryTest,
    ::testing::Values(Geometry{2, 1}, Geometry{4, 2}, Geometry{16, 4},
                      Geometry{64, 8}, Geometry{256, 4}),
    [](const auto &info) {
        return "L2_" + std::to_string(std::get<0>(info.param)) + "KB_" +
               std::to_string(std::get<1>(info.param)) + "way";
    });

/** The same sweep under Copy-PTM exercises backup/restore heavily. */
class CopyGeometryTest : public ::testing::TestWithParam<Geometry>
{};

TEST_P(CopyGeometryTest, OceanCorrectUnderAnyGeometry)
{
    auto [kb, assoc] = GetParam();
    SystemParams prm = quietParams(TmKind::CopyPtm);
    prm.l2Bytes = kb * 1024ull;
    prm.l2Assoc = assoc;
    prm.l1Bytes = 1024;
    ExperimentResult r = runWorkload("ocean", prm, 0, 4);
    EXPECT_TRUE(r.verified)
        << "L2 " << kb << "KB/" << assoc << "-way";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CopyGeometryTest,
    ::testing::Values(Geometry{2, 2}, Geometry{8, 4}, Geometry{32, 4}),
    [](const auto &info) {
        return "L2_" + std::to_string(std::get<0>(info.param)) + "KB_" +
               std::to_string(std::get<1>(info.param)) + "way";
    });

// The open-addressing map behind the metadata caches, SPT, frame and
// TLB indices.

TEST(FlatMap, InsertFindEraseAcrossGrowth)
{
    FlatMap<std::uint64_t, int> m;
    EXPECT_TRUE(m.empty());
    for (std::uint64_t k = 0; k < 1000; ++k)
        m[k * 977] = int(k);
    EXPECT_EQ(m.size(), 1000u);
    for (std::uint64_t k = 0; k < 1000; ++k) {
        int *v = m.find(k * 977);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, int(k));
    }
    EXPECT_EQ(m.find(977 * 1000 + 1), nullptr);
    // Erase odd keys; even keys must survive the backward shifts.
    for (std::uint64_t k = 1; k < 1000; k += 2)
        EXPECT_TRUE(m.erase(k * 977));
    EXPECT_FALSE(m.erase(977)); // already gone
    EXPECT_EQ(m.size(), 500u);
    for (std::uint64_t k = 0; k < 1000; ++k) {
        if (k % 2)
            EXPECT_EQ(m.find(k * 977), nullptr);
        else
            ASSERT_NE(m.find(k * 977), nullptr);
    }
}

TEST(FlatMap, EraseBackwardShiftKeepsProbeChains)
{
    // Colliding keys form one probe chain; deleting from the middle
    // must keep the rest reachable (the backward-shift move-up rule).
    FlatMap<std::uint64_t, int> m;
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 0; k < 200; ++k)
        keys.push_back(k);
    for (auto k : keys)
        m[k] = int(k);
    for (std::size_t i = 0; i < keys.size(); i += 3)
        m.erase(keys[i]);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (i % 3 == 0) {
            EXPECT_EQ(m.find(keys[i]), nullptr);
        } else {
            int *v = m.find(keys[i]);
            ASSERT_NE(v, nullptr);
            EXPECT_EQ(*v, int(keys[i]));
        }
    }
}

TEST(FlatMap, ForEachVisitsEveryElementOnce)
{
    FlatMap<std::uint64_t, int> m;
    for (std::uint64_t k = 1; k <= 40; ++k)
        m[k] = 0;
    m.forEach([](std::uint64_t, int &v) { ++v; });
    std::vector<std::uint64_t> seen;
    const auto &cm = m;
    cm.forEach([&](std::uint64_t k, const int &v) {
        EXPECT_EQ(v, 1);
        seen.push_back(k);
    });
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(seen.size(), 40u);
    for (std::uint64_t k = 1; k <= 40; ++k)
        EXPECT_EQ(seen[k - 1], k);
}

TEST(FlatSet, InsertContainsEraseSemantics)
{
    FlatSet<std::uint64_t> s;
    EXPECT_TRUE(s.insert(7));
    EXPECT_FALSE(s.insert(7)); // duplicate
    EXPECT_TRUE(s.insert(9));
    EXPECT_TRUE(s.contains(7));
    EXPECT_FALSE(s.contains(8));
    EXPECT_EQ(s.size(), 2u);
    EXPECT_TRUE(s.erase(7));
    EXPECT_FALSE(s.erase(7));
    EXPECT_EQ(s.size(), 1u);
}

} // namespace
} // namespace ptm
