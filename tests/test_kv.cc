/**
 * @file
 * The kv serving workload, host side first: the Zipfian sampler, the
 * deterministic op-program generator, the B+-tree page layout, and the
 * sequential oracle (including that it catches a seeded lost update),
 * then the full workload on every TM backend and its registry entry.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "sim_test_util.hh"
#include "workloads/kv.hh"
#include "workloads/zipfian.hh"

namespace ptm
{
namespace
{

using namespace ptm::test;

kv::Params
tinyParams()
{
    kv::Params p;
    p.threads = 4;
    p.keys = 2048;
    p.ops = 1500;
    p.scanLen = 8;
    return p;
}

TEST(KvZipfian, SameSeedBitExact)
{
    Zipfian z(1u << 17, 0.99);
    Pcg32 a(42, 7);
    Pcg32 b(42, 7);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(z.sample(a), z.sample(b)) << "diverged at draw " << i;
}

TEST(KvZipfian, SkewMatchesTheta)
{
    constexpr std::uint64_t n = 1024;
    constexpr int draws = 50000;
    auto head_share = [&](double theta) {
        Zipfian z(n, theta);
        Pcg32 rng(1, 2);
        int head = 0;
        for (int i = 0; i < draws; ++i) {
            std::uint64_t r = z.sample(rng);
            EXPECT_LT(r, n);
            head += r < 16;
        }
        return double(head) / draws;
    };
    // Under theta=0.99 the hottest 16 of 1024 ranks absorb most of the
    // traffic; uniform sampling gives them their fair 16/1024 ~ 1.6%.
    EXPECT_GT(head_share(0.99), 0.25);
    EXPECT_LT(head_share(0.0), 0.10);
}

/** FNV-1a over every thread's program, threads in order. */
std::uint64_t
programsDigest(const kv::Programs &programs)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ull; };
    for (const std::vector<kv::Op> &prog : programs) {
        mix(prog.size());
        for (const kv::Op &op : prog) {
            mix(std::uint64_t(op.type));
            mix(op.key);
            mix(op.len);
        }
    }
    return h;
}

/**
 * Thread @p t's stream drawn with its own Zipfian, as the generator
 * did before the normaliser was shared: the reference the shared
 * generator must reproduce bit for bit.
 */
std::vector<kv::Op>
referenceProgram(const kv::Params &p, unsigned t)
{
    Zipfian zipf(p.keys, p.zipf);
    Pcg32 rng(p.seed + std::uint64_t(t) * 1000003, 0xC0FFEEull + t);
    std::vector<kv::Op> ops;
    for (std::uint64_t i = 0; i < p.ops; ++i) {
        kv::Op op;
        unsigned roll = rng.below(100);
        if (roll < p.lookupPct) {
            op.type = kv::OpType::Lookup;
        } else if (roll < p.lookupPct + p.scanPct) {
            op.type = kv::OpType::Scan;
            op.len = std::uint32_t(p.scanLen);
        } else if (roll < p.lookupPct + p.scanPct + p.insertPct) {
            op.type = kv::OpType::Insert;
        } else {
            op.type = kv::OpType::Delete;
        }
        std::uint32_t key =
            kv::scatterKey(zipf.sample(rng), p.keys, p.seed);
        if (op.isWrite()) {
            key = key - key % p.threads + t;
            if (key >= p.keys)
                key -= p.threads;
        }
        op.key = key;
        ops.push_back(op);
    }
    return ops;
}

TEST(KvProgram, DeterministicPerThread)
{
    kv::Params p = tinyParams();
    kv::Programs a = kv::generatePrograms(p);
    kv::Programs b = kv::generatePrograms(p);
    ASSERT_EQ(a.size(), p.threads);
    for (unsigned t = 0; t < p.threads; ++t) {
        ASSERT_EQ(a[t].size(), p.ops);
        EXPECT_TRUE(a[t] == b[t]) << "thread " << t;
    }
    // Different threads draw different streams.
    EXPECT_FALSE(a[0] == a[1]);
}

TEST(KvProgram, StreamsMatchRecordedDigests)
{
    // Digests recorded from the per-thread generator that built one
    // Zipfian per thread; sharing the normaliser must not move a bit.
    kv::Params skew; // 4 threads, 131072 keys, zipf 0.99
    kv::Params uniform;
    uniform.threads = 16;
    uniform.zipf = 0.0;
    struct Case
    {
        const char *name;
        kv::Params p;
        std::uint64_t digest;
    };
    for (const Case &c : {Case{"skew", skew, 0xbc0d327b24566182ull},
                          Case{"uniform", uniform, 0xe052a37efd80f23eull},
                          Case{"tiny", tinyParams(), 0x3c63af9170c324ddull}}) {
        EXPECT_EQ(programsDigest(kv::generatePrograms(c.p)), c.digest)
            << c.name;
    }
}

TEST(KvProgram, SharedNormaliserMatchesPerThreadStreams)
{
    kv::Params p = tinyParams();
    kv::Programs shared = kv::generatePrograms(p);
    kv::Programs regenerated;
    for (unsigned t = 0; t < p.threads; ++t) {
        regenerated.push_back(referenceProgram(p, t));
        EXPECT_TRUE(shared[t] == regenerated[t]) << "thread " << t;
    }
    EXPECT_EQ(kv::expectedFinal(p, shared),
              kv::expectedFinal(p, regenerated));
}

TEST(KvProgram, WritesStayInOwnerPartition)
{
    kv::Params p = tinyParams();
    std::map<kv::OpType, int> count;
    kv::Programs programs = kv::generatePrograms(p);
    for (unsigned t = 0; t < p.threads; ++t) {
        for (const kv::Op &op : programs[t]) {
            ASSERT_LT(op.key, p.keys);
            if (op.isWrite()) {
                EXPECT_EQ(op.key % p.threads, t);
            }
            if (op.type == kv::OpType::Scan) {
                EXPECT_EQ(op.len, p.scanLen);
            }
            ++count[op.type];
        }
    }
    // All four op types occur, roughly in the configured 60/15/15/10
    // mix (loose bounds; the draw is pseudo-random, not stratified).
    double total = double(p.ops) * p.threads;
    EXPECT_NEAR(count[kv::OpType::Lookup] / total, 0.60, 0.05);
    EXPECT_NEAR(count[kv::OpType::Scan] / total, 0.15, 0.05);
    EXPECT_NEAR(count[kv::OpType::Insert] / total, 0.15, 0.05);
    EXPECT_NEAR(count[kv::OpType::Delete] / total, 0.10, 0.05);
}

TEST(KvLayout, NodeGeometry)
{
    kv::Layout lay(2048, 2);
    EXPECT_EQ(lay.leaves(), 2048 / kv::Layout::kLeafKeys);
    EXPECT_EQ(lay.depth(), 2u); // 128 leaves -> 8 inners -> 1 root
    EXPECT_EQ(lay.innerCount(1), 8u);
    EXPECT_EQ(lay.innerCount(2), 1u);
    EXPECT_EQ(lay.innerTotal(), 9u);

    // Leaves are 64-byte aligned: [occ][next][16 slots * vwords].
    EXPECT_EQ(lay.leafStrideWords() % 16, 0u);
    EXPECT_GE(lay.leafStrideWords(), 2 + 16 * lay.vwords());
    for (std::uint64_t l = 0; l < lay.leaves(); ++l)
        EXPECT_EQ(lay.leafAddr(l) % 64, 0u);

    // Slots of one leaf are disjoint and inside the leaf.
    for (std::uint64_t k = 0; k + 1 < kv::Layout::kLeafKeys; ++k)
        EXPECT_EQ(lay.slotAddr(k + 1) - lay.slotAddr(k),
                  4 * lay.vwords());
    Addr leaf0_end = lay.leafAddr(0) + 4 * lay.leafStrideWords();
    EXPECT_LE(lay.slotAddr(kv::Layout::kLeafKeys - 1) + 4 * lay.vwords(),
              leaf0_end);
    EXPECT_EQ(lay.leafAddr(1), leaf0_end);

    // The three regions cannot collide.
    Addr inner_end = lay.innerAddr(1, lay.innerCount(1) - 1) +
                     4 * kv::Layout::kInnerWords;
    EXPECT_GT(lay.innerAddr(1, 0), lay.metaAddr());
    EXPECT_LE(inner_end, kv::Layout::kLeafBase);
    EXPECT_EQ(lay.rootAddr(), lay.innerAddr(lay.depth(), 0));
}

TEST(KvLayout, SeparatorDescentReachesEveryLeaf)
{
    kv::Layout lay(2048, 2);
    // Walk root -> leaf exactly as the simulated program does (binary
    // search over the 15 separators, then the chosen child pointer) and
    // check the walk lands on leafOf(key) for every key.
    for (std::uint64_t key = 0; key < lay.keys(); ++key) {
        unsigned level = lay.depth();
        std::uint64_t idx = 0;
        while (level > 0) {
            unsigned c = 0;
            while (c < kv::Layout::kFanout - 1 &&
                   key >= lay.sepValue(level, idx, c))
                ++c;
            Addr child = lay.childAddr(level, idx, c);
            ASSERT_NE(child, 0u) << "key " << key;
            --level;
            std::uint64_t next =
                level == 0
                    ? (child - kv::Layout::kLeafBase) /
                          (4 * lay.leafStrideWords())
                    : idx * kv::Layout::kFanout + c;
            if (level > 0) {
                ASSERT_EQ(child, lay.innerAddr(level, next));
            }
            idx = next;
        }
        EXPECT_EQ(idx, lay.leafOf(key)) << "key " << key;
    }
}

TEST(KvOracle, DropIndexTargetsNeverRewrittenInsert)
{
    kv::Params p = tinyParams();
    auto program = kv::generatePrograms(p)[0];
    std::size_t drop = kv::chooseDropIndex(program);
    ASSERT_NE(drop, std::size_t(-1));
    ASSERT_EQ(program[drop].type, kv::OpType::Insert);
    // No later write of thread 0 may mask the suppressed insert.
    for (std::size_t i = drop + 1; i < program.size(); ++i) {
        if (program[i].isWrite()) {
            EXPECT_NE(program[i].key, program[drop].key);
        }
    }
}

TEST(KvOracle, ExpectedFinalRespectsPreloadAndWrites)
{
    kv::Params p = tinyParams();
    kv::Programs programs = kv::generatePrograms(p);
    auto final = kv::expectedFinal(p, programs);
    ASSERT_EQ(final.size(), p.keys);
    // Keys nobody writes keep their preload state.
    std::vector<bool> written(p.keys, false);
    for (const std::vector<kv::Op> &prog : programs)
        for (const kv::Op &op : prog)
            if (op.isWrite())
                written[op.key] = true;
    int untouched = 0;
    for (std::uint32_t k = 0; k < p.keys; ++k) {
        if (written[k])
            continue;
        ++untouched;
        if (kv::preloaded(p, k))
            EXPECT_EQ(final[k], kv::preloadTag(p.seed, k));
        else
            EXPECT_EQ(final[k], 0u);
    }
    EXPECT_GT(untouched, 0);
}

TEST(KvWorkload, ExpectedImageMatchesRegeneratedStreams)
{
    // The workload's committed-prefix image comes from the programs it
    // generated at construction; it must equal the image replayed from
    // streams regenerated independently, thread by thread.
    const WorkloadInfo *info = findWorkload("kv");
    ASSERT_NE(info, nullptr);
    WorkloadConfig cfg;
    std::string err;
    ASSERT_TRUE(
        resolveWorkloadOptions(*info, {{"scale", "0"}}, cfg.options, &err))
        << err;
    std::unique_ptr<Workload> w = info->factory(cfg);
    kv::Params p = kv::paramsFromConfig(cfg);
    kv::Programs regenerated;
    for (unsigned t = 0; t < p.threads; ++t)
        regenerated.push_back(referenceProgram(p, t));

    for (const std::vector<std::uint64_t> &counts :
         {std::vector<std::uint64_t>{}, std::vector<std::uint64_t>{3, 0, 7},
          std::vector<std::uint64_t>(p.threads, ~0ull / p.txOps)}) {
        std::map<Addr, std::uint32_t> built, replayed;
        w->persistExpected(counts, [&](Addr a, std::uint32_t v) {
            built[a] = v;
        });
        kv::forEachWord(p, kv::expectedAfterCommits(p, regenerated, counts),
                        [&](Addr a, std::uint32_t v) { replayed[a] = v; });
        EXPECT_FALSE(built.empty());
        EXPECT_EQ(built, replayed) << counts.size() << " counts";
    }
}

TEST(KvWorkload, OracleCatchesLostUpdate)
{
    SystemParams prm = quietParams(TmKind::SelectPtm);
    ExperimentResult r = runWorkload("kv", prm, 0, 4,
                                     {{"drop-write", "1"}});
    EXPECT_FALSE(r.verified)
        << "a silently dropped insert must fail verification";
}

TEST(KvWorkload, VerifiesOnAllBackends)
{
    for (TmKind kind :
         {TmKind::Serial, TmKind::Locks, TmKind::SelectPtm,
          TmKind::CopyPtm, TmKind::Vtm, TmKind::VcVtm}) {
        SystemParams prm = quietParams(kind);
        ExperimentResult r = runWorkload("kv", prm, 0, 4);
        EXPECT_TRUE(r.verified) << "kv on " << tmKindName(kind);
        EXPECT_EQ(r.snapshot.value("sys.hit_tick_limit"), 0.0);
        if (syncModeFor(kind) == SyncMode::Tx) {
            EXPECT_GT(r.snapshot.counter("tx.commits"), 0u);
        }
    }
}

TEST(KvRegistry, EntryAndOptionTable)
{
    const WorkloadInfo *info = findWorkload("kv");
    ASSERT_NE(info, nullptr);
    EXPECT_FALSE(info->description.empty());
    EXPECT_FALSE(info->paperKernel);
    for (const char *name : {"scale", "keys", "zipf", "ops", "tx-ops",
                             "scan-len", "drop-write"})
        EXPECT_NE(findWorkloadOption(*info, name), nullptr) << name;

    // kv is in the table but is not part of the Table 1 suite.
    auto names = workloadNames();
    EXPECT_EQ(names.size(), 5u);
    for (const auto &n : names)
        EXPECT_NE(n, "kv");
    bool listed = false;
    for (const WorkloadInfo &w : workloadTable())
        listed = listed || w.name == "kv";
    EXPECT_TRUE(listed);
}

TEST(KvRegistry, UnknownOptionDiagnosticNamesAlternatives)
{
    const WorkloadInfo *info = findWorkload("kv");
    ASSERT_NE(info, nullptr);
    WorkloadOptions out;
    std::string err;
    EXPECT_FALSE(resolveWorkloadOptions(*info, {{"bogus", "1"}}, out, &err));
    EXPECT_NE(err.find("bogus"), std::string::npos);
    EXPECT_NE(err.find("zipf"), std::string::npos)
        << "diagnostic should list the declared options: " << err;

    err.clear();
    EXPECT_FALSE(resolveWorkloadOptions(*info, {{"zipf", "hot"}}, out, &err));
    EXPECT_NE(err.find("zipf"), std::string::npos) << err;
}

} // namespace
} // namespace ptm
