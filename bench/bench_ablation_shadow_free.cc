/**
 * @file
 * Ablation C: Select-PTM shadow-page freeing policies (section 3.5.2).
 *
 * After commits, the committed blocks of a page may sit in the shadow
 * page, which therefore cannot be freed. The paper proposes two
 * reclamation policies:
 *
 *  - MergeOnSwap: merge the shadow's committed blocks into the home
 *    frame when the OS swaps the page out (exercises the Swap Index
 *    Table);
 *  - LazyMigrate: force non-speculative write-backs to the home page,
 *    toggling the selection bit, until the vector clears and the
 *    shadow frees.
 *
 * The microbenchmark dirties waves of pages transactionally under
 * memory pressure (small physical memory with swapping enabled), then
 * rewrites them non-transactionally, and reports shadow-page and swap
 * activity for both policies.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "harness/bench_driver.hh"
#include "harness/report.hh"
#include "harness/system.hh"

namespace
{

using namespace ptm;

const char *
policyName(ShadowFreePolicy policy)
{
    return policy == ShadowFreePolicy::MergeOnSwap ? "merge-on-swap"
                                                   : "lazy-migrate";
}

/** Run one policy and record it with @p d. */
ExperimentResult
run(BenchDriver &d, ShadowFreePolicy policy)
{
    const int scale = d.scale();
    SystemParams p = d.params(TmKind::SelectPtm);
    p.shadowFree = policy;
    p.swapEnabled = true;
    // Pressure: homes + shadows exceed the frame count at either size.
    p.physFrames = scale ? 360 : 90;
    p.l2Bytes = 16 * 1024;
    p.l2Assoc = 2;
    p.l1Bytes = 1024;
    p.daemonInterval = 0;
    p.osQuantum = 0;
    p.maxTicks = 2ull * 1000 * 1000 * 1000;

    System sys(p);
    ProcId proc = sys.createProcess();
    const unsigned kPages = scale ? 200 : 50;
    constexpr unsigned kWave = 25;
    constexpr Addr base = 0x1000000;

    std::vector<Step> steps;
    for (unsigned wave = 0; wave * kWave < kPages; ++wave) {
        unsigned p0 = wave * kWave;
        // A transaction dirtying one block on each page of the wave
        // (allocating a shadow page per page) and overflowing.
        TxStep tx;
        tx.body = [p0](MemCtx m) -> TxCoro {
            for (unsigned pg = p0; pg < p0 + kWave; ++pg)
                for (unsigned b = 0; b < blocksPerPage; b += 4)
                    co_await m.store(base + Addr(pg) * pageBytes +
                                         b * blockBytes,
                                     pg * 1000 + b);
        };
        steps.push_back(std::move(tx));
        // Non-transactional rewrites of the same pages: under
        // LazyMigrate each write-back migrates committed blocks home.
        steps.push_back(PlainStep{[p0](MemCtx m) -> TxCoro {
            for (unsigned pg = p0; pg < p0 + kWave; ++pg)
                for (unsigned b = 0; b < blocksPerPage; b += 4)
                    co_await m.store(base + Addr(pg) * pageBytes +
                                         b * blockBytes,
                                     pg * 1000 + b + 7);
        }});
    }
    // Final sweep touching everything (forces residency / swap-ins).
    steps.push_back(PlainStep{[kPages](MemCtx m) -> TxCoro {
        for (unsigned pg = 0; pg < kPages; ++pg)
            co_await m.load(base + Addr(pg) * pageBytes);
    }});
    sys.addThread(proc, std::move(steps), "waves");

    ExperimentResult r = runSystem(sys);
    collectObservers(
        sys, std::string("shadow-free/") + policyName(policy), r);
    r.verified = true;
    for (unsigned pg = 0; pg < kPages && r.verified; ++pg)
        for (unsigned b = 0; b < blocksPerPage; b += 4)
            if (sys.readWord32(proc, base + Addr(pg) * pageBytes +
                                         b * blockBytes) !=
                pg * 1000 + b + 7)
                r.verified = false;
    d.record("", p, r, policyName(policy));
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchDriver d("bench_ablation_shadow_free",
                  "Shadow-page freeing policies under memory "
                  "pressure.");
    if (auto rc = d.parse(argc, argv))
        return *rc;
    std::FILE *hout = d.out();

    std::fprintf(hout, "Ablation C: shadow-page freeing policies under "
                "memory pressure (Select-PTM, swap on)\n\n");
    Report table({"policy", "cycles", "shadow allocs", "shadow frees",
                  "live shadows at end", "lazy migrations", "swap-outs",
                  "swap-ins", "verified"});
    BenchRecorder rec("ablation_shadow_free");
    for (ShadowFreePolicy pol :
         {ShadowFreePolicy::MergeOnSwap, ShadowFreePolicy::LazyMigrate}) {
        ExperimentResult r = run(d, pol);
        const StatSnapshot &s = r.snapshot;
        std::uint64_t allocs = s.counter("vts.shadow_allocs");
        std::uint64_t frees = s.counter("vts.shadow_frees");
        std::uint64_t live = s.counter("vts.live_shadow_pages");
        std::uint64_t migrations = s.counter("vts.lazy_migrations");
        std::uint64_t swap_outs = s.counter("os.swap_outs");
        std::uint64_t swap_ins = s.counter("os.swap_ins");
        table.row({policyName(pol), cellU(r.cycles), cellU(allocs),
                   cellU(frees), cellU(live), cellU(migrations),
                   cellU(swap_outs), cellU(swap_ins),
                   r.verified ? "yes" : "NO"});
        rec.beginRow()
            .field("policy", policyName(pol))
            .field("cycles", std::uint64_t(r.cycles))
            .field("shadow_allocs", allocs)
            .field("shadow_frees", frees)
            .field("live_shadows", live)
            .field("lazy_migrations", migrations)
            .field("swap_outs", swap_outs)
            .field("swap_ins", swap_ins)
            .field("verified", r.verified);
        addProfileFields(rec, r.profile);
    }
    table.print(hout);

    return d.finish(rec, [&] {
        std::fprintf(hout, "\n(LazyMigrate reclaims shadows through "
                     "ordinary write-backs; MergeOnSwap holds them until "
                     "the OS pages the home out and merges into the SIT "
                     "image.)\n");
    });
}
