/**
 * @file
 * Unbounded-transaction demo: the ocean kernel's band transactions
 * write ~290 KB each — more than the 256 KB L2 — so the hardware TM
 * must spill speculative state. This example runs the same workload on
 * Select-PTM and on the VTM baseline and contrasts how they pay for
 * the overflow:
 *
 *  - Select-PTM spreads versions across home/shadow pages and commits
 *    by toggling selection bits (no data copies);
 *  - VTM buffers speculative blocks in its XADT and must copy every
 *    one of them back to memory at commit, stalling accessors.
 *
 * Build & run:   ./build/examples/example_ocean_overflow
 */

#include <cstdio>

#include "harness/experiment.hh"

using namespace ptm;

int
main()
{
    SystemParams sp;
    sp.tmKind = TmKind::Serial;
    Tick serial = runWorkload("ocean", sp, /*scale=*/1, 4).cycles;
    std::printf("ocean, single thread            : %llu cycles\n\n",
                (unsigned long long)serial);

    for (TmKind kind : {TmKind::SelectPtm, TmKind::Vtm}) {
        SystemParams prm;
        prm.tmKind = kind;
        ExperimentResult r = runWorkload("ocean", prm, 1, 4);
        auto stat = [&r](const char *path) {
            return (unsigned long long)r.snapshot.counter(path);
        };
        std::printf("%s on 4 cores:\n", tmKindName(kind));
        std::printf("  cycles            : %llu  (%+.0f%% speedup)\n",
                    (unsigned long long)r.cycles,
                    speedupPct(serial, r.cycles));
        std::printf("  commits / aborts  : %llu / %llu\n",
                    stat("tx.commits"), stat("tx.aborts"));
        std::printf("  tx evictions      : %llu (overflowed blocks)\n",
                    stat("mem.tx_evictions"));
        if (kind == TmKind::SelectPtm) {
            std::printf("  shadow pages      : %llu allocated, "
                        "%llu freed\n",
                        stat("vts.shadow_allocs"),
                        stat("vts.shadow_frees"));
            std::printf("  commit walk nodes : %llu (no data copies)\n",
                        stat("vts.commit_walk_nodes"));
        } else {
            std::printf("  XADT copy-backs   : %llu blocks copied at "
                        "commit\n",
                        stat("vtm.copybacks"));
            std::printf("  stalls            : %llu accesses waited "
                        "for copy-backs\n",
                        stat("mem.false_stalls"));
        }
        std::printf("  result verified   : %s\n\n",
                    r.verified ? "yes" : "NO");
    }
    return 0;
}
