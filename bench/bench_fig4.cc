/**
 * @file
 * Reproduces Figure 4 of the paper: "% speedup over single-threaded
 * execution for lock-based multithreading, (base) VTM, Victim-Cache
 * VTM, Copy-PTM and Select-PTM", for fft / lu / radix / ocean / water
 * and the average.
 *
 * Paper's qualitative result to reproduce:
 *  - base VTM gets no/low speedup on fft and ocean (commit copy-back
 *    cost on the overflow-heavy programs) but decent speedup on the
 *    other three;
 *  - the victim cache recovers part of VTM's loss (avg +72% in the
 *    paper);
 *  - Copy-PTM (avg +116%) sits between VTM and Select-PTM because of
 *    its eviction-time backup copies and abort restores;
 *  - Select-PTM is the best TM system (avg +220%), competitive with or
 *    better than fine-grained locks (avg +134%).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "harness/bench_driver.hh"
#include "harness/report.hh"

int
main(int argc, char **argv)
{
    using namespace ptm;

    BenchDriver d("bench_fig4",
                  "Reproduce Figure 4: % speedup over "
                  "single-threaded execution.");
    if (auto rc = d.parse(argc, argv))
        return *rc;
    std::FILE *hout = d.out();

    const TmKind kinds[] = {TmKind::Locks, TmKind::Vtm, TmKind::VcVtm,
                            TmKind::CopyPtm, TmKind::SelectPtm};

    std::fprintf(hout, "Figure 4: %% speedup over single-threaded execution "
                "(4 cores)\n\n");
    Report table({"app", "4p locks", "VTM", "VC-VTM", "Copy-PTM",
                  "Sel-PTM"});
    BenchRecorder rec("fig4");

    double sums[5] = {};
    for (const auto &name : workloadNames()) {
        // The serial baseline runs on bare SystemParams: the shared
        // options (tracing, chaos, persistence, ...) never reach it.
        SystemParams sp;
        sp.tmKind = TmKind::Serial;
        Tick serial = d.run(name, sp, 4).cycles;

        std::vector<std::string> cells{name};
        for (unsigned k = 0; k < 5; ++k) {
            ExperimentResult r =
                d.run(name, d.params(kinds[k]), 4,
                      name + "/" + tmKindName(kinds[k]));
            double pct = speedupPct(serial, r.cycles);
            sums[k] += pct;
            cells.push_back(cell("%+.0f%%", pct) +
                            (r.verified ? "" : " !!WRONG"));
            rec.beginRow()
                .field("app", name)
                .field("system", tmKindName(kinds[k]))
                .field("serial_cycles", std::uint64_t(serial))
                .field("cycles", std::uint64_t(r.cycles))
                .field("speedup_pct", pct)
                .field("commits", r.snapshot.counter("tx.commits"))
                .field("aborts", r.snapshot.counter("tx.aborts"))
                .field("verified", r.verified);
            addProfileFields(rec, r.profile);
        }
        table.row(std::move(cells));
    }
    std::vector<std::string> avg{"Average"};
    for (unsigned k = 0; k < 5; ++k) {
        avg.push_back(cell("%+.0f%%", sums[k] / 5.0));
        rec.beginRow()
            .field("app", "average")
            .field("system", tmKindName(kinds[k]))
            .field("speedup_pct", sums[k] / 5.0);
    }
    table.row(std::move(avg));
    table.print(hout);

    return d.finish(rec, [&] {
        std::fprintf(hout, "\nPaper's averages: locks +134%%, VC-VTM "
                     "+72%%, Copy-PTM +116%%, Sel-PTM +220%%; base VTM "
                     "~0%% on fft/ocean.\n");
        std::fprintf(hout, "All results functionally verified: %s\n",
                     d.allVerified() ? "yes" : "NO");
    });
}
