/**
 * @file
 * Reproduces Table 1 of the paper: "Transactional memory execution
 * behavior for loop regions in the SPLASH-2 programs".
 *
 * Columns: committed / aborted transactions, exceptions, context
 * switches, unique pages, pages written transactionally (pg-x-wr), the
 * conservative shadow-page bound (pg-x-wr / pages), the idealized
 * shadow-page overhead (time-averaged live speculative pages / pages),
 * and memory operations per cache-block eviction.
 *
 * The runs use the 4-thread Select-PTM system with the OS noise
 * enabled (timer quanta and daemon preemptions), matching the paper's
 * measurement setup. Absolute values differ from the paper (our
 * kernels are scaled-down re-creations, section "Substitutions" of
 * DESIGN.md); the per-benchmark *profile* — which programs commit or
 * abort a lot, which have the big footprints and the high eviction
 * rates — is the reproduced result, recorded in EXPERIMENTS.md.
 */

#include <cstdio>
#include <string>

#include "harness/bench_driver.hh"
#include "harness/report.hh"

namespace
{

/** Paper values for side-by-side comparison. */
struct PaperRow
{
    const char *app;
    unsigned commit, abort, exc, ctx, pages, pgxwr;
    double conservative, ideal, mopPerEvict;
};

constexpr PaperRow kPaper[] = {
    {"fft", 34, 5, 595, 52, 1041, 551, 52.9, 9.5, 87.5},
    {"lu", 656, 0, 17754, 1079, 2311, 2130, 92.2, 3.6, 95.3},
    {"radix", 70, 17, 615, 116, 771, 629, 81.6, 2.0, 246.3},
    {"ocean", 877, 282, 7417, 1421, 14966, 6769, 45.2, 0.2, 15.8},
    {"water", 59, 8, 32, 127, 241, 110, 45.6, 2.6, 4926.3},
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace ptm;

    BenchDriver d("bench_table1",
                  "Reproduce Table 1: transactional execution "
                  "behavior of the SPLASH-2 loop regions.");
    if (auto rc = d.parse(argc, argv))
        return *rc;
    std::FILE *hout = d.out();

    std::fprintf(hout, "Table 1: transactional execution behavior "
                "(4p Select-PTM, OS noise on)\n\n");

    Report table({"app", "commit", "abort", "exception", "ctx-switch",
                  "pages", "pg-x-wr", "conservative", "ideal",
                  "mop/evict"});
    BenchRecorder rec("table1");

    for (const auto &name : workloadNames()) {
        ExperimentResult r =
            d.run(name, d.params(TmKind::SelectPtm), 4, name);
        const StatSnapshot &s = r.snapshot;
        std::uint64_t evictions = s.counter("mem.evictions");
        double mop = evictions
                         ? s.value("sys.mop_per_evict")
                         : s.value("sys.mem_ops"); // no evictions
        table.row({name, cellU(s.counter("tx.commits")),
                   cellU(s.counter("tx.aborts")),
                   cellU(s.counter("os.exceptions")),
                   cellU(s.counter("os.context_switches")),
                   cellU(s.counter("os.pages")),
                   cellU(s.counter("os.pg_x_wr")),
                   cell("%.1f%%", s.value("sys.conservative_pct")),
                   cell("%.1f%%", s.value("sys.ideal_pct")),
                   cell("%.1f", mop) +
                       (evictions ? "" : " (no evictions)") +
                       (r.verified ? "" : "  !!WRONG RESULT")});
        rec.beginRow()
            .field("app", name)
            .field("cycles", std::uint64_t(r.cycles))
            .field("commits", s.counter("tx.commits"))
            .field("aborts", s.counter("tx.aborts"))
            .field("exceptions", s.counter("os.exceptions"))
            .field("context_switches",
                   s.counter("os.context_switches"))
            .field("pages", s.counter("os.pages"))
            .field("pg_x_wr", s.counter("os.pg_x_wr"))
            .field("conservative_pct",
                   s.value("sys.conservative_pct"))
            .field("ideal_pct", s.value("sys.ideal_pct"))
            .field("mop_per_evict", mop)
            .field("verified", r.verified);
        addProfileFields(rec, r.profile);
    }
    table.print(hout);

    // Wide-machine scaling rows: the same transactional profile on
    // 16/32/64 cores (fft, the cheapest kernel), exercising the
    // banked interconnect and the per-core supervisor sharding.
    std::fprintf(hout, "\nCore scaling (fft, Select-PTM):\n\n");
    Report scaling({"cores", "commit", "abort", "cycles",
                    "ctx-switch", "ok"});
    for (unsigned cores : {16u, 32u, 64u}) {
        SystemParams prm = d.params(TmKind::SelectPtm);
        prm.numCores = cores;
        ExperimentResult r = d.run("fft", prm, cores);
        const StatSnapshot &s = r.snapshot;
        scaling.row({"c" + std::to_string(cores),
                     cellU(s.counter("tx.commits")),
                     cellU(s.counter("tx.aborts")),
                     cellU(std::uint64_t(r.cycles)),
                     cellU(s.counter("os.context_switches")),
                     r.verified ? "yes" : "NO"});
        rec.beginRow()
            .field("app", "fft")
            .field("config", "scale-c" + std::to_string(cores))
            .field("cores", cores)
            .field("cycles", std::uint64_t(r.cycles))
            .field("commits", s.counter("tx.commits"))
            .field("aborts", s.counter("tx.aborts"))
            .field("context_switches",
                   s.counter("os.context_switches"))
            .field("verified", r.verified);
    }
    scaling.print(hout);

    return d.finish(rec, [&] {
        std::fprintf(hout,
                     "\nPaper's Table 1 (for shape comparison):\n\n");
        Report paper({"app", "commit", "abort", "exception",
                      "ctx-switch", "pages", "pg-x-wr", "conservative",
                      "ideal", "mop/evict"});
        for (const auto &p : kPaper) {
            paper.row({p.app, cellU(p.commit), cellU(p.abort),
                       cellU(p.exc), cellU(p.ctx), cellU(p.pages),
                       cellU(p.pgxwr), cell("%.1f%%", p.conservative),
                       cell("%.1f%%", p.ideal),
                       cell("%.1f", p.mopPerEvict)});
        }
        paper.print(hout);
    });
}
