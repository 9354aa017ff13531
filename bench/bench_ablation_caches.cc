/**
 * @file
 * Ablation A: sensitivity to the VTS cache sizes.
 *
 * The paper provisions a 512-entry SPT cache and a 2048-entry TAV
 * cache in the memory controller (section 6.1). This sweep shrinks and
 * grows both together on the two overflow-heavy workloads; misses cost
 * structure walks in memory, so undersized caches should show up as
 * extra cycles on fft and ocean.
 */

#include <cstdio>
#include <string>

#include "harness/bench_driver.hh"
#include "harness/report.hh"

int
main(int argc, char **argv)
{
    using namespace ptm;

    BenchDriver d("bench_ablation_caches",
                  "Sweep the VTS SPT/TAV cache sizes.");
    if (auto rc = d.parse(argc, argv))
        return *rc;
    std::FILE *hout = d.out();

    struct Cfg
    {
        const char *label;
        unsigned spt, tav;
    };
    const Cfg cfgs[] = {
        {"1/16 size", 32, 128},
        {"1/4 size", 128, 512},
        {"paper (512/2048)", 512, 2048},
        {"4x size", 2048, 8192},
    };

    std::fprintf(hout,
                 "Ablation A: SPT/TAV cache size sweep (Select-PTM)\n\n");
    Report table({"config", "app", "cycles", "spt hit%", "tav hit%",
                  "verified"});
    BenchRecorder rec("ablation_caches");

    for (const char *app : {"fft", "ocean"}) {
        for (const Cfg &c : cfgs) {
            SystemParams prm = d.params(TmKind::SelectPtm);
            prm.sptCacheEntries = c.spt;
            prm.tavCacheEntries = c.tav;
            ExperimentResult r = d.run(app, prm, 4,
                                       std::string(app) + "/" + c.label);
            const StatSnapshot &s = r.snapshot;
            std::uint64_t spt_hits = s.counter("vts.spt_cache_hits");
            std::uint64_t tav_hits = s.counter("vts.tav_cache_hits");
            double spt_total = double(
                spt_hits + s.counter("vts.spt_cache_misses"));
            double tav_total = double(
                tav_hits + s.counter("vts.tav_cache_misses"));
            double spt_pct =
                spt_total ? 100.0 * double(spt_hits) / spt_total : 0.0;
            double tav_pct =
                tav_total ? 100.0 * double(tav_hits) / tav_total : 0.0;
            table.row({c.label, app, cellU(r.cycles),
                       cell("%.1f%%", spt_pct),
                       cell("%.1f%%", tav_pct),
                       r.verified ? "yes" : "NO"});
            rec.beginRow()
                .field("config", c.label)
                .field("app", app)
                .field("spt_entries", c.spt)
                .field("tav_entries", c.tav)
                .field("cycles", std::uint64_t(r.cycles))
                .field("spt_hit_pct", spt_pct)
                .field("tav_hit_pct", tav_pct)
                .field("verified", r.verified);
            addProfileFields(rec, r.profile);
        }
    }
    table.print(hout);

    return d.finish(rec);
}
