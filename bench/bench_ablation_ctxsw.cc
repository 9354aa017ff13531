/**
 * @file
 * Ablation D: context-switch handling.
 *
 * PTM tags cache lines with transaction IDs, so a transaction's cached
 * state survives a context switch (section 4.7). VTM instead requires
 * the blocks touched by the departing transaction to be evicted and
 * invalidated. This ablation runs an oversubscribed system (8 threads
 * on 4 cores, aggressive quantum) with and without flush-on-switch.
 */

#include <cstdio>
#include <string>

#include "harness/bench_driver.hh"
#include "harness/report.hh"

int
main(int argc, char **argv)
{
    using namespace ptm;

    BenchDriver d("bench_ablation_ctxsw",
                  "Context-switch handling: PTM tx-ID tags vs "
                  "flush-on-switch.");
    if (auto rc = d.parse(argc, argv))
        return *rc;
    std::FILE *hout = d.out();

    std::fprintf(hout, "Ablation D: context switches — PTM tx-ID tags vs "
                "flush-on-switch (8 threads / 4 cores)\n\n");
    Report table({"app", "mode", "cycles", "ctx-switches",
                  "tx evictions", "flush aborts", "verified"});
    BenchRecorder rec("ablation_ctxsw");

    for (const char *app : {"lu", "water"}) {
        for (bool flush : {false, true}) {
            SystemParams prm = d.params(TmKind::SelectPtm);
            prm.osQuantum = 20 * 1000;
            prm.daemonInterval = 300 * 1000;
            prm.flushOnContextSwitch = flush;
            const char *mode =
                flush ? "flush-on-switch" : "tx-ID tags (PTM)";
            ExperimentResult r =
                d.run(app, prm, 8, std::string(app) + "/" + mode);
            auto row = rowFromStats(
                {app, mode, cellU(r.cycles)}, r.snapshot,
                {"os.context_switches", "mem.tx_evictions",
                 "mem.ctxsw_flush_aborts"});
            row.push_back(r.verified ? "yes" : "NO");
            table.row(std::move(row));
            rec.beginRow()
                .field("app", app)
                .field("mode", mode)
                .field("cycles", std::uint64_t(r.cycles))
                .field("context_switches",
                       r.snapshot.counter("os.context_switches"))
                .field("tx_evictions",
                       r.snapshot.counter("mem.tx_evictions"))
                .field("ctxsw_flush_aborts",
                       r.snapshot.counter("mem.ctxsw_flush_aborts"))
                .field("verified", r.verified);
            addProfileFields(rec, r.profile);
        }
    }
    table.print(hout);

    return d.finish(rec, [&] {
        std::fprintf(hout, "\n(Flushing forces overflow handling on "
                     "every switch inside a transaction; PTM's tagged "
                     "lines avoid it.)\n");
    });
}
