/**
 * @file
 * Ablation B: commit vs abort cost of the versioning policies.
 *
 * A worker thread runs transactions that overflow the (shrunk) caches;
 * a saboteur thread injects non-transactional conflicting writes into
 * a controllable fraction of them, forcing aborts. This isolates the
 * core design trade-off of the paper:
 *
 *  - VTM buffers new values and copies them back at commit: cheap
 *    aborts, expensive commits (plus stalls on uncopied blocks);
 *  - Copy-PTM stores speculation in place: cheap commits, but aborts
 *    must restore every overwritten block from the shadow page;
 *  - Select-PTM toggles selection bits: cheap both ways.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness/bench_driver.hh"
#include "harness/report.hh"
#include "harness/system.hh"

namespace
{

using namespace ptm;

/**
 * Run one configuration and record it with @p d under @p label.
 *
 * @param kind        TM system under test
 * @param abort_every sabotage every n-th transaction (0 = never)
 */
ExperimentResult
run(BenchDriver &d, TmKind kind, unsigned abort_every,
    const std::string &label)
{
    SystemParams p = d.params(kind);
    p.l1Bytes = 1024;
    p.l2Bytes = 8 * 1024; // 128 lines: transactions overflow
    p.l2Assoc = 2;
    p.daemonInterval = 0;
    p.osQuantum = 0;
    p.maxTicks = 2ull * 1000 * 1000 * 1000;

    System sys(p);
    ProcId proc = sys.createProcess();
    const unsigned kRounds = d.scale() ? 40 : 8;
    constexpr unsigned kBlocks = 400;
    constexpr Addr data = 0x100000;
    constexpr Addr round_flag = 0x10000;

    // Worker: per round, announce the round (non-tx), then run one
    // overflowing transaction. In sabotage rounds the first attempt
    // lingers so the saboteur's write lands mid-transaction.
    auto attempt = std::make_shared<unsigned>(0);
    std::vector<Step> wsteps;
    for (unsigned r = 0; r < kRounds; ++r) {
        bool sabotage = abort_every && (r % abort_every) == 0;
        wsteps.push_back(PlainStep{[r](MemCtx m) -> TxCoro {
            co_await m.store(round_flag, r + 1);
        }});
        TxStep tx;
        tx.body = [attempt, sabotage, r](MemCtx m) -> TxCoro {
            unsigned a = ++*attempt;
            for (unsigned b = 0; b < kBlocks; ++b)
                co_await m.store(data + Addr(b) * blockBytes,
                                 r * kBlocks + b);
            if (sabotage && a == 1) {
                // Linger long enough that the saboteur's write lands
                // after the whole write set has overflowed.
                for (int i = 0; i < 600; ++i)
                    co_await m.compute(400);
            }
        };
        wsteps.push_back(std::move(tx));
    }
    sys.addThread(proc, std::move(wsteps), "worker");

    // Saboteur: on sabotage rounds, wait for the announcement and
    // stomp on the first data block non-transactionally.
    std::vector<Step> ssteps;
    ssteps.push_back(PlainStep{[abort_every, kRounds](MemCtx m) -> TxCoro {
        for (unsigned r = 0; r < kRounds; ++r) {
            bool sabotage = abort_every && (r % abort_every) == 0;
            while (co_await m.load(round_flag) < r + 1)
                co_await m.compute(500);
            if (sabotage) {
                // Wait out the worker's ~90K-cycle write phase first.
                co_await m.compute(120 * 1000);
                co_await m.store(data, 0xdead0000 + r);
            }
        }
    }});
    sys.addThread(proc, std::move(ssteps), "saboteur");

    ExperimentResult r = runSystem(sys);
    collectObservers(sys,
                     std::string("commit-abort/") + tmKindName(kind), r);
    // Verify: the final committed value of every block belongs to the
    // last round (the worker re-runs sabotaged transactions).
    r.verified = true;
    for (unsigned b = 0; b < kBlocks; ++b) {
        std::uint32_t v =
            sys.readWord32(proc, data + Addr(b) * blockBytes);
        if (v != (kRounds - 1) * kBlocks + b)
            r.verified = false;
    }
    d.record("", p, r, label);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchDriver d("bench_ablation_commit_abort",
                  "Commit vs abort cost of the versioning policies.");
    if (auto rc = d.parse(argc, argv))
        return *rc;
    std::FILE *hout = d.out();

    std::fprintf(hout, "Ablation B: commit/abort cost of the versioning "
                "policies (overflowing transactions)\n\n");
    Report table({"system", "abort rate", "cycles", "aborts",
                  "copy backups", "abort restores", "VTM copybacks",
                  "stalls", "verified"});
    BenchRecorder rec("ablation_commit_abort");

    const TmKind kinds[] = {TmKind::SelectPtm, TmKind::CopyPtm,
                            TmKind::Vtm, TmKind::VcVtm};
    for (unsigned every : {0u, 4u, 2u}) {
        for (TmKind k : kinds) {
            const char *rate = every == 0 ? "none"
                               : every == 4 ? "1 in 4"
                                            : "1 in 2";
            ExperimentResult r =
                run(d, k, every, std::string(tmKindName(k)) + "/" + rate);
            const StatSnapshot &s = r.snapshot;
            std::uint64_t aborts = s.counter("tx.aborts");
            std::uint64_t copy_backups = s.counter("vts.copy_backups");
            std::uint64_t restores = s.counter("vts.abort_restore_units");
            std::uint64_t copybacks = s.counter("vtm.copybacks");
            std::uint64_t stalls = s.counter("mem.false_stalls");
            table.row({tmKindName(k), rate, cellU(r.cycles),
                       cellU(aborts), cellU(copy_backups),
                       cellU(restores), cellU(copybacks), cellU(stalls),
                       r.verified ? "yes" : "NO"});
            rec.beginRow()
                .field("system", tmKindName(k))
                .field("abort_rate", rate)
                .field("cycles", std::uint64_t(r.cycles))
                .field("aborts", aborts)
                .field("copy_backups", copy_backups)
                .field("abort_restores", restores)
                .field("vtm_copybacks", copybacks)
                .field("stalls", stalls)
                .field("verified", r.verified);
            addProfileFields(rec, r.profile);
        }
    }
    table.print(hout);

    return d.finish(rec, [&] {
        std::fprintf(hout, "\n(Expected: Select-PTM cheap everywhere; "
                     "Copy-PTM pays abort restores; VTM pays commit "
                     "copybacks and stalls; the victim cache hides part "
                     "of them.)\n");
    });
}
