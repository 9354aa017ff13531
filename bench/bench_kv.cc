/**
 * @file
 * bench_kv — the serving-workload flagship bench: the transactional
 * B+-tree KV store on Select-PTM, swept over thread count and Zipfian
 * skew.
 *
 * Each configuration reports committed transactions per second (at
 * the nominal 1 GHz clock), the per-cause abort breakdown, and the
 * p50/p95/p99 end-to-end commit latency from the tx.commit_latency
 * distribution — the serving-style tail-latency view the SPLASH
 * throughput benches cannot give. The uniform (zipf 0) rows isolate
 * what skew costs: hot leaves concentrate conflicts and push the
 * latency tail out.
 *
 * With --scale 0 a reduced sweep runs on the tiny store (CI smoke);
 * --wl-opt passes extra kv options (e.g. --wl-opt tx-ops=8) into
 * every configuration of the sweep.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/bench_driver.hh"
#include "harness/report.hh"
#include "sim/logging.hh"

int
main(int argc, char **argv)
{
    using namespace ptm;

    BenchDriver d("bench_kv",
                  "KV serving workload: committed tx/sec, abort "
                  "causes and commit-latency percentiles on "
                  "Select-PTM across threads and Zipfian skew.",
                  "0 = tiny store + reduced sweep, 1 = benchmark size");
    WorkloadOptList wl_opts;
    addWorkloadOptions(d.options(), wl_opts);
    if (auto rc = d.parse(argc, argv))
        return *rc;
    std::FILE *hout = d.out();

    // The wide-machine rows (16/32/64) exercise the banked
    // interconnect and the sharded supervisor at scale; the smoke
    // sweep keeps one mid and one max row so CI covers the wide
    // configurations without the full ladder.
    const std::vector<unsigned> thread_sweep =
        d.scale() == 0 ? std::vector<unsigned>{2, 4, 16, 64}
                       : std::vector<unsigned>{1, 2, 4, 8, 16, 32, 64};
    const double zipf_sweep[] = {0.0, 0.99};

    std::fprintf(hout, "KV serving workload on Sel-PTM "
                       "(committed tx/sec at 1 GHz)\n\n");
    Report table({"config", "commits", "aborts", "abort%", "tx/Mcyc",
                  "steady tx/Mcyc", "p50", "p95", "p99", "SPT hit%",
                  "TAV hit%", "ok"});
    BenchRecorder rec("kv");

    for (unsigned threads : thread_sweep) {
        for (double zipf : zipf_sweep) {
            std::string zstr = zipf == 0.0 ? "0" : "0.99";
            std::string config =
                strprintf("t%u-z%s", threads, zstr.c_str());

            SystemParams prm = d.params(TmKind::SelectPtm);
            prm.numCores = threads;
            // Always capture the time series internally: the sampler
            // is a pure read at the lowest event priority, so the
            // simulated results are bit-identical, and the last-half
            // commit deltas give the steady-state throughput row.
            prm.timeseries.capture = true;

            WorkloadOptList given;
            given.emplace_back("zipf", zstr);
            given.insert(given.end(), wl_opts.begin(), wl_opts.end());

            ExperimentResult r =
                d.run("kv", prm, threads, "kv/" + config, given);

            const StatSnapshot &s = r.snapshot;
            std::uint64_t commits = s.counter("tx.commits");
            std::uint64_t aborts = s.counter("tx.aborts");
            double attempts = double(commits + aborts);
            double abort_rate = attempts ? aborts / attempts : 0.0;
            double tx_per_mcycle =
                r.cycles ? commits / (double(r.cycles) / 1e6) : 0.0;
            // One tick is one cycle of the paper's 1 GHz CMP, so
            // tx/sec at the nominal clock is tx/cycle * 1e9.
            double tx_per_sec =
                r.cycles ? commits / (double(r.cycles) / 1e9) : 0.0;

            // Steady-state throughput: commit deltas over the run's
            // second half only, excluding the warm-up ramp (cold
            // caches, first-touch page faults, initial conflicts).
            std::uint64_t steady_commits = 0;
            Tick steady_span = 0;
            Tick half = Tick(r.cycles / 2);
            for (const auto &iv : r.timeseries.intervals) {
                if (iv.t0 < half || iv.t0 >= r.cycles)
                    continue;
                Tick t1 = std::min(Tick(iv.t1), Tick(r.cycles));
                steady_commits += r.timeseries.delta(iv, "tx.commits");
                steady_span += t1 - iv.t0;
            }
            double steady_tx_per_sec =
                steady_span
                    ? steady_commits / (double(steady_span) / 1e9)
                    : tx_per_sec;

            const StatValue *lat = s.find("tx.commit_latency");
            double p50 = lat ? lat->dist.percentile(50) : 0.0;
            double p95 = lat ? lat->dist.percentile(95) : 0.0;
            double p99 = lat ? lat->dist.percentile(99) : 0.0;

            std::uint64_t spt_h = s.counter("vts.spt_cache_hits");
            std::uint64_t spt_m = s.counter("vts.spt_cache_misses");
            std::uint64_t tav_h = s.counter("vts.tav_cache_hits");
            std::uint64_t tav_m = s.counter("vts.tav_cache_misses");
            double spt_rate =
                spt_h + spt_m ? double(spt_h) / double(spt_h + spt_m)
                              : 0.0;
            double tav_rate =
                tav_h + tav_m ? double(tav_h) / double(tav_h + tav_m)
                              : 0.0;

            table.row({config, cellU(commits), cellU(aborts),
                       cell("%.1f%%", abort_rate * 100.0),
                       cell("%.1f", tx_per_mcycle),
                       cell("%.1f", steady_tx_per_sec / 1e3),
                       cell("%.0f", p50), cell("%.0f", p95),
                       cell("%.0f", p99),
                       cell("%.1f%%", spt_rate * 100.0),
                       cell("%.1f%%", tav_rate * 100.0),
                       r.verified ? "yes" : "NO"});

            rec.beginRow()
                .field("app", "kv")
                .field("system", tmKindName(prm.tmKind))
                .field("config", config)
                .field("threads", threads)
                .field("zipf", zipf)
                .field("cycles", std::uint64_t(r.cycles))
                .field("commits", commits)
                .field("aborts", aborts)
                .field("aborts_conflict",
                       s.counter("tx.aborts_conflict"))
                .field("aborts_nontx", s.counter("tx.aborts_nontx"))
                .field("aborts_multiwriter",
                       s.counter("tx.aborts_multiwriter"))
                .field("aborts_explicit",
                       s.counter("tx.aborts_explicit"))
                .field("tx_per_mcycle", tx_per_mcycle)
                .field("tx_per_sec_1ghz", tx_per_sec)
                .field("steady_tx_per_sec_1ghz", steady_tx_per_sec)
                .field("abort_rate", abort_rate)
                .field("p50_commit_latency", p50)
                .field("p95_commit_latency", p95)
                .field("p99_commit_latency", p99)
                .field("spt_cache_hits", spt_h)
                .field("spt_cache_misses", spt_m)
                .field("tav_cache_hits", tav_h)
                .field("tav_cache_misses", tav_m)
                .field("spt_hit_rate", spt_rate)
                .field("tav_hit_rate", tav_rate)
                .field("verified", r.verified);
            // Durable-commit metrics exist only under --durability
            // wal, so volatile baseline rows are byte-identical and
            // bench_compare gates the new fields only when both runs
            // carried them.
            if (prm.persist.enabled()) {
                const StatValue *pw =
                    s.find("persist.commit_persist_wait");
                rec.field("commits_persisted",
                          s.counter("persist.commits_persisted"))
                    .field("wal_log_bytes",
                           s.counter("persist.log_bytes"))
                    .field("wal_stall_ticks",
                           s.counter("persist.flush_stall_ticks"))
                    .field("p50_durable_commit_latency",
                           pw ? pw->dist.percentile(50) : 0.0)
                    .field("p99_durable_commit_latency",
                           pw ? pw->dist.percentile(99) : 0.0);
            }
            addProfileFields(rec, r.profile);
        }
    }
    table.print(hout);

    return d.finish(rec, [&] {
        std::fprintf(hout, "\nLatencies are end-to-end commit ticks "
                           "(first begin to commit, retries included).\n");
        std::fprintf(hout, "All results functionally verified: %s\n",
                     d.allVerified() ? "yes" : "NO");
    });
}
