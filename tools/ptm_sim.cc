/**
 * @file
 * ptm_sim — command-line front end for the simulator.
 *
 * Runs one workload kernel on one system configuration and prints the
 * statistics, e.g.:
 *
 *     ptm_sim --workload ocean --system sel-ptm --threads 4
 *     ptm_sim --workload radix --system sel-ptm --gran wd:cache+mem
 *     ptm_sim --workload fft --system vtm --seed 7 --scale 0
 *     ptm_sim --workload fft --system vc-vtm --stats-json out.json
 *     ptm_sim --workload kv --wl-opt zipf=0.9 --wl-opt tx-ops=16
 *     ptm_sim --list-workloads
 *
 * With `--stats-json FILE` the full statistics registry plus a run
 * manifest is written as ptm-stats-v1 JSON; FILE may be `-` for
 * stdout, in which case the human-readable summary is suppressed so
 * the output can be piped straight into jq.
 */

#include <chrono>
#include <cstdio>
#include <string>

#include "harness/cli.hh"
#include "harness/experiment.hh"
#include "harness/profile_io.hh"
#include "harness/stats_io.hh"
#include "harness/trace_io.hh"
#include "persist/recover.hh"
#include "sim/logging.hh"

int
main(int argc, char **argv)
{
    using namespace ptm;

    std::string workload = "fft";
    std::string json_path;
    SystemParams prm;
    prm.tmKind = TmKind::SelectPtm;
    unsigned threads = 4;
    int scale = 1;

    OptionTable opts("ptm_sim",
                     "Run one workload kernel on one simulated system "
                     "and report its statistics.");
    opts.optionString("workload", "NAME", workloadNameList(), workload);
    opts.option("system", "KIND",
                "serial | locks | copy-ptm | sel-ptm | vtm | vc-vtm "
                "(default sel-ptm)",
                [&](const std::string &v) {
                    return parseTmKind(v, prm.tmKind);
                });
    opts.option("gran", "MODE", "blk | wd:cache | wd:cache+mem",
                [&](const std::string &v) {
                    return parseGranularity(v, prm.granularity);
                });
    opts.optionUnsigned("threads", "N", "worker threads (default 4)",
                        threads);
    opts.optionUnsigned("cores", "N", "CPU cores (default 4)",
                        prm.numCores);
    opts.optionInt("scale", "N", "0 = tiny test size, 1 = benchmark size",
                   scale);
    opts.optionU64("seed", "N", "workload RNG seed (default 1)",
                   prm.seed);
    opts.optionU64("quantum", "N", "OS time slice in cycles (0 = off)",
                   prm.osQuantum);
    opts.optionU64("daemon", "N", "daemon preemption interval (0 = off)",
                   prm.daemonInterval);
    opts.flag("swap", "enable OS swapping",
              [&] { prm.swapEnabled = true; });
    opts.optionU64("frames", "N", "physical memory frames",
                   prm.physFrames);
    opts.flag("lazy-migrate", "Select-PTM lazy shadow freeing",
              [&] { prm.shadowFree = ShadowFreePolicy::LazyMigrate; });
    opts.flag("flush-ctxsw", "flush tx cache lines on context switch",
              [&] { prm.flushOnContextSwitch = true; });
    opts.optionString("stats-json", "FILE",
                      "write ptm-stats-v1 JSON to FILE (- = stdout)",
                      json_path);
    std::string recover_path;
    opts.option("recover", "FILE",
                "recover and verify the crash dump at FILE (written "
                "by --wal-file), then exit",
                [&](const std::string &v) {
                    if (v.empty())
                        return false;
                    recover_path = v;
                    return true;
                });
    WorkloadOptList wl_opts;
    addWorkloadOptions(opts, wl_opts);
    addSystemOptions(opts, prm);
    bool list_stats = false;
    opts.flag("list-stats",
              "list every statistic of the configured system and exit",
              [&] { list_stats = true; });

    switch (opts.parse(argc, argv)) {
      case CliStatus::Ok:
        break;
      case CliStatus::Exit:
        return 0;
      case CliStatus::Error:
        return 2;
    }

    if (!recover_path.empty())
        return recoverRun(recover_path);

    if (std::string err = validateParams(prm); !err.empty()) {
        std::fprintf(stderr, "ptm_sim: %s\n", err.c_str());
        return 2;
    }

    if (list_stats) {
        System sys(prm);
        printStatList(sys.registry());
        return 0;
    }

    // At most one machine-readable stream may own stdout, and no two
    // may share one file (they are written at different times, so the
    // later open would silently clobber the earlier output).
    if (!checkOutputSinks("ptm_sim",
                          {{"--stats-json", json_path},
                           {"--trace", prm.trace.path},
                           {"--timeseries", prm.timeseries.path},
                           {"--postmortem",
                            prm.forensics.postmortemPath},
                           {"--wal-file", prm.persist.walPath}}))
        return 2;

    // Keep stdout machine-readable when either output goes there.
    if (json_path == "-" || prm.trace.path == "-")
        setInformToStderr(true);

    auto t0 = std::chrono::steady_clock::now();
    ExperimentResult r =
        runWorkload(workload, prm, scale, threads, wl_opts);
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    const StatSnapshot &s = r.snapshot;

    // Machine-readable output on stdout replaces the human summary.
    bool human = json_path != "-" && prm.trace.path != "-";
    if (human) {
        std::printf("workload          %s (scale %d, %u threads, seed "
                    "%llu)\n",
                    workload.c_str(), scale, threads,
                    (unsigned long long)prm.seed);
        std::printf("system            %s", tmKindName(prm.tmKind));
        if (prm.tmKind == TmKind::SelectPtm ||
            prm.tmKind == TmKind::CopyPtm)
            std::printf(" / %s", granularityName(prm.granularity));
        std::printf("\n");
        std::printf("cycles            %llu\n",
                    (unsigned long long)r.cycles);
        if (r.crashed)
            std::printf("crashed           at tick %llu (%llu durable "
                        "log bytes%s)\n",
                        (unsigned long long)r.crashTick,
                        (unsigned long long)r.walDurableBytes,
                        prm.persist.walPath.empty()
                            ? ""
                            : "; recover with --recover");
        else
            std::printf("verified          %s\n",
                        r.verified ? "yes" : "NO");
        if (prm.persist.enabled())
            std::printf("durable commits   %llu (%llu log bytes, "
                        "%llu stall ticks)\n",
                        (unsigned long long)
                            s.counter("persist.commits_persisted"),
                        (unsigned long long)
                            s.counter("persist.log_bytes"),
                        (unsigned long long)
                            s.counter("persist.flush_stall_ticks"));
        if (prm.audit.enabled)
            std::printf("audit             %llu passes, %zu violations\n",
                        (unsigned long long)r.auditChecks,
                        r.auditViolations.size());
        std::printf("memOps            %llu\n",
                    (unsigned long long)s.counter("sys.mem_ops"));
        std::printf("commits/aborts    %llu / %llu\n",
                    (unsigned long long)s.counter("tx.commits"),
                    (unsigned long long)s.counter("tx.aborts"));
        std::printf("conflicts/stalls  %llu / %llu\n",
                    (unsigned long long)s.counter("mem.conflicts"),
                    (unsigned long long)s.counter("mem.false_stalls"));
        std::printf("L2 evictions      %llu (tx: %llu)\n",
                    (unsigned long long)s.counter("mem.evictions"),
                    (unsigned long long)s.counter("mem.tx_evictions"));
        std::printf("bus transactions  %llu\n",
                    (unsigned long long)
                        s.counter("mem.bus_transactions"));
        std::printf("dram accesses     %llu\n",
                    (unsigned long long)s.counter("mem.dram_accesses"));
        std::printf("exceptions        %llu\n",
                    (unsigned long long)s.counter("os.exceptions"));
        std::printf("context switches  %llu\n",
                    (unsigned long long)s.counter("os.context_switches"));
        std::printf("pages / pg-x-wr   %llu / %llu\n",
                    (unsigned long long)s.counter("os.pages"),
                    (unsigned long long)s.counter("os.pg_x_wr"));
        std::uint64_t swap_out = s.counter("os.swap_outs");
        std::uint64_t swap_in = s.counter("os.swap_ins");
        if (swap_out || swap_in)
            std::printf("swap out/in       %llu / %llu\n",
                        (unsigned long long)swap_out,
                        (unsigned long long)swap_in);
        if (s.has("vts.shadow_allocs")) {
            std::printf("shadow pages      %llu allocated, %llu freed, "
                        "%llu live\n",
                        (unsigned long long)
                            s.counter("vts.shadow_allocs"),
                        (unsigned long long)
                            s.counter("vts.shadow_frees"),
                        (unsigned long long)
                            s.counter("vts.live_shadow_pages"));
            std::printf("SPT cache         %llu hits / %llu misses\n",
                        (unsigned long long)
                            s.counter("vts.spt_cache_hits"),
                        (unsigned long long)
                            s.counter("vts.spt_cache_misses"));
            std::printf("TAV cache         %llu hits / %llu misses\n",
                        (unsigned long long)
                            s.counter("vts.tav_cache_hits"),
                        (unsigned long long)
                            s.counter("vts.tav_cache_misses"));
        }
        if (r.heatmap.enabled && r.heatmap.conflictsTotal) {
            std::printf("hot pages         ");
            unsigned shown = 0;
            for (const auto &e : r.heatmap.conflictPages) {
                if (shown == 3)
                    break;
                if (shown)
                    std::printf(", ");
                if (e.key == invalidPage)
                    std::printf("?(%llu)",
                                (unsigned long long)e.count);
                else
                    std::printf("%llu(%llu)",
                                (unsigned long long)e.key,
                                (unsigned long long)e.count);
                ++shown;
            }
            std::printf("  [page(conflicts), %llu total]\n",
                        (unsigned long long)r.heatmap.conflictsTotal);
        }
        if (r.forensics.enabled) {
            std::printf("flight recorder   %llu-event ring: %llu live, "
                        "%llu retired, %llu postmortems, deepest "
                        "chain %u\n",
                        (unsigned long long)r.forensics.depth,
                        (unsigned long long)r.forensics.liveTxs,
                        (unsigned long long)r.forensics.retiredTxs,
                        (unsigned long long)r.forensics.postmortems,
                        r.forensics.deepestChain);
            if (r.forensics.droppedRecords)
                std::printf("warning: flight recorder ring dropped %llu "
                            "events; forensics are truncated (raise "
                            "%s)\n",
                            (unsigned long long)
                                r.forensics.droppedRecords,
                            prm.trace.path.empty()
                                ? "--flightrec-depth"
                                : "--trace-buffer-events");
        }
        if (s.has("vtm.xadt_inserts")) {
            std::printf("XADT inserts      %llu\n",
                        (unsigned long long)
                            s.counter("vtm.xadt_inserts"));
            std::printf("commit copybacks  %llu\n",
                        (unsigned long long)s.counter("vtm.copybacks"));
            std::printf("XF filtered       %llu\n",
                        (unsigned long long)s.counter("vtm.xf_filtered"));
        }
    }

    // The profile tables go to stderr when stdout carries a machine
    // stream, so --profile composes with --stats-json - / --trace -.
    std::FILE *prof_out = human ? stdout : stderr;
    printProfileTable(prof_out, r.profile);
    printHostProfile(prof_out, r.host);

    if (!json_path.empty()) {
        RunManifest m;
        m.tool = "ptm_sim";
        m.workload = workload;
        m.workloadOptions = r.resolvedOptions;
        m.threads = threads;
        m.scale = scale;
        m.cycles = r.cycles;
        m.verified = r.verified;
        m.wallSeconds = wall;
        m.eventsPerSec =
            wall > 0 ? s.value("events.executed") / wall : 0;
        m.simEventsPerSec =
            r.wallSeconds > 0 ? r.eventsExecuted / r.wallSeconds : 0;
        m.simTicksPerWallSec = wall > 0 ? double(r.cycles) / wall : 0;
        m.params = &prm;
        std::string err;
        if (!writeRunJson(json_path, m, s, &err, &r.profile, &r.host,
                          &r.heatmap, &r.forensics)) {
            std::fprintf(stderr, "ptm_sim: %s\n", err.c_str());
            return 2;
        }
        if (human)
            std::printf("stats json        %s\n", json_path.c_str());
    }

    if (!prm.trace.path.empty()) {
        std::string err;
        if (!writeTrace(prm.trace.path, prm.trace.format, {r.trace},
                        &err)) {
            std::fprintf(stderr, "ptm_sim: %s\n", err.c_str());
            return 2;
        }
        if (human)
            std::printf("trace             %s (%llu events, %llu "
                        "dropped)\n",
                        prm.trace.path.c_str(),
                        (unsigned long long)r.trace.events.size(),
                        (unsigned long long)r.trace.dropped);
    }
    std::size_t violations =
        reportAuditViolations("ptm_sim", workload, prm, r);
    // A crash cut is an injected fault, not a failure: the run has no
    // final state to verify in-process — recovery verifies the dump.
    return ((r.verified || r.crashed) && violations == 0) ? 0 : 1;
}
