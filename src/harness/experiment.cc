/**
 * @file
 * Experiment runner implementation.
 */

#include "harness/experiment.hh"

#include <chrono>
#include <cstdio>

#include "harness/cli.hh"
#include "sim/logging.hh"

namespace ptm
{

ExperimentResult
runWorkload(const std::string &workload_name, SystemParams params,
            int scale, unsigned threads, const WorkloadOptList &wl_opts)
{
    WorkloadConfig wcfg;
    wcfg.threads = threads;
    wcfg.mode = syncModeFor(params.tmKind);
    wcfg.seed = params.seed;
    if (wcfg.mode == SyncMode::Serial)
        params.numCores = 1;
    if (params.maxTicks == 0)
        params.maxTicks = 20ull * 1000 * 1000 * 1000;

    // The legacy scale argument becomes the "scale" option (where the
    // workload declares one); explicit --wl-opt pairs are appended
    // after it so they win.
    const WorkloadInfo *info = findWorkload(workload_name);
    if (!info)
        fatal("unknown workload '%s' (known: %s)",
              workload_name.c_str(), workloadNameList().c_str());
    WorkloadOptList given;
    if (findWorkloadOption(*info, "scale"))
        given.emplace_back("scale", std::to_string(scale));
    given.insert(given.end(), wl_opts.begin(), wl_opts.end());

    auto wl = makeWorkload(workload_name, wcfg, given);
    System sys(params);
    wl->build(sys);
    // The System's replay line lacks the workload and system: prefix
    // them so audit warnings and post-mortem dumps replay this run.
    std::string repro = "--workload " + workload_name + " --system " +
                        tmKindArg(params.tmKind) + " " +
                        chaosReproArgs(params);
    sys.auditor().setRepro(repro);
    if (sys.flightrec())
        sys.flightrec()->setRepro(repro);

    ExperimentResult r = runSystem(sys);
    // A crashed run has no final state to verify in-process; recovery
    // replays the dump and verifies the committed prefix instead.
    r.verified = !r.crashed && wl->verify(sys);
    r.resolvedOptions = wl->config().options.items();
    collectObservers(
        sys, workload_name + "/" + tmKindName(params.tmKind), r);

    if (const WalManager *wal = sys.wal()) {
        r.walDurableBytes =
            r.crashed ? wal->durableBytesAt(sys.crashTick())
                      : wal->log().size();
        if (!params.persist.walPath.empty()) {
            fatal_if(!wl->persistSupported(),
                     "--wal-file: workload %s cannot emit a durable "
                     "checkpoint (persistSupported() is false)",
                     workload_name.c_str());
            WalDump d;
            d.tmKind = std::uint32_t(params.tmKind);
            d.threads = wl->config().threads;
            d.seed = params.seed;
            d.crashTick = r.crashed ? sys.crashTick() : 0;
            d.endTick = r.cycles;
            d.workload = workload_name;
            d.options = wl->config().options.items();
            wl->persistCheckpoint(
                [&d](Addr vbase, const std::vector<std::uint32_t> &w) {
                    d.checkpoint.push_back({vbase, w});
                });
            d.logBytesTotal = wal->log().size();
            d.log.assign(wal->log().begin(),
                         wal->log().begin() + r.walDurableBytes);
            std::string err;
            if (!writeWalDump(params.persist.walPath, d, &err))
                fatal("--wal-file: %s", err.c_str());
        }
    }

    if (!r.verified && !r.crashed)
        warn("%s/%s produced a wrong result", workload_name.c_str(),
             tmKindName(params.tmKind));
    return r;
}

ExperimentResult
runSystem(System &sys)
{
    ExperimentResult r;
    auto t0 = std::chrono::steady_clock::now();
    r.cycles = sys.run();
    r.wallSeconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    r.snapshot = sys.snapshot();
    r.eventsExecuted = r.snapshot.value("events.executed");
    r.crashed = sys.crashed();
    if (r.crashed)
        r.crashTick = sys.crashTick();
    return r;
}

void
collectObservers(System &sys, const std::string &label,
                 ExperimentResult &r)
{
    r.profile = sys.profiler().snapshot();
    r.host = sys.eq().hostProfile();
    r.auditViolations = sys.auditor().violations();
    r.auditChecks = sys.auditor().checksRun.value();
    if (sys.heatmap())
        r.heatmap = sys.heatmap()->snapshot();
    if (sys.timeseries())
        r.timeseries = sys.timeseries()->capture();
    if (sys.flightrec())
        r.forensics = sys.flightrec()->snapshot();
    if (sys.tracer().active())
        r.trace = captureTrace(sys.tracer(), label, r.timeseries);
}

std::size_t
reportAuditViolations(const char *tool, const std::string &workload,
                      const SystemParams &params,
                      const ExperimentResult &r)
{
    for (const auto &v : r.auditViolations)
        std::fprintf(stderr, "audit-violation: %s @%llu (%s): %s\n",
                     v.check.c_str(), (unsigned long long)v.tick,
                     v.where.c_str(), v.detail.c_str());
    if (!r.auditViolations.empty()) {
        std::string repro = chaosReproArgs(params);
        std::fprintf(stderr, "repro: %s%s%s --system %s %s\n", tool,
                     workload.empty() ? "" : " --workload ",
                     workload.c_str(), tmKindArg(params.tmKind),
                     repro.c_str());
    }
    return r.auditViolations.size();
}

double
speedupPct(Tick serial, Tick par)
{
    if (par == 0)
        return 0.0;
    return (double(serial) / double(par) - 1.0) * 100.0;
}

} // namespace ptm
