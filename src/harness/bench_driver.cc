/**
 * @file
 * Bench front-end driver implementation.
 */

#include "harness/bench_driver.hh"

#include "harness/trace_io.hh"
#include "sim/logging.hh"

namespace ptm
{

BenchDriver::BenchDriver(std::string prog, std::string summary,
                         const std::string &scale_help)
    : prog_(prog), opts_(std::move(prog), std::move(summary))
{
    opts_.optionString("json", "FILE",
                       "write ptm-bench-v1 results to FILE (- = stdout)",
                       json_path_);
    opts_.optionInt("scale", "N", scale_help, scale_);
}

std::optional<int>
BenchDriver::parse(int argc, char **argv)
{
    addSystemOptions(opts_, tmpl_);
    switch (opts_.parse(argc, argv)) {
      case CliStatus::Ok:
        break;
      case CliStatus::Exit:
        return 0;
      case CliStatus::Error:
        return 2;
    }

    // Crash dumps are single-run artifacts; a sweep would overwrite
    // one per configuration. Durable-commit policy knobs still apply.
    if (!tmpl_.persist.walPath.empty() || tmpl_.persist.crashAtTick) {
        std::fprintf(stderr,
                     "%s: --wal-file / --crash-at-tick are single-run "
                     "options; use ptm_sim\n",
                     prog_.c_str());
        return 2;
    }

    if (!checkOutputSinks(prog_.c_str(),
                          {{"--json", json_path_},
                           {"--trace", tmpl_.trace.path},
                           {"--timeseries", tmpl_.timeseries.path},
                           {"--postmortem",
                            tmpl_.forensics.postmortemPath}}))
        return 2;

    // Machine-readable output on stdout moves the human tables and
    // inform() status lines to stderr so the stream stays parseable.
    if (json_path_ == "-" || tmpl_.trace.path == "-") {
        setInformToStderr(true);
        out_ = stderr;
    }
    return std::nullopt;
}

SystemParams
BenchDriver::params(TmKind kind) const
{
    SystemParams prm = tmpl_;
    prm.tmKind = kind;
    if (syncModeFor(kind) != SyncMode::Tx)
        prm.persist = PersistParams();
    return prm;
}

ExperimentResult
BenchDriver::run(const std::string &workload, const SystemParams &prm,
                 unsigned threads, const std::string &label,
                 const WorkloadOptList &wl_opts)
{
    ExperimentResult r = runWorkload(workload, prm, scale_, threads,
                                     wl_opts);
    record(workload, prm, r, label);
    return r;
}

void
BenchDriver::record(const std::string &workload, const SystemParams &prm,
                    ExperimentResult &r, const std::string &label)
{
    violations_ += reportAuditViolations(prog_.c_str(), workload, prm, r);
    if (!prm.trace.path.empty())
        captures_.push_back(std::move(r.trace));
    if (!label.empty())
        printRunProfile(out_, label, r.profile, r.host);
    if (!r.verified)
        ++failures_;
}

int
BenchDriver::finish(const BenchRecorder &rec,
                    const std::function<void()> &epilogue)
{
    if (!rec.writeJson(json_path_)) {
        std::fprintf(stderr, "%s: cannot write %s\n", prog_.c_str(),
                     json_path_.c_str());
        return 2;
    }
    const TraceParams &trace = tmpl_.trace;
    if (!trace.path.empty()) {
        std::string err;
        if (!writeTrace(trace.path, trace.format, captures_, &err)) {
            std::fprintf(stderr, "%s: %s\n", prog_.c_str(), err.c_str());
            return 2;
        }
        inform("trace written to %s (%zu captures)", trace.path.c_str(),
               captures_.size());
    }
    if (epilogue)
        epilogue();
    return failures_ == 0 && violations_ == 0 ? 0 : 1;
}

} // namespace ptm
