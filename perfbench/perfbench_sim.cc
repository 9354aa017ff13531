/**
 * @file
 * One simulation of one benchmark workload, timed call by call.
 *
 * Makes the calls that runWorkload() bundles, each inside its own host
 * span: System construction, workload creation + build, System::run,
 * System::snapshot and Workload::verify. Prints one JSON object on
 * stdout: the build's provenance, the spans, the peak RSS and the run's
 * full ptm-stats-v1 document (manifest with SystemParams, resolved
 * workload options and the verify result, every stat group including
 * the auditor's, profile and host profile).
 * perfbench/run.py runs this binary once per simulation and derives
 * every metric from that object.
 *
 *     perfbench_sim --workload kv-skew --seed 1 --mode plain
 *
 * Modes: "plain" (the default observers: flight recorder on), "traced"
 * (adds cycle accounting, the host profiler, timeseries capture and the
 * PTM auditor; the event tracer stays off because it disables
 * fast-forward) and "noflightrec" (plain with forensics.depth = 0).
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness/stats_io.hh"
#include "harness/system.hh"
#include "workloads/workload.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||  \
    __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

using namespace ptm;

namespace
{

/**
 * One benchmark workload: a registered simulator workload plus the
 * machine it runs on. All run on Sel-PTM with fast-forward at the
 * bare-flag batch of 32; README.md says why each was chosen.
 */
struct BenchWorkload
{
    const char *name;
    const char *workload;
    unsigned threads;
    unsigned cores;
    unsigned memBanks;
    Durability durability;
    WorkloadOptList options;
};

const std::vector<BenchWorkload> &
benchWorkloads()
{
    static const std::vector<BenchWorkload> all = {
        {"kv-skew", "kv", 4, 4, 1, Durability::Off, {{"zipf", "0.99"}}},
        {"fft-overflow", "fft", 4, 4, 1, Durability::Off, {}},
        {"kv-durable-writes", "kv", 16, 16, 4, Durability::Wal,
         {{"zipf", "0"},
          {"lookup-pct", "20"},
          {"scan-pct", "0"},
          {"insert-pct", "50"},
          {"delete-pct", "30"}}},
    };
    return all;
}

/** One host span, in steady-clock nanoseconds. */
struct Span
{
    const char *name;
    int id;
    int parent;
    std::int64_t startNs;
    std::int64_t endNs;
};

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_sim: %s\n"
                 "usage: perfbench_sim --workload NAME --seed N "
                 "--mode plain|traced|noflightrec\n"
                 "       perfbench_sim --list\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    // Host timings from an unoptimized or instrumented build measure
    // the build, not the simulator.
#if defined(PERFBENCH_SANITIZED) || !defined(NDEBUG)
    std::fprintf(stderr, "perfbench_sim: refusing to report from a "
                         "sanitizer or assertion-enabled build\n");
    return 3;
#endif
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
        std::fprintf(stderr,
                     "perfbench_sim: refusing to report from a %s build "
                     "(Release required)\n",
                     PERFBENCH_BUILD_TYPE);
        return 3;
    }

    std::string name, mode = "plain";
    std::uint64_t seed = 1;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--list") {
            for (const BenchWorkload &w : benchWorkloads())
                std::printf("%s\n", w.name);
            return 0;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        if (a == "--workload") {
            name = v;
        } else if (a == "--mode") {
            mode = v;
        } else if (a == "--seed") {
            char *end = nullptr;
            seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0')
                return usage("--seed needs an unsigned integer");
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }

    const BenchWorkload *bw = nullptr;
    for (const BenchWorkload &w : benchWorkloads())
        if (name == w.name)
            bw = &w;
    if (!bw)
        return usage(("unknown workload '" + name + "'").c_str());
    if (mode != "plain" && mode != "traced" && mode != "noflightrec")
        return usage(("unknown mode '" + mode + "'").c_str());

    SystemParams params;
    params.tmKind = TmKind::SelectPtm;
    params.numCores = bw->cores;
    params.memBanks = bw->memBanks;
    params.fastForwardOps = 32;
    params.persist.policy = bw->durability;
    params.seed = seed;
    params.maxTicks = 20ull * 1000 * 1000 * 1000;
    if (mode == "traced") {
        params.profile.enabled = true;
        params.profile.host = true;
        params.timeseries.capture = true;
        params.audit.enabled = true;
    } else if (mode == "noflightrec") {
        params.forensics.depth = 0;
    }

    WorkloadConfig wcfg;
    wcfg.threads = bw->threads;
    wcfg.mode = syncModeFor(params.tmKind);
    wcfg.seed = params.seed;
    WorkloadOptList given = {{"scale", "1"}};
    given.insert(given.end(), bw->options.begin(), bw->options.end());

    std::vector<Span> spans;
    auto child = [&spans](const char *span_name, auto &&call) {
        std::int64_t t0 = nowNs();
        call();
        spans.push_back({span_name, int(spans.size()), 0, t0, nowNs()});
    };

    spans.push_back({"workload", 0, -1, nowNs(), 0});
    std::unique_ptr<System> sys;
    std::unique_ptr<Workload> wl;
    StatSnapshot snap;
    Tick cycles = 0;
    bool verified = false;
    child("harness.system_init",
          [&] { sys = std::make_unique<System>(params); });
    child("workloads.build", [&] {
        wl = makeWorkload(bw->workload, wcfg, given);
        wl->build(*sys);
    });
    child("harness.run", [&] { cycles = sys->run(); });
    child("harness.snapshot", [&] { snap = sys->snapshot(); });
    child("workloads.verify", [&] { verified = wl->verify(*sys); });
    spans[0].endNs = nowNs();

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    RunManifest man;
    man.tool = "perfbench_sim";
    man.workload = bw->workload;
    man.workloadOptions = wl->config().options.items();
    man.threads = wl->config().threads;
    man.scale = 1;
    man.cycles = cycles;
    man.verified = verified;
    // spans[3] is harness.run: the manifest's event-loop wall time.
    man.wallSeconds = double(spans[3].endNs - spans[3].startNs) * 1e-9;
    man.params = &params;
    ProfSnapshot prof = sys->profiler().snapshot();
    HostProfile host = sys->eq().hostProfile();
    std::ostringstream stats;
    emitRunJson(stats, man, snap, &prof, &host);

    std::ostringstream out;
    JsonWriter w(out);
    w.beginObject();
    w.member("mode", mode);
    w.key("build");
    w.beginObject();
    w.member("type", PERFBENCH_BUILD_TYPE);
    w.member("compiler", __VERSION__);
    w.member("git", gitDescribe());
    w.endObject();
    w.member("peak_rss_kb", std::int64_t(ru.ru_maxrss));
    w.key("spans");
    w.beginArray();
    for (const Span &s : spans) {
        w.beginObject();
        w.member("name", s.name);
        w.member("id", s.id);
        w.member("parent", s.parent);
        w.member("start_ns", std::int64_t(s.startNs - spans[0].startNs));
        w.member("end_ns", std::int64_t(s.endNs - spans[0].startNs));
        w.endObject();
    }
    w.endArray();
    w.endObject();
    std::cout << "{\"run\": " << out.str() << ",\n\"stats\": " << stats.str()
              << "}\n";
    return verified ? 0 : 1;
}
