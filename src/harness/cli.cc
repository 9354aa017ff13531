/**
 * @file
 * Option-table parsing implementation.
 */

#include "harness/cli.hh"

#include <algorithm>
#include <cstdio>

#include "sim/logging.hh"

namespace ptm
{

OptionTable::OptionTable(std::string prog, std::string summary)
    : prog_(std::move(prog)), summary_(std::move(summary))
{
}

void
OptionTable::flag(const std::string &name, const std::string &help,
                  std::function<void()> on)
{
    Opt o;
    o.name = name;
    o.help = help;
    o.onFlag = std::move(on);
    opts_.push_back(std::move(o));
}

void
OptionTable::exitFlag(const std::string &name, const std::string &help,
                      std::function<void()> on)
{
    Opt o;
    o.name = name;
    o.help = help;
    o.exits = true;
    o.onFlag = std::move(on);
    opts_.push_back(std::move(o));
}

void
OptionTable::option(const std::string &name, const std::string &metavar,
                    const std::string &help,
                    std::function<bool(const std::string &)> on)
{
    Opt o;
    o.name = name;
    o.metavar = metavar;
    o.help = help;
    o.onValue = std::move(on);
    opts_.push_back(std::move(o));
}

namespace
{

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty())
        return false;
    std::uint64_t v = 0;
    for (char c : s) {
        if (c < '0' || c > '9')
            return false;
        std::uint64_t d = std::uint64_t(c - '0');
        if (v > (UINT64_MAX - d) / 10)
            return false;
        v = v * 10 + d;
    }
    out = v;
    return true;
}

/** Decimal or 0x-prefixed hexadecimal address. */
bool
parseAddr(const std::string &s, std::uint64_t &out)
{
    if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
        std::uint64_t v = 0;
        for (std::size_t i = 2; i < s.size(); ++i) {
            char c = s[i];
            unsigned d;
            if (c >= '0' && c <= '9')
                d = unsigned(c - '0');
            else if (c >= 'a' && c <= 'f')
                d = unsigned(c - 'a') + 10;
            else if (c >= 'A' && c <= 'F')
                d = unsigned(c - 'A') + 10;
            else
                return false;
            if (v > (UINT64_MAX - d) / 16)
                return false;
            v = v * 16 + d;
        }
        out = v;
        return true;
    }
    return parseU64(s, out);
}

} // namespace

void
OptionTable::optionString(const std::string &name,
                          const std::string &metavar,
                          const std::string &help, std::string &dest)
{
    option(name, metavar, help, [&dest](const std::string &v) {
        dest = v;
        return true;
    });
}

void
OptionTable::optionU64(const std::string &name,
                       const std::string &metavar,
                       const std::string &help, std::uint64_t &dest)
{
    option(name, metavar, help, [&dest](const std::string &v) {
        return parseU64(v, dest);
    });
}

void
OptionTable::optionUnsigned(const std::string &name,
                            const std::string &metavar,
                            const std::string &help, unsigned &dest)
{
    option(name, metavar, help, [&dest](const std::string &v) {
        std::uint64_t u;
        if (!parseU64(v, u) || u > 0xFFFFFFFFull)
            return false;
        dest = unsigned(u);
        return true;
    });
}

void
OptionTable::optionInt(const std::string &name,
                       const std::string &metavar,
                       const std::string &help, int &dest)
{
    option(name, metavar, help, [&dest](const std::string &v) {
        bool neg = !v.empty() && v[0] == '-';
        std::uint64_t u;
        if (!parseU64(neg ? v.substr(1) : v, u) || u > 0x7FFFFFFFull)
            return false;
        dest = neg ? -int(u) : int(u);
        return true;
    });
}

const OptionTable::Opt *
OptionTable::find(const std::string &name) const
{
    for (const auto &o : opts_)
        if (o.name == name)
            return &o;
    return nullptr;
}

void
OptionTable::printHelp() const
{
    std::printf("usage: %s [options]\n", prog_.c_str());
    if (!summary_.empty())
        std::printf("%s\n", summary_.c_str());
    std::printf("\noptions:\n");
    std::size_t width = 0;
    auto render = [](const Opt &o) {
        std::string left = "--" + o.name;
        if (!o.metavar.empty())
            left += " " + o.metavar;
        return left;
    };
    for (const auto &o : opts_) {
        std::size_t w = render(o).size();
        if (w > width)
            width = w;
    }
    for (const auto &o : opts_)
        std::printf("  %-*s  %s\n", int(width), render(o).c_str(),
                    o.help.c_str());
    std::printf("  %-*s  %s\n", int(width), "--help",
                "show this help and exit");
}

namespace
{

void
addTraceOptions(OptionTable &opts, TraceParams &dest)
{
    opts.optionString("trace", "FILE",
                      "write an event trace to FILE ('-' for stdout)",
                      dest.path);
    opts.option("trace-format", "FMT",
                "trace format: jsonl (ptm-trace-v1) | chrome "
                "(Perfetto)",
                [&dest](const std::string &v) {
                    return parseTraceFormat(v, dest.format);
                });
    opts.option("trace-categories", "LIST",
                "comma-separated categories (tx,conflict,meta,page,"
                "cache,os,watch,chaos,persist) or 'all'",
                [&dest](const std::string &v) {
                    return parseTraceCategories(v, dest.categories);
                });
    opts.option("trace-buffer-events", "N",
                "per-run ring capacity in events when tracing; keeps "
                "the newest N, at most " +
                    std::to_string(traceRingMaxEvents),
                [&dest](const std::string &v) {
                    std::uint64_t n;
                    if (!parseU64(v, n) || n == 0 || n > traceRingMaxEvents)
                        return false;
                    dest.bufferEvents = std::size_t(n);
                    return true;
                });
    opts.option("watch-addr", "ADDR",
                "emit watchpoint events for this physical word "
                "address (decimal or 0x hex)",
                [&dest](const std::string &v) {
                    std::uint64_t a;
                    if (!parseAddr(v, a))
                        return false;
                    dest.watchAddr = Addr(a);
                    return true;
                });
}

void
addProfileOptions(OptionTable &opts, ProfileParams &dest)
{
    opts.flag("profile",
              "enable cycle accounting; prints the per-core tick "
              "decomposition and adds a 'profile' JSON section",
              [&dest] { dest.enabled = true; });
    opts.flag("host-profile",
              "also profile the host event loop (per-site event "
              "counts and sampled wall time); implies --profile",
              [&dest] {
                  dest.enabled = true;
                  dest.host = true;
              });
}

void
addMachineOptions(OptionTable &opts, SystemParams &dest)
{
    opts.option("mem-banks", "N",
                "address-interleaved interconnect banks (power of "
                "two, max 256; default 1 = the paper's single bus)",
                [&dest](const std::string &v) {
                    std::uint64_t n;
                    if (!parseU64(v, n) || n == 0 || n > 256 ||
                        (n & (n - 1)) != 0)
                        return false;
                    dest.memBanks = unsigned(n);
                    return true;
                });
}

void
addRobustnessOptions(OptionTable &opts, SystemParams &prm)
{
    opts.flag("chaos",
              "enable deterministic fault injection (seeded; see "
              "--chaos-seed / --chaos-plan)",
              [&prm] { prm.chaos.enabled = true; });
    opts.option("chaos-seed", "N",
                "fault-injection RNG seed (default 1); implies --chaos",
                [&prm](const std::string &v) {
                    std::uint64_t n;
                    if (!parseU64(v, n))
                        return false;
                    prm.chaos.enabled = true;
                    prm.chaos.seed = n;
                    return true;
                });
    opts.option("chaos-plan", "LIST",
                "comma-separated fault kinds (abort,squeeze,flush,"
                "swap,preempt,delay) or 'all'; implies --chaos",
                [&prm](const std::string &v) {
                    if (!parseChaosPlan(v, prm.chaos.plan))
                        return false;
                    prm.chaos.enabled = true;
                    return true;
                });
    opts.option("chaos-interval", "TICKS",
                "ticks between injected faults (default 50000); "
                "implies --chaos",
                [&prm](const std::string &v) {
                    std::uint64_t n;
                    if (!parseU64(v, n) || n == 0)
                        return false;
                    prm.chaos.enabled = true;
                    prm.chaos.interval = Tick(n);
                    return true;
                });

    opts.flag("audit",
              "walk and cross-check the PTM structures (SPT/SIT/TAV/"
              "selection) at boundaries and intervals; PTM systems only",
              [&prm] { prm.audit.enabled = true; });

    opts.flag("backoff",
              "randomize the exponential abort-restart backoff "
              "(seeded per core; deterministic)",
              [&prm] { prm.contention.randomBackoff = true; });
    opts.option("retry-budget", "N",
                "consecutive aborts before a transaction claims the "
                "serialized starvation token (0 disables)",
                [&prm](const std::string &v) {
                    std::uint64_t n;
                    if (!parseU64(v, n) || n > 0xFFFFFFFFull)
                        return false;
                    prm.contention.retryBudget = unsigned(n);
                    return true;
                });
}

void
addForensicsOptions(OptionTable &opts, ForensicsParams &prm)
{
    opts.option("flightrec-depth", "N",
                "flight-recorder ring capacity in events when not "
                "tracing; default 4096, 0 removes the recorder, at "
                "most " + std::to_string(traceRingMaxEvents),
                [&prm](const std::string &v) {
                    std::uint64_t n;
                    if (!parseU64(v, n) || n > traceRingMaxEvents)
                        return false;
                    prm.depth = unsigned(n);
                    return true;
                });
    opts.option("postmortem", "FILE",
                "arm abort post-mortem capture and write each "
                "ptm-postmortem-v1 JSON document to FILE ('-' for "
                "stderr)",
                [&prm](const std::string &v) {
                    if (v.empty())
                        return false;
                    prm.postmortemPath = v == "-" ? "stderr" : v;
                    return true;
                });
    opts.option("postmortem-on-abort", "N",
                "arm capture and trigger a post-mortem when any "
                "transaction reaches N aborts (0 disables)",
                [&prm](const std::string &v) {
                    std::uint64_t n;
                    if (!parseU64(v, n) || n > 0xFFFFFFFFull)
                        return false;
                    prm.onAbortThreshold = unsigned(n);
                    return true;
                });
}

void
addObservabilityOptions(OptionTable &opts, SystemParams &prm)
{
    opts.option("timeseries", "FILE",
                "write ptm-timeseries-v1 JSONL records to FILE ('-' "
                "for stderr); implies --heatmap",
                [&prm](const std::string &v) {
                    if (v.empty())
                        return false;
                    prm.timeseries.path = v == "-" ? "stderr" : v;
                    prm.heatmap.enabled = true;
                    return true;
                });
    opts.option("timeseries-interval", "TICKS",
                "time-series sampling period in simulated ticks "
                "(default 100000)",
                [&prm](const std::string &v) {
                    std::uint64_t n;
                    if (!parseU64(v, n) || n == 0)
                        return false;
                    prm.timeseries.interval = Tick(n);
                    return true;
                });
    opts.flag("heatmap",
              "attribute conflicts, aborts and supervisor misses to "
              "the hottest pages (bounded top-K counters); adds a "
              "'hot_pages' JSON section",
              [&prm] { prm.heatmap.enabled = true; });
}

void
addPersistOptions(OptionTable &opts, PersistParams &dest)
{
    opts.option("durability", "MODE",
                "commit durability: off (volatile TM) | wal (redo-log "
                "every commit, stall for the ordered flush)",
                [&dest](const std::string &v) {
                    return parseDurability(v, dest.policy);
                });
    opts.option("wal-file", "FILE",
                "serialize the surviving persistent image (checkpoint "
                "+ durable log prefix) to FILE at end of run; the "
                "input of ptm_sim --recover",
                [&dest](const std::string &v) {
                    if (v.empty() || v == "-")
                        return false;
                    dest.walPath = v;
                    return true;
                });
    opts.option("crash-at-tick", "TICK",
                "cut the run at TICK with no drain or cleanup "
                "(0 = none); torn log tails survive into the dump",
                [&dest](const std::string &v) {
                    std::uint64_t n;
                    if (!parseU64(v, n))
                        return false;
                    dest.crashAtTick = Tick(n);
                    return true;
                });
    opts.option("wal-flush-latency", "TICKS",
                "ordered-flush base latency charged per durable "
                "commit (default 300)",
                [&dest](const std::string &v) {
                    std::uint64_t n;
                    if (!parseU64(v, n))
                        return false;
                    dest.flushLatency = Tick(n);
                    return true;
                });
    opts.option("wal-bytes-per-cycle", "N",
                "log-device write bandwidth in bytes per cycle "
                "(default 16)",
                [&dest](const std::string &v) {
                    std::uint64_t n;
                    if (!parseU64(v, n) || n == 0)
                        return false;
                    dest.logBytesPerCycle = n;
                    return true;
                });
}

} // namespace

void
addSystemOptions(OptionTable &opts, SystemParams &prm)
{
    addTraceOptions(opts, prm.trace);
    addProfileOptions(opts, prm.profile);
    addRobustnessOptions(opts, prm);
    addMachineOptions(opts, prm);
    addObservabilityOptions(opts, prm);
    addForensicsOptions(opts, prm.forensics);
    addPersistOptions(opts, prm.persist);
}

bool
checkOutputSinks(const char *prog,
                 const std::vector<OutputSink> &sinks)
{
    for (std::size_t i = 0; i < sinks.size(); ++i) {
        const OutputSink &a = sinks[i];
        if (a.path.empty() || a.path == "stderr")
            continue;
        for (std::size_t j = i + 1; j < sinks.size(); ++j) {
            const OutputSink &b = sinks[j];
            if (a.path != b.path)
                continue;
            std::fprintf(stderr,
                         "%s: %s and %s cannot both write to %s\n",
                         prog, a.flag.c_str(), b.flag.c_str(),
                         a.path == "-" ? "stdout" : "the same file");
            return false;
        }
    }
    return true;
}

void
addWorkloadOptions(OptionTable &opts, WorkloadOptList &dest)
{
    opts.option("wl-opt", "KEY=VALUE",
                "per-workload option, repeatable "
                "(see --list-workloads)",
                [&dest](const std::string &v) {
                    std::size_t eq = v.find('=');
                    if (eq == std::string::npos || eq == 0)
                        return false;
                    dest.emplace_back(v.substr(0, eq),
                                      v.substr(eq + 1));
                    return true;
                });
    opts.exitFlag("list-workloads",
                  "list the registered workloads and their options",
                  [] { printWorkloadList(); });
}

void
printWorkloadList()
{
    for (const WorkloadInfo &info : workloadTable()) {
        std::printf("%s — %s\n", info.name.c_str(),
                    info.description.c_str());
        std::size_t width = 0;
        for (const auto &o : info.options)
            width = std::max(width,
                             o.name.size() + 1 + o.defaultValue.size());
        for (const auto &o : info.options) {
            std::string kv = o.name + "=" + o.defaultValue;
            std::printf("    %-*s  %s\n", int(width), kv.c_str(),
                        o.help.c_str());
        }
    }
}

std::string
chaosReproArgs(const SystemParams &prm)
{
    using ull = unsigned long long;
    std::string s = strprintf("--seed %llu", (ull)prm.seed);
    if (prm.chaos.enabled)
        s += strprintf(" --chaos --chaos-seed %llu --chaos-plan %s "
                       "--chaos-interval %llu",
                       (ull)prm.chaos.seed,
                       chaosPlanString(prm.chaos.plan).c_str(),
                       (ull)prm.chaos.interval);
    if (prm.audit.enabled)
        s += " --audit";
    if (prm.persist.enabled()) {
        s += strprintf(" --durability %s --wal-flush-latency %llu "
                       "--wal-bytes-per-cycle %llu",
                       durabilityName(prm.persist.policy),
                       (ull)prm.persist.flushLatency,
                       (ull)prm.persist.logBytesPerCycle);
        // An explicit cut replays exactly; a chaos-drawn cut is
        // re-derived from the chaos seed already echoed above.
        if (prm.persist.crashAtTick)
            s += strprintf(" --crash-at-tick %llu",
                           (ull)prm.persist.crashAtTick);
    }
    if (prm.contention.randomBackoff)
        s += " --backoff";
    if (prm.contention.retryBudget)
        s += strprintf(" --retry-budget %u", prm.contention.retryBudget);
    // Re-arm post-mortem capture on replay (the dump path itself is
    // environment-specific; point the replay at stderr).
    if (prm.forensics.onAbortThreshold)
        s += strprintf(" --postmortem-on-abort %u",
                       prm.forensics.onAbortThreshold);
    else if (!prm.forensics.postmortemPath.empty())
        s += " --postmortem -";
    return s;
}

void
printStatList(const StatRegistry &reg)
{
    std::size_t width = 0;
    for (const auto &g : reg.groups())
        for (const auto &s : g->stats()) {
            std::size_t w = g->name().size() + 1 + s.name.size();
            if (w > width)
                width = w;
        }
    for (const auto &g : reg.groups())
        for (const auto &s : g->stats()) {
            std::string path = g->name() + "." + s.name;
            std::printf("%-*s  %-13s %s\n", int(width), path.c_str(),
                        statKindName(s.kind), s.desc.c_str());
        }
}

CliStatus
OptionTable::parse(int argc, char **argv) const
{
    bool exit_requested = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printHelp();
            return CliStatus::Exit;
        }
        if (arg.size() < 3 || arg.compare(0, 2, "--") != 0) {
            std::fprintf(stderr,
                         "%s: unexpected argument '%s' "
                         "(try --help)\n",
                         prog_.c_str(), arg.c_str());
            return CliStatus::Error;
        }

        std::string name = arg.substr(2);
        std::string value;
        bool have_value = false;
        std::size_t eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            have_value = true;
        }

        const Opt *o = find(name);
        if (!o) {
            std::fprintf(stderr,
                         "%s: unknown option '--%s' (try --help)\n",
                         prog_.c_str(), name.c_str());
            return CliStatus::Error;
        }

        if (o->onValue) {
            if (!have_value) {
                if (i + 1 >= argc) {
                    std::fprintf(stderr,
                                 "%s: option '--%s' requires a value "
                                 "%s\n",
                                 prog_.c_str(), name.c_str(),
                                 o->metavar.c_str());
                    return CliStatus::Error;
                }
                value = argv[++i];
            }
            if (!o->onValue(value)) {
                std::fprintf(stderr,
                             "%s: invalid value '%s' for option "
                             "'--%s' (%s: %s)\n",
                             prog_.c_str(), value.c_str(),
                             name.c_str(), o->metavar.c_str(),
                             o->help.c_str());
                return CliStatus::Error;
            }
        } else {
            if (have_value) {
                std::fprintf(stderr,
                             "%s: option '--%s' takes no value\n",
                             prog_.c_str(), name.c_str());
                return CliStatus::Error;
            }
            o->onFlag();
            if (o->exits)
                exit_requested = true;
        }
    }
    return exit_requested ? CliStatus::Exit : CliStatus::Ok;
}

} // namespace ptm
