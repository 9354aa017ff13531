/**
 * @file
 * Declarative command-line option tables, shared by ptm_sim and the
 * bench_* binaries.
 *
 * A front end declares its options once — name, value placeholder,
 * help text, and a handler (or a typed destination) — and OptionTable
 * handles parsing, `--opt value` / `--opt=value` forms, a generated
 * `--help`, and unknown-option / missing-value diagnostics:
 *
 * @code
 *     OptionTable opts("ptm_sim", "Run one workload on one system.");
 *     opts.optionString("workload", "NAME", "fft | lu | ...", workload);
 *     opts.flag("swap", "enable OS swapping",
 *               [&] { prm.swapEnabled = true; });
 *     opts.option("system", "KIND", "serial | locks | ...",
 *                 [&](const std::string &v) {
 *                     return parseTmKind(v, prm.tmKind);
 *                 });
 *     switch (opts.parse(argc, argv)) {
 *       case CliStatus::Ok: break;
 *       case CliStatus::Exit: return 0;   // --help
 *       case CliStatus::Error: return 2;  // message already printed
 *     }
 * @endcode
 */

#ifndef PTM_HARNESS_CLI_HH
#define PTM_HARNESS_CLI_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "workloads/workload.hh"

namespace ptm
{

/** Outcome of OptionTable::parse. */
enum class CliStatus
{
    Ok,    //!< all options consumed; proceed
    Exit,  //!< informational option handled (--help); exit 0
    Error, //!< bad usage; diagnostic already printed; exit non-zero
};

class OptionTable
{
  public:
    /**
     * @param prog     program name for usage/help output
     * @param summary  one-line description printed atop --help
     */
    OptionTable(std::string prog, std::string summary);

    /**
     * A valueless option. @p on is invoked when the flag is seen.
     * Spelled `--name` on the command line.
     */
    void flag(const std::string &name, const std::string &help,
              std::function<void()> on);

    /**
     * A flag that requests exit after its action (e.g. --list).
     * parse() returns CliStatus::Exit once all arguments are consumed.
     */
    void exitFlag(const std::string &name, const std::string &help,
                  std::function<void()> on);

    /**
     * An option taking one value (`--name V` or `--name=V`).
     * @p on returns false to reject the value (a diagnostic naming the
     * option is then printed).
     */
    void option(const std::string &name, const std::string &metavar,
                const std::string &help,
                std::function<bool(const std::string &)> on);

    /** @name Typed conveniences storing straight into a variable */
    /// @{
    void optionString(const std::string &name, const std::string &metavar,
                      const std::string &help, std::string &dest);
    void optionU64(const std::string &name, const std::string &metavar,
                   const std::string &help, std::uint64_t &dest);
    void optionUnsigned(const std::string &name,
                        const std::string &metavar,
                        const std::string &help, unsigned &dest);
    void optionInt(const std::string &name, const std::string &metavar,
                   const std::string &help, int &dest);
    /// @}

    /**
     * Parse @p argv. `--help` / `-h` print the generated help and
     * yield CliStatus::Exit. Unknown options, missing values, and
     * handler-rejected values print a diagnostic to stderr and yield
     * CliStatus::Error.
     */
    CliStatus parse(int argc, char **argv) const;

    /** Print the generated help text to stdout. */
    void printHelp() const;

  private:
    struct Opt
    {
        std::string name;
        std::string metavar; //!< empty for flags
        std::string help;
        bool exits = false;
        std::function<void()> onFlag;
        std::function<bool(const std::string &)> onValue;
    };

    const Opt *find(const std::string &name) const;

    std::string prog_;
    std::string summary_;
    std::vector<Opt> opts_;
};

/**
 * Register the option groups shared by ptm_sim and every bench_*
 * front end, storing straight into @p prm so the surface is identical
 * everywhere:
 *
 *  - tracing: --trace, --trace-format, --trace-categories,
 *    --trace-buffer-events, --watch-addr;
 *  - profiling: --profile, --host-profile (implies --profile);
 *  - robustness: fault injection (--chaos, --chaos-seed, --chaos-plan,
 *    --chaos-interval, --chaos-cleanup-delay; the
 *    value-taking chaos options imply --chaos), invariant auditing
 *    (--audit, --audit-interval) and contention knobs (--backoff,
 *    --watchdog, --retry-budget);
 *  - machine scaling: --mem-banks N address-interleaved interconnect
 *    banks (power of two; 1 reproduces the paper's single bus
 *    bit-exactly);
 *  - observability: --timeseries FILE ('-' streams to stderr),
 *    --timeseries-interval (also the period of a trace's counter
 *    tracks), --heatmap, --heatmap-k (streaming implies --heatmap so
 *    interval records carry hot_pages);
 *  - forensics: --flightrec-depth (0 removes the recorder),
 *    --postmortem FILE and --postmortem-on-abort N, which arm
 *    post-mortem capture (unarmed runs record but never dump);
 *  - persistence: --durability off|wal, --wal-file FILE (the input of
 *    `ptm_sim --recover`), --crash-at-tick TICK, --wal-flush-latency,
 *    --wal-bytes-per-cycle. None of the value options imply
 *    `--durability wal`: validateParams rejects a dump path or crash
 *    tick on a volatile run so a sweep script cannot silently produce
 *    nothing.
 */
void addSystemOptions(OptionTable &opts, SystemParams &prm);

/**
 * One machine-readable output sink of a front end, for collision
 * checking. @ref path uses the post-parse spelling: "" when the sink
 * is unused, "-" for stdout (--stats-json / --trace / --json), the
 * literal "stderr" for streams that default there (--timeseries,
 * --postmortem), anything else a file path.
 */
struct OutputSink
{
    std::string flag; //!< option spelling for diagnostics ("--trace")
    std::string path; //!< "", "-", "stderr", or a file path
};

/**
 * Refuse colliding output sinks: at most one sink may own stdout, and
 * no two sinks may name the same file (paths are compared as strings —
 * the streams are written at different times, so a shared path would
 * silently clobber the earlier output). Any number of sinks may share
 * stderr: those streams are line-oriented and interleave safely.
 *
 * @return true when all sinks are distinct; otherwise prints one
 *         "PROG: FLAG1 and FLAG2 cannot both write to ..." diagnostic
 *         to stderr and returns false (callers exit 2 — bad usage).
 */
bool checkOutputSinks(const char *prog,
                      const std::vector<OutputSink> &sinks);

/**
 * Register the shared workload-plugin options storing into @p dest:
 *
 *  - `--wl-opt KEY=VALUE` (repeatable; later duplicates win) collects
 *    raw per-workload options, validated against the selected
 *    workload's option table at resolve time;
 *  - `--list-workloads` prints every registered workload with its
 *    option table and exits.
 *
 * Used by ptm_sim and the bench_* front ends so the workload-plugin
 * surface is identical everywhere.
 */
void addWorkloadOptions(OptionTable &opts, WorkloadOptList &dest);

/**
 * Print every registered workload — name, description, and option
 * table with defaults — to stdout (the --list-workloads body).
 */
void printWorkloadList();

/**
 * The reproducer argument string for @p prm ("--seed N --chaos
 * --chaos-seed M --chaos-plan ... --audit"): every robustness-relevant
 * option needed to replay a failing chaos run, including the
 * durability policy and crash cut when the persistence domain is on.
 * Printed alongside audit violations and workload-verification
 * failures.
 */
std::string chaosReproArgs(const SystemParams &prm);

/**
 * Print every statistic registered in @p reg as
 * "group.stat  kind  description" lines — the body of the shared
 * --list-stats flag. Listing reflects the *configured* system: TM
 * backends register different groups ("vts" vs "vtm").
 */
void printStatList(const StatRegistry &reg);

} // namespace ptm

#endif // PTM_HARNESS_CLI_HH
