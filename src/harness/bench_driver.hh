/**
 * @file
 * The shared front end of the bench_* binaries.
 *
 * A bench declares what it sweeps and what it tabulates; BenchDriver
 * owns everything else: the --json / --scale options and every shared
 * option group, the refusal of single-run persistence flags, output
 * sink collision checks and human-output routing, the SystemParams
 * template each configuration starts from, per-run audit reports,
 * trace capture and --profile tables, and the final JSON and trace
 * writes with the exit code:
 *
 * @code
 *     BenchDriver d("bench_x", "Sweep something.");
 *     if (auto rc = d.parse(argc, argv))
 *         return *rc;
 *     BenchRecorder rec("x");
 *     for (const auto &app : workloadNames()) {
 *         ExperimentResult r =
 *             d.run(app, d.params(TmKind::SelectPtm), 4, app);
 *         rec.beginRow().field("app", app).field("verified", r.verified);
 *         addProfileFields(rec, r.profile);
 *     }
 *     return d.finish(rec);
 * @endcode
 */

#ifndef PTM_HARNESS_BENCH_DRIVER_HH
#define PTM_HARNESS_BENCH_DRIVER_HH

#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "harness/cli.hh"
#include "harness/experiment.hh"
#include "harness/profile_io.hh"
#include "harness/stats_io.hh"

namespace ptm
{

class BenchDriver
{
  public:
    /**
     * @param prog        program name for --help, diagnostics and
     *                    audit repro lines
     * @param summary     one-line description printed atop --help
     * @param scale_help  --help text of --scale
     */
    BenchDriver(std::string prog, std::string summary,
                const std::string &scale_help =
                    "0 = tiny test size, 1 = benchmark size");

    /** The option table, for bench options registered before parse(). */
    OptionTable &options() { return opts_; }

    /**
     * Register the shared option groups, parse @p argv and check the
     * outputs: --wal-file / --crash-at-tick are refused (single-run
     * options a sweep would overwrite) and so are colliding output
     * sinks. When --json or --trace owns stdout, the human tables and
     * inform() lines move to stderr.
     *
     * @return the exit code when the bench must stop (0 after --help,
     *         2 on bad usage); std::nullopt to run the sweep.
     */
    std::optional<int> parse(int argc, char **argv);

    int scale() const { return scale_; }

    /** Stream for the human tables: stdout unless stdout is taken. */
    std::FILE *out() const { return out_; }

    /** No recorded run failed verification so far. */
    bool allVerified() const { return failures_ == 0; }

    /**
     * The parameters of one @p kind configuration with every shared
     * option applied. Persistence applies to transactional kinds only:
     * the serial and lock baselines have no transactions to log.
     */
    SystemParams params(TmKind kind) const;

    /**
     * runWorkload() at the --scale size, then record() the result.
     * @p prm may be bare SystemParams (a baseline the shared options
     * must not reach); it is still tallied.
     */
    ExperimentResult run(const std::string &workload,
                         const SystemParams &prm, unsigned threads,
                         const std::string &label = "",
                         const WorkloadOptList &wl_opts = {});

    /**
     * Tally a finished run: report its audit violations (the repro
     * line names @p workload; "" for a hand-built System), keep its
     * trace when @p prm traced, print its --profile tables under
     * @p label (none when empty), and count a failed verification.
     * The trace is moved out of @p r.
     */
    void record(const std::string &workload, const SystemParams &prm,
                ExperimentResult &r, const std::string &label);

    /**
     * Write the --json rows of @p rec and the collected trace, then run
     * @p epilogue (closing notes that follow the outputs).
     *
     * @return 2 when an output cannot be written (the epilogue is
     *         skipped), 1 when a recorded run failed verification or
     *         the audit, else 0.
     */
    int finish(const BenchRecorder &rec,
               const std::function<void()> &epilogue = {});

  private:
    std::string prog_;
    OptionTable opts_;
    std::string json_path_;
    int scale_ = 1;
    SystemParams tmpl_;
    std::FILE *out_ = stdout;
    std::vector<TraceCapture> captures_;
    std::size_t failures_ = 0;
    std::size_t violations_ = 0;
};

} // namespace ptm

#endif // PTM_HARNESS_BENCH_DRIVER_HH
