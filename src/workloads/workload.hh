/**
 * @file
 * Workload kernels and the table of built-in workloads.
 *
 * The evaluation suite holds C++ re-creations of the five SPLASH-2
 * loop-region benchmarks of the paper (fft, lu, radix, ocean, water)
 * plus serving-style kernels (kv), each buildable in three
 * synchronization modes:
 *
 *  - Serial: one thread, no synchronization (the speedup baseline);
 *  - Locks:  the original-style pthread synchronization (barriers and
 *            spinlocks through the coherence protocol);
 *  - Tx:     loop bodies wrapped in transactions, ordered transactions
 *            where the loop may carry dependencies (section 2.2).
 *
 * All kernels compute on wrapping 32-bit integers so every mode has a
 * bit-exact expected result; verify() recomputes it on the host and
 * compares the simulated memory. Footprints are scaled-down versions
 * of the paper's (Table 1) preserving the relative ordering:
 * ocean >> lu >= fft > radix > water, with water cache-resident.
 *
 * Every workload is one row of workloadTable(): a factory, a one-line
 * description, and a table of validated key=value options (surfaced
 * as `--wl-opt key=value` and `--list-workloads` in the front ends).
 * Adding a workload means implementing the kernel, writing a function
 * that returns its WorkloadInfo, and listing that function in the
 * table in workload.cc.
 */

#ifndef PTM_WORKLOADS_WORKLOAD_HH
#define PTM_WORKLOADS_WORKLOAD_HH

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness/system.hh"

namespace ptm
{

/** How a workload synchronizes. */
enum class SyncMode
{
    Serial,
    Locks,
    Tx,
};

/** Mode implied by a system kind (locks for Locks, tx for TM kinds). */
SyncMode syncModeFor(TmKind kind);

/** One key=value option a workload accepts, with validation kind. */
struct WorkloadOption
{
    enum class Kind
    {
        U64,  //!< unsigned integer value
        Real, //!< floating-point value
    };

    std::string name;
    Kind kind = Kind::U64;
    /** Default value (string form; a test validates every default). */
    std::string defaultValue;
    std::string help;
};

/** The "scale" option every Table 1 kernel accepts. */
inline WorkloadOption
scaleOption()
{
    return {"scale", WorkloadOption::Kind::U64, "1",
            "0 = tiny test size, 1 = benchmark size"};
}

/** Raw (name, value) pairs as collected from the command line. */
using WorkloadOptList = std::vector<std::pair<std::string, std::string>>;

/**
 * Resolved per-workload options: every declared option is present
 * (defaults filled in), values are pre-validated against the declared
 * kind, and declaration order is preserved for reproducible manifest
 * output. Produced by resolveWorkloadOptions().
 */
class WorkloadOptions
{
  public:
    /** True if the value came from the user, not the default. */
    bool explicitlySet(const std::string &name) const;

    /** @name Typed getters (panic on an undeclared name / bad value) */
    /// @{
    std::uint64_t u64(const std::string &name) const;
    double real(const std::string &name) const;
    const std::string &str(const std::string &name) const;
    /// @}

    /** All options in declaration order (manifest emission). */
    const WorkloadOptList &items() const { return items_; }

    /** Insert or overwrite @p name (resolveWorkloadOptions plumbing). */
    void set(const std::string &name, const std::string &value,
             bool is_explicit);

  private:
    WorkloadOptList items_;
    std::map<std::string, std::size_t> index_;
    std::set<std::string> explicit_;
};

/** Workload construction parameters. */
struct WorkloadConfig
{
    unsigned threads = 4;
    SyncMode mode = SyncMode::Tx;
    std::uint64_t seed = 1;
    /** Resolved options (see resolveWorkloadOptions). */
    WorkloadOptions options;
};

class Workload;

/** One workload: identity, documentation, options, factory. */
struct WorkloadInfo
{
    std::string name;
    /** One-line description for --list-workloads. */
    std::string description;
    /** The key=value options this workload accepts. */
    std::vector<WorkloadOption> options;
    std::function<std::unique_ptr<Workload>(const WorkloadConfig &)>
        factory;
    /** Member of the paper's Table 1 suite (bench enumeration). */
    bool paperKernel = false;
};

/** Every built-in workload, in listing order. */
const std::vector<WorkloadInfo> &workloadTable();

/** The workload named @p name; nullptr if there is none. */
const WorkloadInfo *findWorkload(std::string_view name);

/** The declared option @p name of @p info; nullptr if absent. */
const WorkloadOption *findWorkloadOption(const WorkloadInfo &info,
                                         std::string_view name);

/**
 * Validate @p given against @p info's option table and produce the
 * resolved options (defaults filled, user values marked explicit;
 * later duplicates win).
 *
 * @return true on success; false with a diagnostic in @p err (unknown
 *         option names list the declared options, bad values name the
 *         expected kind).
 */
bool resolveWorkloadOptions(const WorkloadInfo &info,
                            const WorkloadOptList &given,
                            WorkloadOptions &out, std::string *err);

/** Base class of the workload kernels. */
class Workload
{
  public:
    explicit Workload(const WorkloadConfig &cfg) : cfg_(cfg)
    {
        if (cfg_.mode == SyncMode::Serial)
            cfg_.threads = 1;
    }

    virtual ~Workload() = default;

    virtual const char *name() const = 0;

    /** Create processes/threads/barriers in @p sys. Call once. */
    virtual void build(System &sys) = 0;

    /** Compare the simulated result with the host reference. */
    virtual bool verify(System &sys) const = 0;

    /** Sink for one contiguous checkpoint region (persistCheckpoint). */
    using PersistSink =
        std::function<void(Addr, const std::vector<std::uint32_t> &)>;

    /**
     * True if the workload can anchor the persistence domain: it can
     * emit its pre-run baseline image (the checkpoint a recovery
     * starts from) and its expected state is reconstructible from
     * per-thread committed-transaction counts. Workloads returning
     * false cannot produce `--durability wal` crash dumps.
     */
    virtual bool persistSupported() const { return false; }

    /**
     * Emit the pre-run baseline image as contiguous (vbase, words)
     * regions. Only called when persistSupported().
     */
    virtual void persistCheckpoint(const PersistSink &emit) const
    {
        (void)emit;
    }

    /**
     * Emit every (addr, expected word) of the store after each thread
     * committed exactly its first counts[t] transactions in program
     * order — the committed-prefix oracle recovery verifies a replayed
     * image against. Only called when persistSupported().
     */
    virtual void
    persistExpected(const std::vector<std::uint64_t> &counts,
                    const std::function<void(Addr, std::uint32_t)> &emit)
        const
    {
        (void)counts;
        (void)emit;
    }

    const WorkloadConfig &config() const { return cfg_; }

  protected:
    /** Wrap a loop body per the synchronization mode. */
    Step
    work(CoroFactory f) const
    {
        if (cfg_.mode == SyncMode::Tx) {
            TxStep s;
            s.body = std::move(f);
            return s;
        }
        PlainStep s;
        s.body = std::move(f);
        return s;
    }

    /** Wrap an order-sensitive loop body (ordered tx in Tx mode). */
    Step
    orderedWork(std::uint32_t scope, std::uint64_t rank,
                CoroFactory f) const
    {
        if (cfg_.mode == SyncMode::Tx) {
            TxStep s;
            s.body = std::move(f);
            s.ordered = true;
            s.scope = scope;
            s.rank = rank;
            return s;
        }
        PlainStep s;
        s.body = std::move(f);
        return s;
    }

    WorkloadConfig cfg_;
};

/**
 * Append a barrier step to @p steps. Out of line on purpose: pushing
 * the BarrierStep temporary straight into the Step variant vector
 * makes GCC 12 emit spurious -Wmaybe-uninitialized warnings about the
 * TxStep alternative's std::function storage.
 */
void pushBarrier(std::vector<Step> &steps, unsigned barrier_id);

/** Deterministic value hash used for workload initialization. */
inline std::uint32_t
mixHash(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 29;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 32;
    return std::uint32_t(x);
}

/**
 * Instantiate a workload by name, resolving @p given against its
 * option table into @p cfg.options first; fatal on unknown names or
 * invalid options (front ends wanting a recoverable diagnostic call
 * findWorkload and resolveWorkloadOptions themselves).
 */
std::unique_ptr<Workload> makeWorkload(std::string_view name,
                                       WorkloadConfig cfg,
                                       const WorkloadOptList &given = {});

/** The Table 1 kernel names in the paper's order. */
std::vector<std::string> workloadNames();

/** Every workload name, " | "-separated (help strings). */
std::string workloadNameList();

} // namespace ptm

#endif // PTM_WORKLOADS_WORKLOAD_HH
