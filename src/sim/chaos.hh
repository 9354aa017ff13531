/**
 * @file
 * Deterministic fault injection ("chaos") engine.
 *
 * PTM's bookkeeping — selection vectors, TAV lists, shadow-page
 * accounting, lazy cleanup walks — is exercised hardest by schedules
 * ordinary workloads rarely produce: aborts landing mid-overflow,
 * metadata caches thrashing, pages swapping under live transactional
 * state, cleanup walks racing thread exits. The ChaosEngine perturbs a
 * run at exactly those points, from a dedicated seeded PRNG stream, so
 * an adversarial schedule is (a) reachable on demand and (b) exactly
 * reproducible from `--chaos-seed` + plan.
 *
 * The engine itself only *decides* (which fault, which victim index,
 * how long a delay); the System owns the injection sites and applies
 * the decisions to components. Like Tracer/CycleProfiler, components
 * hold a ChaosEngine pointer defaulting to the never-active nil()
 * instance, so the disabled path costs one predictable branch per
 * hook and no null checks.
 */

#ifndef PTM_SIM_CHAOS_HH
#define PTM_SIM_CHAOS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace ptm
{

/** One injectable fault kind, used as a plan bitmask. */
enum class ChaosFault : std::uint32_t
{
    /** Explicitly abort a randomly chosen live transaction. */
    ExplicitAbort = 1u << 0,
    /** Shrink the SPT/TAV caches to a few entries (and restore). */
    CacheSqueeze  = 1u << 1,
    /** Flush a live transaction's cache lines (forced overflow). */
    TxFlush       = 1u << 2,
    /** Force the OS to swap out a page (shadow merges, SIT churn). */
    PageSwap      = 1u << 3,
    /** Preempt a random core with a surprise daemon run. */
    Preempt       = 1u << 4,
    /** Delay commit/abort cleanup walks (polled by the VTS). */
    CleanupDelay  = 1u << 5,
    /**
     * Cut the run at a seeded random tick (power loss): the event
     * queue stops mid-flight and only the persistent image survives.
     * Deliberately excluded from chaosPlanAll — a crash ends the run,
     * so the standing chaos sweeps would never see an end-of-run
     * verification; opt in with `--chaos-plan crash` (requires
     * --durability wal) or use --crash-at-tick directly.
     */
    Crash         = 1u << 6,
};

/** Bitmask with every *run-preserving* fault kind enabled. */
constexpr std::uint32_t chaosPlanAll = 0x3fu;

/** The raw bit of one fault kind. */
constexpr std::uint32_t
chaosFaultMask(ChaosFault f)
{
    return static_cast<std::uint32_t>(f);
}

/** Short name of a fault kind ("abort", "squeeze", ...). */
const char *chaosFaultName(ChaosFault f);

/**
 * Parse a comma-separated fault-plan list ("abort,squeeze", "all")
 * into a bitmask. @return false on an unknown name.
 */
bool parseChaosPlan(const std::string &s, std::uint32_t &mask);

/** Comma-separated plan list for a mask ("abort,delay", "all"). */
std::string chaosPlanString(std::uint32_t mask);

/** Fault-injection configuration, carried inside SystemParams. */
struct ChaosParams
{
    /** Master switch; everything below is inert while false. */
    bool enabled = false;
    /** Seed of the injector's private PRNG stream. */
    std::uint64_t seed = 1;
    /** Enabled fault kinds (chaosFaultMask() bits). */
    std::uint32_t plan = chaosPlanAll;
    /** Ticks between scheduled injections. */
    Tick interval = 50000;
    /** Extra ticks a delayed cleanup walk sits before starting. */
    Tick cleanupDelay = 2000;
};

/** SPT/TAV cache capacity while squeezed. */
constexpr unsigned chaosSqueezeEntries = 4;

/**
 * The decision engine: a seeded PRNG plus the plan. All randomness in
 * the robustness harness flows through rng() so a (chaos seed, plan,
 * workload seed) triple replays the exact same schedule.
 */
class ChaosEngine
{
  public:
    /** Arm the engine. A zero plan leaves it inactive. */
    void configure(const ChaosParams &p);

    /** True once configure() enabled at least one fault kind. */
    bool active() const { return active_; }

    /** True if fault @p f is part of the plan. */
    bool
    planned(ChaosFault f) const
    {
        return active_ && (prm_.plan & chaosFaultMask(f)) != 0;
    }

    const ChaosParams &params() const { return prm_; }

    /** The injector's PRNG (victim choices, jitter). */
    Pcg32 &rng() { return rng_; }

    /**
     * Pick the next scheduled fault among the planned, schedulable
     * kinds (CleanupDelay is polled at its hook instead). Must only be
     * called when active(); returns 0 if nothing is schedulable.
     */
    std::uint32_t pickFault();

    /**
     * Polled by the VTS when a cleanup walk is about to start: the
     * extra delay to impose on this walk (0 = start now). Counts the
     * injection when nonzero.
     */
    Tick cleanupDelay();

    /** @name Injection counters (registered under "chaos") */
    /// @{
    Counter injectedAborts;
    Counter cacheSqueezes;
    Counter txFlushes;
    Counter pageSwaps;
    Counter preempts;
    Counter cleanupDelays;
    Counter crashCuts;
    /// @}

    /** Register the injection counters under the "chaos" group. */
    void regStats(StatRegistry &reg);

    /** A process-wide never-active engine, for un-wired components. */
    static ChaosEngine &nil();

  private:
    bool active_ = false;
    ChaosParams prm_;
    Pcg32 rng_{1, 0x5eed};
    /** Planned schedulable faults, in enum order (deterministic). */
    std::vector<ChaosFault> schedulable_;
};

} // namespace ptm

#endif // PTM_SIM_CHAOS_HH
