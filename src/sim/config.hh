/**
 * @file
 * Central configuration for a simulated system.
 *
 * Defaults reproduce the machine evaluated in the PTM paper (section
 * 6.1): a 4-node CMP with private 16 KB direct-mapped L1 (1 cycle) and
 * 256 KB 4-way L2 (6 cycles), a snoopy MOESI bus with a 20-cycle minimum
 * round trip, 200-cycle main memory with 3 pipelined requests, a
 * 512-entry fully-associative TLB over 4 KB pages, a 512-entry SPT cache
 * and a 2048-entry TAV cache in the memory controller.
 */

#ifndef PTM_SIM_CONFIG_HH
#define PTM_SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "sim/chaos.hh"
#include "sim/profile.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace ptm
{

/** Which unbounded-TM / synchronization system the machine runs. */
enum class TmKind
{
    /** No concurrency: single-threaded run (speedup baseline). */
    Serial,
    /** Lock-based multithreading through the coherence protocol. */
    Locks,
    /** PTM with copy-on-first-overflow versioning (fast commit). */
    CopyPtm,
    /** PTM with selection vectors (fast commit and abort). */
    SelectPtm,
    /** The VTM baseline (XF + XADT + XADC). */
    Vtm,
    /** VTM with a victim cache buffering evicted block data. */
    VcVtm,
};

/** Conflict-detection granularity (Figure 5 of the paper). */
enum class Granularity
{
    /** Default: detect conflicts per 64-byte cache block. */
    Block,
    /**
     * "wd:cache": word-granularity detection inside the caches, but the
     * overflowed PTM structures still track one writer per block, so an
     * eviction of a multi-writer block aborts the younger writers.
     */
    WordCache,
    /**
     * "wd:cache+mem": word granularity end to end; TAV / summary /
     * selection vectors all hold one bit per 4-byte word.
     */
    WordCacheMem,
};

/** How Select-PTM shadow pages are reclaimed (section 3.5.2). */
enum class ShadowFreePolicy
{
    /** Merge shadow into home when the OS swaps the home page out. */
    MergeOnSwap,
    /**
     * Lazily migrate committed blocks back to the home page on
     * non-speculative writebacks; free the shadow page once the
     * selection vector is fully clear.
     */
    LazyMigrate,
};

/** Commit-durability policy of the persistence domain (src/persist). */
enum class Durability
{
    /** Volatile TM: commits survive only in the coherence domain. */
    Off,
    /**
     * Write-ahead redo logging: every commit appends its redo set
     * (Select-PTM selection-bit flips / Copy-PTM shadow-to-home copy
     * sets, both carried as absolute word values) to an ordered log
     * device and stalls until the ordered flush drains.
     */
    Wal,
};

/** Returns a short human-readable label ("Sel-PTM", "VC-VTM", ...). */
const char *tmKindName(TmKind k);

/** Returns the --system argument spelling ("sel-ptm", "vc-vtm", ...):
 *  the inverse of parseTmKind, used by reproducer lines. */
const char *tmKindArg(TmKind k);

/** Returns the Figure 5 label for a granularity mode. */
const char *granularityName(Granularity g);

/**
 * Parse a CLI system-kind spelling ("serial", "locks", "copy-ptm",
 * "sel-ptm", "vtm", "vc-vtm") into @p out.
 * @return false if @p s names no kind (@p out untouched).
 */
bool parseTmKind(const std::string &s, TmKind &out);

/**
 * Parse a CLI granularity spelling ("blk", "wd:cache", "wd:cache+mem")
 * into @p out.
 * @return false if @p s names no mode (@p out untouched).
 */
bool parseGranularity(const std::string &s, Granularity &out);

/** Returns the --durability argument spelling ("off", "wal"). */
const char *durabilityName(Durability d);

/**
 * Parse a CLI durability spelling ("off", "wal") into @p out.
 * @return false if @p s names no policy (@p out untouched).
 */
bool parseDurability(const std::string &s, Durability &out);

/** Persistence-domain configuration (src/persist/wal.{hh,cc}). */
struct PersistParams
{
    /** Commit-durability policy; Off builds no WalManager at all. */
    Durability policy = Durability::Off;
    /**
     * Crash/recovery dump sink: when set, the surviving persistent
     * image (workload checkpoint + durable log prefix) is serialized
     * here at end of run — whether the run completed or was cut by a
     * crash. Consumed by `ptm_sim --recover` and tools/check_wal.py.
     */
    std::string walPath;
    /**
     * Crash injection: cut the run at this simulated tick (0 = none).
     * The cut is a pure run-limit truncation — no drain, no cleanup —
     * so partially-flushed log appends survive as torn tails.
     */
    Tick crashAtTick = 0;
    /**
     * Ordered-flush base latency charged per commit: the fence +
     * persist-barrier cost of draining the commit record to the log
     * device (HTPM-style ordered flush).
     */
    Tick flushLatency = 300;
    /** Log-device write bandwidth in bytes per cycle. */
    std::uint64_t logBytesPerCycle = 16;

    /** The persistence domain is built (WalManager constructed). */
    bool enabled() const { return policy != Durability::Off; }
};


/** PTM invariant-auditor configuration (ptm/audit.{hh,cc}). */
struct AuditParams
{
    /** Master switch; the auditor is never built while false. */
    bool enabled = false;
    /**
     * Ticks between periodic full audits (0 = boundaries only); every
     * logical commit/abort boundary is audited too.
     */
    Tick interval = 100000;
};

/** Contention-robustness knobs (tx/tx_manager, cpu/core). */
struct ContentionParams
{
    /**
     * Randomize the exponential abort-restart backoff: the delay is
     * drawn uniformly from the upper half of the deterministic
     * exponential window (seeded per core, so still reproducible).
     * Off preserves the fixed schedule bit-for-bit.
     */
    bool randomBackoff = false;
    /**
     * Consecutive aborts of one transaction before the starvation
     * watchdog trips (stats + trace event). 0 disables the watchdog.
     */
    unsigned watchdogThreshold = 16;
    /**
     * Consecutive aborts after which a transaction may claim the
     * serialized "starvation mode" token, winning every subsequent
     * arbitration until it commits. 0 disables escalation.
     */
    unsigned retryBudget = 0;
};

/** Time-series telemetry configuration (sim/timeseries.{hh,cc}). */
struct TimeseriesParams
{
    /**
     * Stream sink: empty = no stream, "stderr" = live emission to
     * stderr (--timeseries -), anything else = a JSONL file. Within one
     * process the first run truncates a file sink; later runs append,
     * each starting with its own header record.
     */
    std::string path;
    /** Sampling period in simulated ticks. */
    Tick interval = 100000;
    /**
     * Keep the interval records in memory (bench post-processing and
     * the trace's counter tracks; tracing turns this on).
     */
    bool capture = false;

    /** The sampler is built when streaming or capturing. */
    bool enabled() const { return capture || !path.empty(); }
};

/** Contention-heatmap configuration (ptm/heatmap.{hh,cc}). */
struct HeatmapParams
{
    /** Master switch; no hooks are attached while false. */
    bool enabled = false;
};

/** Flight-recorder / post-mortem configuration (sim/flightrec). */
struct ForensicsParams
{
    /**
     * Ring capacity, in events, of an untraced run (a traced run's
     * ring has trace.bufferEvents). 4096 events are about 0.3 MB.
     * 0 removes the recorder and its record types from the ring.
     */
    unsigned depth = 4096;
    /**
     * Post-mortem dump sink: empty = no dump, "-"/"stderr" = stderr,
     * anything else = a ptm-postmortem-v1 JSON file. Setting a path
     * arms every trigger (watchdog trip, starvation grant, auditor
     * violation, chaos injection).
     */
    std::string postmortemPath;
    /**
     * Also trigger a post-mortem when any single transaction reaches
     * this many aborts (0 = only the built-in triggers).
     */
    unsigned onAbortThreshold = 0;

    /** The recorder runs (always-on unless depth is zeroed). */
    bool enabled() const { return depth != 0; }
    /** Post-mortem capture is armed (triggers take reports). */
    bool armed() const
    {
        return enabled() &&
               (!postmortemPath.empty() || onAbortThreshold != 0);
    }
};

/**
 * @name The paper machine's fixed timings and sizes (section 6.1)
 * Every run models these values; they are not run settings.
 */
/// @{
/** L1 associativity (direct-mapped). */
constexpr unsigned l1Assoc = 1;
/** L1 hit latency. */
constexpr Tick l1Latency = 1;
/** L2 hit latency, beyond the L1's. */
constexpr Tick l2Latency = 6;
/** Minimum round-trip latency of the on-chip snoopy bus. */
constexpr Tick busLatency = 20;
/** Main-memory access latency (minimum). */
constexpr Tick dramLatency = 200;
/** Number of memory requests that can be pipelined. */
constexpr unsigned dramPipeline = 3;
/** Bank occupancy of a posted write (bandwidth, not latency). */
constexpr Tick dramWriteOccupancy = 60;
/** TLB entries (fully associative). */
constexpr unsigned tlbEntries = 512;
/** Latency of a hardware page-table walk on TLB miss. */
constexpr Tick tlbWalkLatency = 40;
/** Extra latency of the software exception path on a page fault. */
constexpr Tick pageFaultLatency = 400;
/** Latency of swapping one page in or out. */
constexpr Tick swapLatency = 4000;
/** Context-switch overhead charged to the core. */
constexpr Tick contextSwitchLatency = 600;
/** Cycles for an SPT/TAV (or XADC) cache hit lookup. */
constexpr Tick vtsCacheLatency = 2;
/** VTM's XF counting Bloom filter entries (paper: 1.6 million). */
constexpr std::uint64_t xfEntries = 1600 * 1000;
/**
 * Extra bus occupancy per coherence transaction in word-granularity
 * cache modes (the paper notes wd modes add coherence traffic).
 */
constexpr Tick wordCoherenceOverhead = 2;
/** Cycles to take/restore a register checkpoint. */
constexpr Tick checkpointLatency = 4;
/** Cycles for the logical commit (T-State flip + flash clear). */
constexpr Tick logicalCommitLatency = 12;
/** Fixed OS cost of a barrier arrival. */
constexpr Tick barrierLatency = 20;
/** Restart delay after an abort before re-executing. */
constexpr Tick abortRestartLatency = 40;
/// @}

/**
 * The run settings of one simulated system instance: the machine's
 * scale (cores, cache and memory sizes, banks), the TM system and its
 * policies, the OS schedule, the observers and the seed. The paper
 * machine's fixed timings and sizes are the constants above.
 */
struct SystemParams
{
    /** Number of CPU cores (paper: 4 nodes). */
    unsigned numCores = 4;

    /** L1 capacity (paper: 16 KB, direct-mapped). */
    std::uint64_t l1Bytes = 16 * 1024;

    /** @name L2 cache (256 KB 4-way) */
    /// @{
    std::uint64_t l2Bytes = 256 * 1024;
    unsigned l2Assoc = 4;
    /// @}

    /**
     * Number of independently-arbitrated interconnect banks, selected
     * by block address (power of two). 1 reproduces the paper's single
     * snoopy bus bit-exactly; larger counts let coherence traffic to
     * disjoint banks proceed in parallel, which is what lets the
     * simulated machine scale to 16/32/64 cores. Coherence order
     * becomes per-bank grant order — sufficient because conflict
     * detection is per-block and a block maps to exactly one bank.
     */
    unsigned memBanks = 1;

    /**
     * Host-side direct-execution fast-forward: retire up to this many
     * memory/compute ops, in or out of a transaction, per event-loop
     * dispatch while the next pending event is far enough away that
     * the batch cannot be observed out of order (conservative
     * lookahead). Always on: every output is bit-exact against 0, the
     * one-event-per-op reference of the tests; only the host event
     * count and the ff_* counters change.
     */
    unsigned fastForwardOps = 32;

    /** Physical memory size in 4 KB frames (64 MB default). */
    std::uint64_t physFrames = 16 * 1024;
    /** Whether the OS may swap pages to the swap device. */
    bool swapEnabled = false;

    /** Scheduler time slice; 0 disables preemptive switches. */
    Tick osQuantum = 500 * 1000;
    /** Mean interval between spontaneous OS daemon preemptions; 0 off. */
    Tick daemonInterval = 2 * 1000 * 1000;
    /** Length of a daemon preemption. */
    Tick daemonRunLength = 5000;

    /** @name PTM Virtual Transaction Supervisor */
    /// @{
    unsigned sptCacheEntries = 512;
    unsigned tavCacheEntries = 2048;
    ShadowFreePolicy shadowFree = ShadowFreePolicy::MergeOnSwap;
    /// @}

    /** @name VTM baseline */
    /// @{
    /**
     * XADC metadata-cache entries; paper sets the capacity equal to the
     * combined SPT + TAV cache capacity.
     */
    unsigned xadcEntries = 512 + 2048;
    /** Victim-cache entries for VC-VTM data buffering. */
    unsigned victimCacheEntries = 512 + 2048;
    /// @}

    /** Which TM/synchronization system to build. */
    TmKind tmKind = TmKind::SelectPtm;
    /** Conflict-detection granularity. */
    Granularity granularity = Granularity::Block;

    /**
     * Ablation: flush (overflow) a departing thread's transactional
     * cache lines on every context switch, as VTM requires, instead of
     * PTM's transaction-ID-tagged lines that stay put (section 4.7).
     */
    bool flushOnContextSwitch = false;

    /** Event tracing (off unless trace.path is set). */
    TraceParams trace;

    /** Cycle-accounting / host profiling (off by default). */
    ProfileParams profile;

    /** Deterministic fault injection (off by default). */
    ChaosParams chaos;

    /** PTM invariant auditing (off by default). */
    AuditParams audit;

    /** Contention-robustness knobs (watchdog on, escalation off). */
    ContentionParams contention;

    /** Time-series telemetry (off by default). */
    TimeseriesParams timeseries;

    /** Per-page contention heatmap (off by default). */
    HeatmapParams heatmap;

    /** Transaction flight recorder / post-mortem (recorder on). */
    ForensicsParams forensics;

    /** Commit durability / crash injection (off by default). */
    PersistParams persist;

    /** Master RNG seed. */
    std::uint64_t seed = 1;

    /** Hard cap on simulated ticks (0 = unlimited). */
    Tick maxTicks = 0;
};

/**
 * Validate the machine-scaling parameters of @p prm. Returns the empty
 * string when valid, otherwise a human-readable diagnostic naming the
 * offending option and the accepted range:
 *
 *  - numCores must be 1..64 (sharer-filter masks are one 64-bit word);
 *  - memBanks must be a non-zero power of two (block addresses are
 *    interleaved with a mask);
 *  - memBanks must not exceed 256 (beyond that every bank is idle).
 *
 * System's constructor calls this and aborts with the message; CLI
 * front ends call it first to exit with a clean diagnostic instead.
 */
std::string validateParams(const SystemParams &prm);

} // namespace ptm

#endif // PTM_SIM_CONFIG_HH
