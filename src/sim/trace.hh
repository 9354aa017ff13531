/**
 * @file
 * Tick-stamped event tracing.
 *
 * The observer path. Every instrumented site emits one typed record
 * (transaction lifecycle, conflict edges, metadata-cache activity,
 * shadow-page management, overflow spills, scheduling, page swaps)
 * through Tracer::record(). A per-type interest mask routes it to the
 * ring and to the subscribed TraceObservers (heatmap, profiler
 * charges, flight-recorder triggers); a type nobody wants costs a
 * single branch at the call site. The ring has two readers: the trace
 * writer (the traced categories) and the flight recorder (its record
 * types). It grows as events arrive; once full, the oldest events are
 * overwritten ("keep newest") and the number of dropped events is
 * counted, so a trace of a long run always ends at the interesting
 * part: the end.
 *
 * The tracer itself is sink-agnostic; harness/trace_io.{hh,cc} turns a
 * captured buffer into the native ptm-trace-v1 JSONL stream or a
 * Chrome trace-event (Perfetto-loadable) file.
 */

#ifndef PTM_SIM_TRACE_HH
#define PTM_SIM_TRACE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace ptm
{

/**
 * Event categories, used as a bitmask filter. Each trace event type
 * belongs to exactly one category (traceEventCat()).
 */
enum class TraceCat : std::uint32_t
{
    Tx       = 1u << 0, //!< transaction begin / restart / commit / abort
    Conflict = 1u << 1, //!< conflict-arbitration edges (winner -> loser)
    Meta     = 1u << 2, //!< SPT/TAV metadata caches and cleanup walks
    Page     = 1u << 3, //!< shadow pages, selection vectors, faults, swaps
    Cache    = 1u << 4, //!< evictions, overflow spills, writebacks
    Os       = 1u << 5, //!< context switches
    Watch    = 1u << 6, //!< watchpoint hits (--watch-addr)
    Chaos    = 1u << 7, //!< fault injections, watchdog trips
    Persist  = 1u << 8, //!< WAL appends, ordered flushes, crash cuts
};

/** Bitmask with every category enabled. */
constexpr std::uint32_t traceCatAll = 0x1ffu;

/** The raw bit of one category. */
constexpr std::uint32_t
traceCatMask(TraceCat c)
{
    return static_cast<std::uint32_t>(c);
}

/** One typed event kind. Payload field use is per-type (see README). */
enum class TraceEventType : std::uint8_t
{
    TxBegin,        //!< tx: id; a0: attempt; a1: 1 if ordered; a2: proc
    TxRestart,      //!< tx: id; a0: attempt
    TxCommit,       //!< tx: id; a2: attempt begin tick
    /** tx: id; tx2: winner; a0: AbortReason; a1: address (0 = none);
     *  a2: attempt begin tick */
    TxAbort,
    ConflictEdge,   //!< tx: winner (0 = non-tx); tx2: loser; a0: block
    SptHit,         //!< a0: page
    SptMiss,        //!< a0: page
    SptEvict,       //!< a0: page (dirty entry written back)
    TavHit,         //!< a0: page
    TavMiss,        //!< a0: page
    TavEvict,       //!< a0: page (dirty entry written back)
    WalkStart,      //!< tx: id; a0: 1 commit walk, 0 abort walk
    WalkEnd,        //!< tx: id; a0: 1 commit, 0 abort; a1: walk length
    ShadowAlloc,    //!< tx: id; a0: home page
    ShadowFree,     //!< a0: home page
    SelFlip,        //!< tx: id; a0: page; a1: block-in-page
    PageFault,      //!< a0: virtual page; a1: process
    SwapOut,        //!< a0: frame; a1: swap slot
    SwapIn,         //!< a0: swap slot; a1: frame
    OverflowSpill,  //!< tx: id; a0: block address
    LineEvict,      //!< a0: block address; a1: live tx marks on the line
    Writeback,      //!< a0: block address
    CtxSwitch,      //!< a0: 1 preemption, 0 natural; thread: incoming
    Watchpoint,      //!< a0: address; a1: WatchKind; v: value
    ChaosInject,     //!< a0: ChaosFault bit; tx: victim (if any)
    WatchdogTrip,    //!< tx: id; a0: consecutive aborts
    StarvationGrant, //!< tx: id; a0: consecutive aborts
    WalAppend,       //!< tx: id; a0: record bytes; a1: log offset; v: seq
    WalFlush,        //!< tx: id; a0: stall ticks; a1: drain-end tick
    CrashCut,        //!< a0: crash tick; a1: durable log bytes
};

/** Number of distinct TraceEventType values. */
constexpr unsigned traceEventTypes =
    unsigned(TraceEventType::CrashCut) + 1;

/** What a watchpoint event observed (Watchpoint payload a1). */
enum class WatchKind : std::uint8_t
{
    Load,        //!< word read
    Store,       //!< word written
    Cas,         //!< compare-and-swap applied
    Fill,        //!< block filled from DRAM / shadow page
    SpecDeposit, //!< speculative words deposited on tx eviction
    Cwb,         //!< committed writeback to the home block
    Toggle,      //!< selection-vector toggle during a commit walk
    Restore,     //!< backup words restored on abort
    Evict,       //!< watched block chosen as eviction victim
};

/** Category of an event type (one category per type). */
constexpr TraceCat
traceEventCat(TraceEventType t)
{
    switch (t) {
      case TraceEventType::TxBegin:
      case TraceEventType::TxRestart:
      case TraceEventType::TxCommit:
      case TraceEventType::TxAbort:
        return TraceCat::Tx;
      case TraceEventType::ConflictEdge:
        return TraceCat::Conflict;
      case TraceEventType::SptHit:
      case TraceEventType::SptMiss:
      case TraceEventType::SptEvict:
      case TraceEventType::TavHit:
      case TraceEventType::TavMiss:
      case TraceEventType::TavEvict:
      case TraceEventType::WalkStart:
      case TraceEventType::WalkEnd:
        return TraceCat::Meta;
      case TraceEventType::ShadowAlloc:
      case TraceEventType::ShadowFree:
      case TraceEventType::SelFlip:
      case TraceEventType::PageFault:
      case TraceEventType::SwapOut:
      case TraceEventType::SwapIn:
        return TraceCat::Page;
      case TraceEventType::OverflowSpill:
      case TraceEventType::LineEvict:
      case TraceEventType::Writeback:
        return TraceCat::Cache;
      case TraceEventType::CtxSwitch:
        return TraceCat::Os;
      case TraceEventType::Watchpoint:
        return TraceCat::Watch;
      case TraceEventType::ChaosInject:
      case TraceEventType::WatchdogTrip:
      case TraceEventType::StarvationGrant:
        return TraceCat::Chaos;
      case TraceEventType::WalAppend:
      case TraceEventType::WalFlush:
      case TraceEventType::CrashCut:
        return TraceCat::Persist;
    }
    return TraceCat::Tx;
}

/** Short snake_case name of an event type (JSONL "ev" field). */
const char *traceEventTypeName(TraceEventType t);

/** Lower-case name of a category ("tx", "conflict", ...). */
const char *traceCatName(TraceCat c);

/** Name of a watchpoint kind ("load", "spec-deposit", ...). */
const char *watchKindName(WatchKind k);

/**
 * Parse a comma-separated category list ("tx,conflict,meta", "all")
 * into a bitmask. @return false on an unknown name.
 */
bool parseTraceCategories(const std::string &s, std::uint32_t &mask);

/** Sentinel for "core / thread unknown" in a TraceEvent. */
constexpr std::uint32_t traceNoId = ~0u;

/** One recorded event. Plain data; field use is per-type. */
struct TraceEvent
{
    Tick tick = 0;
    TraceEventType type = TraceEventType::TxBegin;
    std::uint32_t core = traceNoId;
    std::uint32_t thread = traceNoId;
    TxId tx = invalidTxId;  //!< primary transaction (winner for edges)
    TxId tx2 = invalidTxId; //!< secondary transaction (loser for edges)
    std::uint64_t a0 = 0;   //!< payload (address / cause / index)
    std::uint64_t a1 = 0;   //!< payload (extra)
    double v = 0.0;         //!< payload (watched value, WAL seq)
    std::uint64_t a2 = 0;   //!< payload (tx_* types only)
};

/**
 * A subscriber on the observer path. The System subscribes each one to
 * the event types it consumes; observe() sees exactly those.
 */
class TraceObserver
{
  public:
    virtual void observe(const TraceEvent &e) = 0;

  protected:
    /** Observers are owned by their concrete type, never via this. */
    ~TraceObserver() = default;
};

/** Trace output flavor. */
enum class TraceFormat
{
    Jsonl,  //!< native ptm-trace-v1, one JSON object per line
    Chrome, //!< Chrome trace-event JSON (Perfetto-loadable)
};

/** Parse "jsonl" / "chrome". @return false on an unknown name. */
bool parseTraceFormat(const std::string &s, TraceFormat &fmt);

/** Name of a trace format ("jsonl" / "chrome"). */
const char *traceFormatName(TraceFormat fmt);

/** Largest ring capacity accepted, in events (72 B each: 1.2 GB). */
constexpr std::size_t traceRingMaxEvents = std::size_t(1) << 24;

/** Tracing configuration, carried inside SystemParams. */
struct TraceParams
{
    /** Output file ("-" = stdout); empty disables tracing. */
    std::string path;
    TraceFormat format = TraceFormat::Jsonl;
    /** Enabled-category bitmask (traceCatMask() bits). */
    std::uint32_t categories = traceCatAll;
    /** Ring capacity when tracing, in events. */
    std::size_t bufferEvents = std::size_t(1) << 16;
    /** Watched address (invalidAddr = no watchpoint). */
    Addr watchAddr = invalidAddr;
};

/**
 * The single entry point of the observer path: a per-type interest
 * mask over a bounded keep-newest ring buffer (fed from the category
 * mask) and up to seven subscribers. Every instrumented component
 * holds a Tracer pointer; the never-enabled Tracer::nil() instance
 * makes the un-wired case (unit tests constructing components
 * directly) a single mask test with no null checks at call sites.
 */
class Tracer
{
  public:
    /**
     * Enable the ring with @p capacity (events) for the traced
     * categories in @p mask plus the record types in @p kept.
     * Subscribers are unaffected.
     */
    void configure(std::uint32_t mask, std::size_t capacity,
                   std::span<const TraceEventType> kept = {});

    /** True once configure() enabled at least one traced category. */
    bool active() const { return mask_ != 0; }

    /** True if events of category @p c are traced. */
    bool
    enabled(TraceCat c) const
    {
        return (mask_ & traceCatMask(c)) != 0;
    }

    /**
     * Tick source for record(); set by the owning System. Components
     * without an EventQueue reference (TxManager) still get correct
     * stamps. Unset, events are stamped 0.
     */
    void setClock(std::function<Tick()> clock) { clock_ = std::move(clock); }

    /** Current tick per the configured clock (0 if none). */
    Tick now() const { return clock_ ? clock_() : 0; }

    /** @name Watchpoint */
    /// @{
    void setWatchAddr(Addr a) { watch_ = a; }
    Addr watchAddr() const { return watch_; }
    /** True if @p block is the watched address's cache block. */
    bool
    watchingBlock(Addr block) const
    {
        return watch_ != invalidAddr && blockAlign(watch_) == block;
    }
    /** True if @p word is the watched address's word. */
    bool
    watchingWord(Addr word) const
    {
        return watch_ != invalidAddr && wordAlign(watch_) == word;
    }
    /// @}

    /**
     * Route events of @p types to @p obs too (System wiring). Each
     * event reaches the ring first, then observers in subscription
     * order.
     */
    void subscribe(TraceObserver *obs,
                   std::initializer_list<TraceEventType> types);

    /** Record an event stamped with the clock's current tick. */
    void
    record(TraceEventType type, std::uint32_t core = traceNoId,
           std::uint32_t thread = traceNoId, TxId tx = invalidTxId,
           TxId tx2 = invalidTxId, std::uint64_t a0 = 0,
           std::uint64_t a1 = 0, double v = 0.0, std::uint64_t a2 = 0)
    {
        if (interest_[unsigned(type)])
            dispatch({now(), type, core, thread, tx, tx2, a0, a1, v, a2});
    }

    /** Record an event with an explicit tick stamp. */
    void
    recordAt(Tick tick, TraceEventType type,
             std::uint32_t core = traceNoId,
             std::uint32_t thread = traceNoId, TxId tx = invalidTxId,
             TxId tx2 = invalidTxId, std::uint64_t a0 = 0,
             std::uint64_t a1 = 0, double v = 0.0, std::uint64_t a2 = 0)
    {
        if (interest_[unsigned(type)])
            dispatch({tick, type, core, thread, tx, tx2, a0, a1, v, a2});
    }

    /** Events currently held, oldest first. */
    std::vector<TraceEvent> snapshot() const;

    /** Ring capacity, in events. */
    std::size_t capacity() const { return capacity_; }

    /** Total events the ring accepted since configure(). */
    std::uint64_t recorded() const { return recorded_; }

    /** Events overwritten because the ring was full. */
    std::uint64_t dropped() const { return dropped_.value(); }

    /** The dropped-event count as a statistic (flightrec group). */
    const Counter &droppedCounter() const { return dropped_; }

    /** A process-wide never-enabled tracer, for un-wired components. */
    static Tracer &nil();

  private:
    void dispatch(const TraceEvent &e);
    void push(const TraceEvent &e);

    /** Per type: bit 0 = ring, bit i + 1 = observers_[i]. */
    std::array<std::uint8_t, traceEventTypes> interest_{};
    std::vector<TraceObserver *> observers_;
    std::uint32_t mask_ = 0;
    std::size_t capacity_ = 0;
    std::vector<TraceEvent> buf_;
    std::size_t head_ = 0; //!< next slot to overwrite once full
    std::uint64_t recorded_ = 0;
    Counter dropped_;
    std::function<Tick()> clock_;
    Addr watch_ = invalidAddr;
};

} // namespace ptm

#endif // PTM_SIM_TRACE_HH
