/**
 * @file
 * Discrete-event simulation core.
 *
 * The whole simulator is driven by one EventQueue. Components schedule
 * callbacks at future ticks; the queue executes them in (tick, priority,
 * insertion order) order, which makes the simulation fully deterministic.
 *
 * Host-speed design: event records live in a slab recycled through a
 * freelist, so the steady-state loop performs no heap allocation —
 * callbacks whose captures fit EventFn's inline buffer (statically
 * sized to cover every scheduling site in the simulator, including the
 * memory-system grant path) are stored in place, and cancellation is a
 * generation-counter check instead of a shared_ptr tombstone per
 * handle. The binary heap orders small POD references only.
 */

#ifndef PTM_SIM_EVENT_QUEUE_HH
#define PTM_SIM_EVENT_QUEUE_HH

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <queue>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/profile.hh"
#include "sim/types.hh"

namespace ptm
{

/**
 * Relative ordering of events scheduled for the same tick. Lower values
 * execute first.
 */
enum class EventPriority : int
{
    /** Coherence/bus/memory completions. */
    Memory = 0,
    /** Supervisor (VTS/VTM) background work. */
    Supervisor = 1,
    /** CPU core execution steps. */
    Cpu = 2,
    /** OS scheduler decisions (timer interrupts, context switches). */
    Os = 3,
    /** Miscellaneous bookkeeping; always last in a tick. */
    Stats = 4,
};

/** Number of distinct EventPriority values. */
constexpr unsigned numEventPriorities = 5;

/** Short name of a priority ("memory", "cpu", ...). */
constexpr const char *
eventPriorityName(EventPriority p)
{
    switch (p) {
      case EventPriority::Memory:
        return "memory";
      case EventPriority::Supervisor:
        return "supervisor";
      case EventPriority::Cpu:
        return "cpu";
      case EventPriority::Os:
        return "os";
      case EventPriority::Stats:
        return "stats";
    }
    return "?";
}

/**
 * Move-only callable holding event callbacks without heap allocation:
 * callables whose size, alignment and nothrow-movability permit are
 * constructed directly in the inline buffer; anything bigger falls
 * back to one heap cell (rare — see the static_asserts below).
 */
class EventFn
{
  public:
    /**
     * Inline storage size. Sized so every scheduling site in the
     * simulator stays inline; the largest is the memory-system grant
     * path capturing [this, Access, std::function callback, Tick].
     */
    static constexpr std::size_t inlineBytes = 112;

    /** True if a callable of type @p F is stored inline (no heap). */
    template <typename F>
    static constexpr bool
    storesInline()
    {
        return sizeof(F) <= inlineBytes &&
               alignof(F) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<F>;
    }

    EventFn() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventFn>>>
    EventFn(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (storesInline<Fn>()) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
            ops_ = &inlineOps<Fn>;
        } else {
            *reinterpret_cast<Fn **>(buf_) = new Fn(std::forward<F>(f));
            ops_ = &heapOps<Fn>;
        }
    }

    EventFn(EventFn &&o) noexcept { moveFrom(o); }

    EventFn &
    operator=(EventFn &&o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    ~EventFn() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }

    void
    operator()()
    {
        ops_->invoke(buf_);
    }

    /** Destroy the held callable (back to the empty state). */
    void
    reset()
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        void (*moveTo)(void *src, void *dst);
        void (*destroy)(void *);
    };

    template <typename F>
    static constexpr Ops inlineOps = {
        [](void *p) { (*static_cast<F *>(p))(); },
        [](void *src, void *dst) {
            F *s = static_cast<F *>(src);
            ::new (dst) F(std::move(*s));
            s->~F();
        },
        [](void *p) { static_cast<F *>(p)->~F(); },
    };

    template <typename F>
    static constexpr Ops heapOps = {
        [](void *p) { (**static_cast<F **>(p))(); },
        [](void *src, void *dst) {
            *static_cast<F **>(dst) = *static_cast<F **>(src);
        },
        [](void *p) { delete *static_cast<F **>(p); },
    };

    void
    moveFrom(EventFn &o) noexcept
    {
        if (o.ops_) {
            o.ops_->moveTo(o.buf_, buf_);
            ops_ = o.ops_;
            o.ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[inlineBytes];
    const Ops *ops_ = nullptr;
};

// The common capture shapes must stay inline: a component pointer plus
// a handful of ids/ticks (core steps, supervisor walks), and the
// memory-system shape of [this, 40-byte Access, 32-byte std::function,
// Tick] with alignment padding.
static_assert(EventFn::storesInline<void (*)()>());
static_assert(EventFn::inlineBytes >= 13 * sizeof(void *),
              "inline buffer must hold the memory-grant capture shape");

/**
 * The global event queue. Callbacks live in pooled slab records;
 * cancellation compares a Handle's generation against the slot's, so
 * scheduling stays O(log n) with no per-event allocation.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Opaque handle to a scheduled event, usable to cancel it. */
    class Handle
    {
      public:
        Handle() = default;

        /** True if the handle refers to a still-pending event. */
        bool
        pending() const
        {
            return eq_ && eq_->slotLive(slot_, gen_);
        }

        /** Cancel the event if still pending. */
        void
        cancel()
        {
            if (eq_)
                eq_->cancelSlot(slot_, gen_);
        }

      private:
        friend class EventQueue;
        Handle(EventQueue *eq, std::uint32_t slot, std::uint32_t gen)
            : eq_(eq), slot_(slot), gen_(gen)
        {}
        EventQueue *eq_ = nullptr;
        std::uint32_t slot_ = 0;
        std::uint32_t gen_ = 0;
    };

    /** Current simulated time. */
    Tick
    curTick() const
    {
        return cur_tick_;
    }

    /** Sentinel site id: attribute to the priority's default site. */
    static constexpr std::uint16_t noSite = 0xffff;

    /**
     * Schedule @p fn to run at absolute tick @p when. @p site (from
     * siteId()) attributes the callback for host profiling; untagged
     * events fall back to their priority's default site.
     * @return a handle that can cancel the event.
     */
    template <typename F>
    Handle
    schedule(Tick when, EventPriority prio, F &&fn,
             std::uint16_t site = noSite)
    {
        panic_if(when < cur_tick_,
                 "scheduling event in the past (%llu < %llu)",
                 (unsigned long long)when,
                 (unsigned long long)cur_tick_);
        std::uint32_t slot = allocSlot();
        Record &r = records_[slot];
        r.fn = EventFn(std::forward<F>(fn));
        r.site = site;
        heap_.push(Ref{when, seq_++, slot, r.gen,
                       std::uint8_t(int(prio))});
        return Handle(this, slot, r.gen);
    }

    /** Schedule @p fn to run @p delta ticks from now. */
    template <typename F>
    Handle
    scheduleIn(Tick delta, EventPriority prio, F &&fn,
               std::uint16_t site = noSite)
    {
        return schedule(cur_tick_ + delta, prio, std::forward<F>(fn),
                        site);
    }

    /** True if no live events remain. */
    bool
    empty()
    {
        skipDead();
        return heap_.empty();
    }

    /**
     * Tick of the earliest pending live event, or maxTick if none.
     * During event execution this is the next event *after* the one
     * running — the conservative lookahead bound of the core's
     * direct-execution fast-forward: nothing else can execute before
     * this tick, so effects performed early but logically timestamped
     * strictly before it are unobservable.
     */
    Tick
    nextEventTick()
    {
        skipDead();
        return heap_.empty() ? maxTick : heap_.top().when;
    }

    /**
     * The tick limit of the innermost run() in progress (maxTick when
     * unlimited or idle). Fast-forward must not act past it: events
     * beyond the limit never execute, so neither may batched ops.
     */
    Tick
    runLimit() const
    {
        return run_limit_;
    }

    /**
     * Execute events until the queue drains or @p limit ticks elapse.
     * @return true if the queue drained, false if the limit was hit.
     */
    bool
    run(Tick limit = maxTick)
    {
        run_limit_ = limit;
        while (!empty()) {
            const Ref &top = heap_.top();
            if (top.when > limit) {
                cur_tick_ = limit;
                return false;
            }
            Ref ref = top;
            heap_.pop();
            cur_tick_ = ref.when;
            Record &r = records_[ref.slot];
            // empty() skipped dead refs, so this one is live. Move the
            // callback out and recycle the slot *before* invoking: the
            // callback may schedule (growing the slab) or cancel.
            EventFn fn = std::move(r.fn);
            std::uint16_t site = r.site;
            freeSlot(ref.slot);
            ++executed_[std::size_t(ref.prio)];
            if (host_profile_)
                execProfiled(fn, site, ref.prio);
            else
                fn();
        }
        return true;
    }

    /** Total number of events scheduled (for stats/testing). */
    std::uint64_t
    scheduledEvents() const
    {
        return seq_;
    }

    /** @name Executed-event accounting (always on) */
    /// @{
    /** Events executed at priority @p p. */
    std::uint64_t
    executedEvents(EventPriority p) const
    {
        return executed_[std::size_t(p)];
    }

    /** Events executed at any priority. */
    std::uint64_t
    executedEvents() const
    {
        std::uint64_t n = 0;
        for (std::uint64_t v : executed_)
            n += v;
        return n;
    }
    /// @}

    /** @name Slab introspection (tests / diagnostics) */
    /// @{
    /** Event records ever allocated (high-water mark of in-flight). */
    std::size_t
    slabSlots() const
    {
        return records_.size();
    }

    /** Records currently on the freelist. */
    std::size_t
    freeSlots() const
    {
        return free_.size();
    }
    /// @}

    /** @name Host-side event-loop profiling */
    /// @{
    /**
     * Intern a callback-site name for host profiling; components cache
     * the returned id and pass it to schedule(). Ids 0..4 are the
     * per-priority default sites.
     */
    std::uint16_t
    siteId(const std::string &name)
    {
        auto it = site_index_.find(name);
        if (it != site_index_.end())
            return it->second;
        panic_if(sites_.size() >= noSite, "too many profile sites");
        auto id = std::uint16_t(sites_.size());
        sites_.push_back(SiteCounters{name, 0, 0, 0});
        site_index_.emplace(name, id);
        return id;
    }

    /**
     * Turn on wall-clock profiling of the run loop: per-site event
     * counts, with the host time of every @p sample_interval-th event
     * measured so the overhead stays small (every 32nd by default).
     */
    void
    enableHostProfile(unsigned sample_interval = 32)
    {
        host_profile_ = true;
        host_interval_ = sample_interval ? sample_interval : 1;
    }

    /** Captured per-site host profile (empty sites elided). */
    HostProfile
    hostProfile() const
    {
        HostProfile h;
        h.enabled = host_profile_;
        h.sampleInterval = host_interval_;
        for (const SiteCounters &s : sites_) {
            if (!s.events)
                continue;
            HostProfile::Site out;
            out.name = s.name;
            out.events = s.events;
            out.sampled = s.sampled;
            out.sampledNs = s.ns;
            h.sites.push_back(std::move(out));
        }
        return h;
    }
    /// @}

  private:
    /** Pooled event record; the callback never leaves the slab until
     *  execution. gen counts reuses: a Ref or Handle whose gen does
     *  not match is stale (executed or cancelled). */
    struct Record
    {
        EventFn fn;
        std::uint32_t gen = 0;
        std::uint16_t site = noSite;
    };

    /** Heap element: ordering key plus the slab reference. POD. */
    struct Ref
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;
        std::uint8_t prio;
    };

    struct SiteCounters
    {
        std::string name;
        std::uint64_t events = 0;
        std::uint64_t sampled = 0;
        std::uint64_t ns = 0;
    };

    struct Later
    {
        bool
        operator()(const Ref &a, const Ref &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.prio != b.prio)
                return a.prio > b.prio;
            return a.seq > b.seq;
        }
    };

    std::uint32_t
    allocSlot()
    {
        if (!free_.empty()) {
            std::uint32_t slot = free_.back();
            free_.pop_back();
            return slot;
        }
        panic_if(records_.size() >= 0xffffffffull,
                 "event slab exhausted");
        records_.emplace_back();
        return std::uint32_t(records_.size() - 1);
    }

    /** Retire a live slot: destroy its callback, bump the generation
     *  (invalidating outstanding Refs/Handles) and recycle it. */
    void
    freeSlot(std::uint32_t slot)
    {
        Record &r = records_[slot];
        r.fn.reset();
        ++r.gen;
        r.site = noSite;
        free_.push_back(slot);
    }

    bool
    slotLive(std::uint32_t slot, std::uint32_t gen) const
    {
        return slot < records_.size() && records_[slot].gen == gen;
    }

    void
    cancelSlot(std::uint32_t slot, std::uint32_t gen)
    {
        if (slotLive(slot, gen))
            freeSlot(slot); // the stale heap Ref is skipped on pop
    }

    void
    execProfiled(EventFn &fn, std::uint16_t site, std::uint8_t prio)
    {
        std::size_t idx = site == noSite ? std::size_t(prio)
                                         : std::size_t(site);
        SiteCounters &s = sites_[idx];
        ++s.events;
        if (++host_count_ >= host_interval_) {
            host_count_ = 0;
            auto t0 = std::chrono::steady_clock::now();
            fn();
            auto dt = std::chrono::steady_clock::now() - t0;
            s.ns += std::uint64_t(
                std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                    .count());
            ++s.sampled;
        } else {
            fn();
        }
    }

    void
    skipDead()
    {
        while (!heap_.empty()) {
            const Ref &top = heap_.top();
            if (records_[top.slot].gen == top.gen)
                break;
            heap_.pop();
        }
    }

    std::priority_queue<Ref, std::vector<Ref>, Later> heap_;
    std::vector<Record> records_;
    std::vector<std::uint32_t> free_;
    Tick cur_tick_ = 0;
    Tick run_limit_ = maxTick;
    std::uint64_t seq_ = 0;

    /** Executed-event counters, indexed by priority (always on). */
    std::array<std::uint64_t, numEventPriorities> executed_{};

    /** Site table; slots 0..4 are the per-priority default sites. */
    std::vector<SiteCounters> sites_{
        SiteCounters{"memory", 0, 0, 0},
        SiteCounters{"supervisor", 0, 0, 0},
        SiteCounters{"cpu", 0, 0, 0},
        SiteCounters{"os", 0, 0, 0},
        SiteCounters{"stats", 0, 0, 0},
    };
    std::map<std::string, std::uint16_t> site_index_{
        {"memory", 0}, {"supervisor", 1}, {"cpu", 2},
        {"os", 3},     {"stats", 4},
    };
    bool host_profile_ = false;
    unsigned host_interval_ = 32;
    unsigned host_count_ = 0;
};

} // namespace ptm

#endif // PTM_SIM_EVENT_QUEUE_HH
