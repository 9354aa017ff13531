/**
 * @file
 * System wiring and run loop.
 */

#include "harness/system.hh"

#include <algorithm>
#include <iostream>

#include "harness/cli.hh"
#include "harness/forensics_io.hh"
#include "harness/stats_io.hh"
#include "sim/logging.hh"
#include "vtm/vtm.hh"

namespace ptm
{

System::System(const SystemParams &params)
    : params_(params), phys_(), frames_(params.physFrames),
      txmgr_(), mem_(params, eq_, phys_, txmgr_),
      os_(params, eq_, phys_, frames_)
{
    // Front ends validate with a clean diagnostic; embedders (tests,
    // custom harnesses) get the same checks as a fatal here.
    if (std::string err = validateParams(params_); !err.empty())
        fatal("%s", err.c_str());

    switch (params_.tmKind) {
      case TmKind::SelectPtm:
      case TmKind::CopyPtm: {
          auto vts = std::make_unique<Vts>(params_, eq_, phys_, txmgr_,
                                           frames_, mem_.dram());
          vts_ = vts.get();
          backend_ = std::move(vts);
          break;
      }
      case TmKind::Vtm:
      case TmKind::VcVtm:
          backend_ = std::make_unique<VtmController>(
              params_, eq_, phys_, txmgr_, mem_.dram());
          break;
      case TmKind::Serial:
      case TmKind::Locks:
          backend_ = nullptr;
          break;
    }
    mem_.setBackend(backend_.get());

    // The observer path: every component records into tracer_, and the
    // ring (when tracing) and each subscriber below see only the record
    // types they asked for.
    tracer_.setClock([this] { return eq_.curTick(); });
    if (!params_.trace.path.empty()) {
        tracer_.configure(params_.trace.categories,
                          params_.trace.bufferEvents);
        tracer_.setWatchAddr(params_.trace.watchAddr);
        // The trace's counter tracks are drawn from the time series.
        params_.timeseries.capture = true;
    }
    txmgr_.setTracer(&tracer_);
    mem_.setTracer(&tracer_);
    os_.setTracer(&tracer_);
    if (vts_)
        vts_->setTracer(&tracer_);
    else if (auto *vtm = dynamic_cast<VtmController *>(backend_.get()))
        vtm->setTracer(&tracer_);

    using Ev = TraceEventType;
    if (params_.profile.enabled) {
        profiler_.configure(params_.numCores);
        profiler_.setClock([this] { return eq_.curTick(); });
        tracer_.subscribe(&profiler_, {Ev::TxCommit, Ev::TxAbort});
        mem_.setProfiler(&profiler_);
        os_.setProfiler(&profiler_);
        if (vts_)
            vts_->setProfiler(&profiler_);
        else if (auto *vtm = dynamic_cast<VtmController *>(backend_.get()))
            vtm->setProfiler(&profiler_);
    }
    if (params_.profile.host)
        eq_.enableHostProfile();

    std::vector<Core *> core_ptrs;
    for (unsigned c = 0; c < params_.numCores; ++c) {
        cores_.push_back(std::make_unique<Core>(CoreId(c), params_, eq_,
                                                mem_, txmgr_, os_));
        if (params_.profile.enabled)
            cores_.back()->setProfiler(profiler_);
        core_ptrs.push_back(cores_.back().get());
    }
    os_.attach(&mem_, backend_.get(), std::move(core_ptrs));

    txmgr_.setContention(params_.contention);
    // Always wired (unlike the profiler): the commit-latency
    // distribution must be populated in plain benchmark runs too.
    txmgr_.setClock([this] { return eq_.curTick(); });

    if (params_.heatmap.enabled) {
        heatmap_ =
            std::make_unique<ContentionHeatmap>(params_.heatmap.topK);
        tracer_.subscribe(heatmap_.get(),
                          {Ev::ConflictEdge, Ev::TxAbort, Ev::SptMiss,
                           Ev::TavMiss, Ev::ShadowAlloc});
    }

    if (params_.chaos.enabled) {
        chaos_.configure(params_.chaos);
        if (vts_)
            vts_->setChaos(&chaos_);
    }
    // Replay line of the auditor and the flight recorder; runWorkload
    // prefixes the workload and system.
    const std::string repro = chaosReproArgs(params_);
    if (params_.audit.enabled) {
        if (vts_) {
            auditor_.attach(vts_, &txmgr_);
            auditor_.setRepro(repro);
        } else {
            warn("--audit requested but the %s backend has no PTM "
                 "structures to audit",
                 tmKindName(params_.tmKind));
        }
    }

    if (params_.forensics.enabled()) {
        flightrec_ =
            std::make_unique<FlightRecorder>(params_.forensics);
        tracer_.subscribe(flightrec_.get(),
                          {Ev::TxBegin, Ev::TxRestart, Ev::TxCommit,
                           Ev::TxAbort, Ev::TxWasted, Ev::SptMiss,
                           Ev::TavMiss, Ev::ShadowAlloc, Ev::WatchdogTrip,
                           Ev::StarvationGrant});
        flightrec_->setRepro(repro);
        if (auditor_.attached() && flightrec_->armed())
            auditor_.onViolation = [this](const AuditViolation &v) {
                flightrec_->trigger(
                    PostmortemTrigger::AuditViolation, pickLiveTx(),
                    v.tick, v.check + " at " + v.where + ": " + v.detail);
            };
        if (flightrec_->armed())
            flightrec_->onReport = [this](const PostmortemReport &r) {
                const std::string &path =
                    params_.forensics.postmortemPath;
                if (!path.empty()) {
                    if (std::ostream *os = streamSink(path)) {
                        emitPostmortemJson(*os, *flightrec_, r);
                        os->flush();
                    }
                }
                printPostmortem(std::cerr, *flightrec_, r);
            };
    }

    if (params_.persist.enabled()) {
        wal_ = std::make_unique<WalManager>(params_.persist,
                                            params_.tmKind);
        wal_->setTracer(&tracer_);
        if (params_.profile.enabled)
            wal_->setProfiler(&profiler_);
        for (auto &c : cores_)
            c->setWal(wal_.get());
    }

    // The crash cut: an explicit tick wins; otherwise the chaos crash
    // fault draws one from the injector's seeded stream, so a
    // (chaos seed, plan) pair replays the same power loss.
    crash_tick_ = params_.persist.crashAtTick;
    if (chaos_.planned(ChaosFault::Crash)) {
        if (!wal_) {
            warn("chaos crash fault needs --durability wal to have "
                 "anything to recover; skipping the cut");
        } else if (crash_tick_ == 0) {
            // Draw from a span short enough to land inside typical
            // runs (a draw past the natural end is a no-op cut).
            Tick span = params_.maxTicks ? params_.maxTicks
                                         : Tick(1) << 20;
            span = std::min<Tick>(span, 1u << 20);
            crash_tick_ = 1 + chaos_.rng().below(std::uint32_t(span));
        }
    }

    wireHooks();
    regStats();
}

void
System::regStats()
{
    // "sys": run-level gauges and the paper's derived Table 1 columns.
    StatGroup &sys = registry_.addGroup("sys");
    sys.addScalar("cycles", [this] {
        return double(os_.lastExitTick() ? os_.lastExitTick()
                                         : eq_.curTick());
    }, "simulated ticks until the last thread exited");
    sys.addScalar("hit_tick_limit",
                  [this] { return hit_limit_ ? 1.0 : 0.0; },
                  "1 if the run stopped at params.maxTicks");
    if (params_.persist.enabled())
        sys.addScalar("crashed",
                      [this] { return crashed_ ? 1.0 : 0.0; },
                      "1 if an injected crash cut the run short");
    sys.addScalar("mem_ops", [this] {
        std::uint64_t n = 0;
        for (const auto &c : cores_)
            n += c->memOps.value();
        return double(n);
    }, "memory operations summed over all cores");
    sys.addScalar("mop_per_evict", [this] {
        std::uint64_t evict = mem_.evictions.value();
        std::uint64_t ops = 0;
        for (const auto &c : cores_)
            ops += c->memOps.value();
        return evict ? double(ops) / double(evict) : 0.0;
    }, "memory ops per cache eviction (Table 1 'mop/evict')");
    sys.addScalar("conservative_pct", [this] {
        std::size_t pages = os_.uniquePages();
        return pages ? 100.0 * double(os_.txWrittenPages()) /
                           double(pages)
                     : 0.0;
    }, "conservative shadow-page overhead bound % (Table 1)");
    sys.addScalar("ideal_pct", [this] {
        std::size_t pages = os_.uniquePages();
        if (!pages || !vts_)
            return 0.0;
        return 100.0 * vts_->liveDirtyPagesStat().mean() /
               double(pages);
    }, "idealized shadow-page overhead % (Table 1 'ideal')");

    // "events": event-queue activity by priority (always collected).
    StatGroup &ev = registry_.addGroup("events");
    ev.addScalar("scheduled",
                 [this] { return double(eq_.scheduledEvents()); },
                 "events scheduled (including cancelled ones)");
    ev.addScalar("executed",
                 [this] { return double(eq_.executedEvents()); },
                 "events executed at any priority");
    for (unsigned p = 0; p < numEventPriorities; ++p) {
        ev.addScalar(
            std::string("executed_") +
                eventPriorityName(EventPriority(p)),
            [this, p] {
                return double(eq_.executedEvents(EventPriority(p)));
            },
            std::string("events executed at priority ") +
                eventPriorityName(EventPriority(p)));
    }

    txmgr_.regStats(registry_);
    mem_.regStats(registry_);
    os_.regStats(registry_);
    for (const auto &c : cores_)
        c->regStats(registry_);
    if (backend_)
        backend_->regStats(registry_);
    // Opt-in groups only — except the flight recorder, which is on by
    // default (its counters are part of the default stats JSON).
    if (params_.chaos.enabled)
        chaos_.regStats(registry_);
    if (auditor_.attached())
        auditor_.regStats(registry_);
    if (flightrec_)
        flightrec_->regStats(registry_);
    if (wal_)
        wal_->regStats(registry_);
}

System::~System() = default;

void
System::unparkIfWaiting(ThreadCtx *t, ThreadState expected)
{
    if (t->state != expected)
        return;
    if (t->core && t->core->current() == t) {
        t->core->kickParked();
    } else {
        os_.makeReady(t);
        os_.kickIdleCores();
    }
}

void
System::wireHooks()
{
    txmgr_.onLogicalCommit = [this](TxId tx) {
        mem_.commitClearTx(tx);
        if (auditor_.attached())
            auditor_.checkAll("commit", eq_.curTick());
    };
    txmgr_.onLogicalAbort = [this](TxId tx) {
        mem_.abortInvalidate(tx);
        if (auditor_.attached())
            auditor_.checkAll("abort", eq_.curTick());
    };
    os_.onThreadExit = [this](ThreadCtx *t) {
        if (vts_)
            vts_->drainThreadCleanups(t->id);
        // A pending periodic task would otherwise keep the queue
        // running to its next interval boundary after the workload
        // ends, inflating the elapsed time the profiler and the
        // time-weighted stats close against (same hazard as the daemon
        // timer). The final timeseries flush in run() still covers the
        // cancelled remainder.
        if (os_.liveThreads() == 1)
            for (PeriodicTask &task : periodic_)
                task.handle.cancel();
    };
    if (backend_) {
        txmgr_.backendCommit = [this](TxId tx) {
            backend_->commitTx(tx);
        };
        txmgr_.backendAbort = [this](TxId tx) {
            backend_->abortTx(tx);
        };
    }
    txmgr_.notifyAborted = [this](TxId, ThreadId th, AbortReason) {
        ThreadCtx *t = threads_.at(th).get();
        t->abortPending = true;
        unparkIfWaiting(t, ThreadState::WaitOrdered);
    };
    txmgr_.notifyAbortComplete = [this](TxId, ThreadId th) {
        ThreadCtx *t = threads_.at(th).get();
        t->abortCleanupDone = true;
        unparkIfWaiting(t, ThreadState::WaitAbort);
    };
    txmgr_.wakeOrderedCommit = [this](TxId, ThreadId th) {
        ThreadCtx *t = threads_.at(th).get();
        unparkIfWaiting(t, ThreadState::WaitOrdered);
    };
}

ProcId
System::createProcess()
{
    return os_.createProcess();
}

ThreadCtx &
System::addThread(ProcId proc, std::vector<Step> steps,
                  std::string name)
{
    ThreadId id = ThreadId(threads_.size());
    threads_.push_back(std::make_unique<ThreadCtx>(
        id, proc, std::move(steps), std::move(name)));
    os_.admit(threads_.back().get());
    return *threads_.back();
}

void
System::addPeriodic(Tick interval, std::function<void()> body)
{
    periodic_.push_back({interval, std::move(body), {}});
    schedulePeriodic(periodic_.size() - 1);
}

void
System::schedulePeriodic(std::size_t i)
{
    periodic_[i].handle = eq_.scheduleIn(
        periodic_[i].interval, EventPriority::Stats, [this, i] {
            periodic_[i].body();
            if (os_.liveThreads() > 0)
                schedulePeriodic(i);
        });
}

void
System::startTimeseries()
{
    if (!params_.timeseries.enabled())
        return;
    timeseries_ = std::make_unique<TimeseriesSampler>(
        params_.timeseries, registry_, eq_);
    // Baselines before the first event executes: interval delta sums
    // then reconcile exactly with the end-of-run totals.
    timeseries_->start();
    timeseries_sink_ = streamSink(params_.timeseries.path);
    if (timeseries_sink_)
        emitTimeseriesHeader(*timeseries_sink_, tmKindArg(params_.tmKind),
                             params_.seed, params_.numCores,
                             params_.timeseries.interval);
    addPeriodic(params_.timeseries.interval,
                [this] { streamInterval(timeseries_->sample()); });
}

void
System::streamInterval(const TimeseriesInterval &iv)
{
    if (!timeseries_sink_)
        return;
    std::vector<SpaceSavingTopK::Entry> hot;
    if (heatmap_)
        hot = heatmap_->conflictPages().top();
    emitTimeseriesInterval(*timeseries_sink_, timeseries_->capture(), iv,
                           heatmap_ ? &hot : nullptr);
    timeseries_sink_->flush();
}

TxId
System::pickLiveTx()
{
    // Collect and sort: unordered_map iteration order must not leak
    // into the deterministic injection schedule.
    std::vector<TxId> live;
    for (const auto &[id, tx] : txmgr_.txTable())
        if (tx.state == TxState::Running)
            live.push_back(id);
    if (live.empty())
        return invalidTxId;
    std::sort(live.begin(), live.end());
    return live[chaos_.rng().below(std::uint32_t(live.size()))];
}

void
System::injectChaos()
{
    std::uint32_t f = chaos_.pickFault();
    if (!f)
        return;
    TxId victim = invalidTxId;
    switch (ChaosFault(f)) {
      case ChaosFault::ExplicitAbort:
        victim = pickLiveTx();
        if (victim == invalidTxId)
            return;
        ++chaos_.injectedAborts;
        tracer_.record(TraceEventType::ChaosInject, traceNoId,
                       traceNoId, victim, invalidTxId, f);
        txmgr_.abort(victim, AbortReason::Explicit);
        if (flightrec_ && flightrec_->armed())
            flightrec_->trigger(PostmortemTrigger::ChaosInject, victim,
                                eq_.curTick(),
                                "chaos-injected explicit abort");
        return;
      case ChaosFault::CacheSqueeze:
        if (!vts_)
            return;
        if (!squeezed_) {
            vts_->sptCache.setCapacity(chaosSqueezeEntries);
            vts_->tavCache.setCapacity(chaosSqueezeEntries);
        } else {
            vts_->sptCache.setCapacity(params_.sptCacheEntries);
            vts_->tavCache.setCapacity(params_.tavCacheEntries);
        }
        squeezed_ = !squeezed_;
        ++chaos_.cacheSqueezes;
        break;
      case ChaosFault::TxFlush:
        victim = pickLiveTx();
        if (victim == invalidTxId)
            return;
        ++chaos_.txFlushes;
        // Forces the victim's cached transactional state out through
        // the overflow path (spills into TAV/XADT structures).
        mem_.flushTxLines(victim);
        break;
      case ChaosFault::PageSwap:
        if (os_.forceSwapOut() == 0)
            return;
        ++chaos_.pageSwaps;
        break;
      case ChaosFault::Preempt: {
          CoreId c = CoreId(chaos_.rng().below(params_.numCores));
          cores_[c]->daemonPreempt(params_.daemonRunLength);
          ++chaos_.preempts;
          break;
      }
      case ChaosFault::CleanupDelay:
      case ChaosFault::Crash:
        return; // polled / drawn once at startup, never scheduled
    }
    tracer_.record(TraceEventType::ChaosInject, traceNoId, traceNoId,
                   victim, invalidTxId, f);
}

Tick
System::run()
{
    startTimeseries();
    if (chaos_.active())
        addPeriodic(params_.chaos.interval, [this] { injectChaos(); });
    if (auditor_.attached() && params_.audit.interval)
        addPeriodic(params_.audit.interval, [this] {
            auditor_.checkAll("interval", eq_.curTick());
        });
    os_.startTimers();
    os_.kickIdleCores();
    Tick limit = params_.maxTicks ? params_.maxTicks : maxTick;
    if (crash_tick_ != 0 && crash_tick_ < limit)
        limit = crash_tick_;
    bool drained = eq_.run(limit);
    crashed_ = !drained && crash_tick_ != 0 &&
               eq_.curTick() >= crash_tick_;
    hit_limit_ = !drained && !crashed_;
    if (crashed_) {
        // Injected power loss: the machine simply stops. Nothing is
        // drained, settled, or audited — the only state a recovery may
        // rely on is the durable log prefix at the cut.
        ++chaos_.crashCuts;
        tracer_.record(TraceEventType::CrashCut, traceNoId, traceNoId,
                       invalidTxId, invalidTxId, eq_.curTick(),
                       wal_ ? wal_->durableBytesAt(eq_.curTick()) : 0);
    } else if (hit_limit_) {
        warn("simulation hit the tick limit at %llu",
             (unsigned long long)eq_.curTick());
        // Chaos-delayed or still-walking cleanups would otherwise leave
        // the structures mid-flight; force them so the end-of-run audit
        // (and any Copy-PTM restore) sees a settled state.
        if (vts_)
            vts_->drainAllCleanups();
    }
    if (auditor_.attached() && !crashed_)
        auditor_.checkAll("end", eq_.curTick());
    for (const auto &t : threads_) {
        if (t->state != ThreadState::Done && drained)
            panic("thread %u stuck in state %d at end of simulation",
                  t->id, int(t->state));
    }
    if (vts_)
        vts_->finishStats(eq_.curTick());
    // Close every core's accounting at the final queue tick so bucket
    // totals sum to the elapsed simulated time.
    profiler_.finish(eq_.curTick());
    // Flush the final (partial) time-series interval after the last
    // event, before any front end snapshots the registry.
    if (timeseries_)
        streamInterval(timeseries_->finish());
    // Report workload completion time: the queue may drain later
    // (timer events, background cleanup walks).
    return os_.lastExitTick() ? os_.lastExitTick() : eq_.curTick();
}

std::uint32_t
System::readWord32(ProcId proc, Addr vaddr)
{
    XlatResult xr = os_.translate(0, proc, vaddr, false);
    return mem_.debugReadWord32(xr.paddr);
}

} // namespace ptm
