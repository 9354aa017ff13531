/**
 * @file
 * Core implementation.
 */

#include "cpu/core.hh"

#include <algorithm>
#include <utility>

#include "persist/wal.hh"
#include "sim/logging.hh"
#include "vm/os_kernel.hh"

namespace ptm
{

Core::Core(CoreId id, const SystemParams &params, EventQueue &eq,
           MemSystem &mem, TxManager &txmgr, OsKernel &os)
    : id_(id), params_(params), eq_(eq), mem_(mem), txmgr_(txmgr),
      os_(os), backoff_rng_(params.seed, 0xb0ff + id),
      site_step_(eq.siteId("core.step")),
      site_compute_(eq.siteId("core.compute")),
      site_xlat_(eq.siteId("core.xlat")),
      site_mem_(eq.siteId("core.mem"))
{}

void
Core::regStats(StatRegistry &reg)
{
    StatGroup &g = reg.addGroup("core" + std::to_string(id_));
    g.addCounter("mem_ops", &memOps,
                 "loads, stores and CAS ops issued by this core");
    g.addCounter("tx_mem_ops", &txMemOps,
                 "memory ops issued inside a transaction");
    g.addCounter("compute_ops", &computeOps,
                 "compute (non-memory) operations executed");
    g.addCounter("preemptions", &preemptions,
                 "threads preempted off this core (quantum/daemon)");
    g.addCounter("ff_batches", &ffBatches,
                 "direct-execution fast-forward batches entered");
    g.addCounter("ff_ops", &ffOps,
                 "ops retired inside fast-forward batches");
}

void
Core::kick()
{
    if (idle_ && !cur_) {
        idle_ = false;
        scheduleStep(0);
    }
}

void
Core::kickParked()
{
    if (idle_ && cur_) {
        idle_ = false;
        scheduleStep(0);
    }
}

void
Core::scheduleStep(Tick delay)
{
    eq_.scheduleIn(delay, EventPriority::Cpu, [this] { step(); },
                   site_step_);
}

bool
Core::shouldPreempt(Tick at) const
{
    if (at < daemon_until_)
        return true;
    return at >= quantum_end_ && os_.hasReady();
}

void
Core::preempt(ThreadCtx &t, Tick next_step_delay)
{
    ++preemptions;
    ++os_.contextSwitches;
    os_.tracer().record(TraceEventType::CtxSwitch, id_, t.id,
                        invalidTxId, invalidTxId, 1);
    prof_->set(id_, ProfBucket::CtxSwitch);
    if (params_.flushOnContextSwitch && t.curTx != invalidTxId &&
        txmgr_.isLive(t.curTx)) {
        // VTM-style switch: the transaction's cached blocks must be
        // evicted and tracked by the overflow structures before the
        // thread leaves the core (section 4.7 / 5.3).
        next_step_delay += mem_.flushTxLines(t.curTx);
    }
    t.state = ThreadState::Ready;
    t.core = nullptr;
    os_.makeReady(&t);
    cur_ = nullptr;
    scheduleStep(next_step_delay + contextSwitchLatency);
}

void
Core::daemonPreempt(Tick length)
{
    daemon_until_ = eq_.curTick() + length;
    // The preemption takes effect at the thread's next safe point; an
    // idle core just stays busy with the daemon.
    if (idle_) {
        idle_ = false;
        prof_->set(id_, ProfBucket::CtxSwitch);
        scheduleStep(length);
    }
}

void
Core::step()
{
    Tick now = eq_.curTick();
    if (now < daemon_until_ && !cur_) {
        prof_->set(id_, ProfBucket::CtxSwitch);
        scheduleStep(daemon_until_ - now);
        return;
    }

    if (!cur_) {
        cur_ = os_.pickReady();
        if (!cur_) {
            goIdle();
            return;
        }
        cur_->core = this;
        cur_->state = ThreadState::Running;
        quantum_end_ = params_.osQuantum
                           ? now + params_.osQuantum
                           : maxTick;
        if (last_ && last_ != cur_) {
            ++os_.contextSwitches;
            os_.tracer().record(TraceEventType::CtxSwitch, id_,
                                cur_->id, invalidTxId, invalidTxId, 0);
            last_ = cur_;
            prof_->set(id_, ProfBucket::CtxSwitch);
            scheduleStep(contextSwitchLatency);
            return;
        }
        last_ = cur_;
    }

    ThreadCtx &t = *cur_;

    if (t.abortPending) {
        handleAbort(t);
        return;
    }
    if (t.commitPending) {
        t.state = ThreadState::Running;
        tryCommit(t);
        return;
    }
    if (t.hasPendingResume) {
        t.hasPendingResume = false;
        t.state = ThreadState::Running;
        resumeCoro(t, t.resumeValue);
        return;
    }
    if (t.coroLive) {
        // First resume of a freshly created coroutine.
        t.state = ThreadState::Running;
        resumeCoro(t, 0);
        return;
    }
    beginStep(t);
}

void
Core::beginStep(ThreadCtx &t)
{
    if (t.finished()) {
        t.state = ThreadState::Done;
        t.core = nullptr;
        cur_ = nullptr;
        os_.threadExited(&t);
        // Pick up more work if any.
        if (os_.hasReady()) {
            prof_->set(id_, ProfBucket::CtxSwitch);
            scheduleStep(contextSwitchLatency);
        } else {
            goIdle();
        }
        return;
    }

    const Step &step = t.currentStep();
    if (const TxStep *tx = std::get_if<TxStep>(&step)) {
        if (t.curTx == invalidTxId) {
            t.curTx = txmgr_.begin(t.id, t.proc, eq_.curTick(),
                                   tx->ordered, tx->scope, tx->rank);
        }
        // (Restarted transactions keep their id; TxManager::restart
        // already ran in handleAbort.)
        t.coro = tx->body(MemCtx{});
        t.coroLive = true;
        // Register checkpoint at transaction begin.
        prof_->set(id_, ProfBucket::TxBegin);
        scheduleStep(checkpointLatency);
        return;
    }
    if (const PlainStep *p = std::get_if<PlainStep>(&step)) {
        t.coro = p->body(MemCtx{});
        t.coroLive = true;
        resumeCoro(t, 0);
        return;
    }
    const BarrierStep &b = std::get<BarrierStep>(step);
    ++t.stepIdx;
    std::vector<ThreadCtx *> released;
    if (os_.barrierArrive(b.id, &t, released)) {
        for (ThreadCtx *r : released) {
            if (r != &t) {
                r->state = ThreadState::Ready;
                os_.makeReady(r);
            }
        }
        os_.kickIdleCores();
        prof_->set(id_, ProfBucket::Barrier);
        scheduleStep(barrierLatency);
    } else {
        t.state = ThreadState::WaitBarrier;
        t.core = nullptr;
        cur_ = nullptr;
        if (os_.hasReady()) {
            prof_->set(id_, ProfBucket::CtxSwitch);
            scheduleStep(contextSwitchLatency);
        } else {
            // Nothing else to run: the core sits out the barrier.
            goIdle(ProfBucket::Barrier);
        }
    }
}

void
Core::resumeCoro(ThreadCtx &t, std::uint64_t value)
{
    if (t.abortPending) {
        handleAbort(t);
        return;
    }
    if (shouldPreempt(eq_.curTick())) {
        // Deliver the value after the thread is rescheduled.
        t.hasPendingResume = true;
        t.resumeValue = value;
        Tick now = eq_.curTick();
        Tick busy = now < daemon_until_ ? daemon_until_ - now : 0;
        preempt(t, busy);
        return;
    }

    if (params_.fastForwardOps > 0) {
        fastForward(t, value);
        return;
    }

    const MemYield *op = t.coro.resume(value);
    if (!op) {
        stepFinished(t);
        return;
    }
    runOp(t, *op);
}

void
Core::fastForward(ThreadCtx &t, std::uint64_t value)
{
    const Tick start = eq_.curTick();
    // No batched op may have effects at or past the next pending
    // event's tick (nothing else simulated happens strictly before it,
    // so batched ops observe exactly the natural-path state) or past
    // the run limit (the stats snapshot at the limit must not see
    // future work).
    Tick horizon = eq_.nextEventTick();
    const Tick limit = eq_.runLimit();
    if (limit != maxTick && limit + 1 < horizon)
        horizon = limit + 1;

    ++ffBatches;
    profExec(t);
    // Compute cycles go where profExec just put the core's execution.
    const bool in_tx = t.curTx != invalidTxId;
    const ProfBucket exec_bucket =
        in_tx ? ProfBucket::TxExec : ProfBucket::NonTx;

    Tick adv = 0; // virtual cycles accumulated past start
    unsigned done = 0;
    // Leave the batch: fn runs where the one-event path would run
    // it — right away when no op retired, else when the last one
    // completes.
    auto leave = [&](std::uint16_t site, auto fn) {
        if (done == 0)
            fn();
        else
            after(t, adv, fn, site);
    };
    for (;;) {
        const MemYield *op = t.coro.resume(value);
        if (!op) {
            leave(site_step_, [this, &t] { stepFinished(t); });
            return;
        }

        // The op's virtual issue tick, its cycles and the profiler
        // bucket the one-event path charges them to.
        const Tick at = start + adv;
        Tick len;
        ProfBucket b = exec_bucket;
        if (op->kind == OpKind::Compute) {
            ++computeOps;
            ++ffOps;
            t.computeCycles += op->cycles;
            len = op->cycles ? op->cycles : 1;
            value = 0;
        } else {
            auto pa = os_.translateFast(id_, t.proc, op->vaddr);
            if (!pa) {
                // TLB walk or fault: replay the op on the natural path
                // at its virtual issue time (runOp counts it and runs
                // the full translate() with correctly-timed side
                // effects).
                MemYield opc = *op;
                leave(site_xlat_, [this, &t, opc] { runOp(t, opc); });
                return;
            }
            ++memOps;
            ++t.memOps;
            ++ffOps;
            if (in_tx) {
                ++txMemOps;
                if (op->kind != OpKind::Load)
                    noteTxStore(t, *op);
            }
            Access acc = makeAccess(t, *op, *pa);
            auto hit = mem_.trySync(acc, at);
            if (!hit) {
                // Needs the bus, or a committed-data writeback that
                // must carry its own tick: issue at the virtual time
                // so the bus reservation, grant processing and
                // writeback see natural timing. (A refused trySync
                // has no side effect; the re-probe inside issueAccess
                // at that tick decides identically.)
                pinFrame(t, acc.paddr);
                leave(site_mem_, [this, &t, acc] { issueAccess(t, acc); });
                return;
            }
            len = hit->first;
            b = hitBucket(len);
            value = hit->second.value;
        }

        ++done;
        adv += len;
        Tick v = start + adv;
        if (done >= params_.fastForwardOps || v >= horizon ||
            shouldPreempt(v)) {
            // Batch exit: the op's span stays open, as the one-event
            // path has it at the op's issue tick (v may lie past the
            // horizon, where finish() at a run limit must not look);
            // its completion closes it and hands the next op to
            // resumeCoro, which re-checks preemption/abort there and
            // may open a fresh batch.
            prof_->span(id_, b, at);
            leave(site_compute_, [this, &t, rv = value] {
                prof_->pop(id_);
                resumeCoro(t, rv);
            });
            return;
        }
        prof_->span(id_, b, at, v);
    }
}

void
Core::noteTxStore(ThreadCtx &t, const MemYield &op)
{
    os_.noteTxWrite(t.proc, op.vaddr);
    if (wal_) {
        // The redo log records absolute committed values; a CAS's
        // committed value is resolution-dependent, and no
        // durability-eligible workload issues one transactionally
        // (validateParams rejects the lock-based modes).
        panic_if(op.kind == OpKind::Cas, "durable logging cannot "
                                         "capture a transactional CAS");
        wal_->noteStore(t.curTx, op.vaddr, std::uint32_t(op.value));
    }
}

Access
Core::makeAccess(const ThreadCtx &t, const MemYield &op,
                 Addr paddr) const
{
    Access acc;
    acc.core = id_;
    acc.tx = t.curTx;
    acc.isWrite = op.kind == OpKind::Store;
    acc.isCas = op.kind == OpKind::Cas;
    acc.paddr = paddr & ~Addr(3);
    acc.storeValue = std::uint32_t(op.value);
    acc.casExpected = std::uint32_t(op.expected);
    return acc;
}

void
Core::pinFrame(ThreadCtx &t, Addr paddr)
{
    if (!params_.swapEnabled)
        return;
    panic_if(t.pinnedFrame != invalidPage,
             "thread %u pins a second in-flight access", t.id);
    t.pinnedFrame = pageOf(paddr);
    os_.pinFrame(t.pinnedFrame);
}

void
Core::unpinFrame(ThreadCtx &t)
{
    if (t.pinnedFrame != invalidPage)
        os_.unpinFrame(std::exchange(t.pinnedFrame, invalidPage));
}

void
Core::runOp(ThreadCtx &t, const MemYield &op)
{
    if (op.kind == OpKind::Compute) {
        ++computeOps;
        t.computeCycles += op.cycles;
        Tick d = op.cycles ? op.cycles : 1;
        profExec(t);
        after(t, d, [this, &t] { resumeCoro(t, 0); }, site_compute_);
        return;
    }

    ++memOps;
    ++t.memOps;
    if (t.curTx != invalidTxId)
        ++txMemOps;

    XlatResult xr = os_.translate(id_, t.proc, op.vaddr,
                                  op.kind != OpKind::Load);
    if (t.curTx != invalidTxId && op.kind != OpKind::Load)
        noteTxStore(t, op);

    Access acc = makeAccess(t, op, xr.paddr);
    pinFrame(t, acc.paddr);
    if (xr.latency == 0) {
        issueAccess(t, acc);
    } else {
        // Translation stall: hardware TLB walk, or the full software
        // fault path (which includes any swap I/O).
        prof_->push(id_, xr.faulted ? ProfBucket::FaultSwap
                                    : ProfBucket::StallXlat);
        after(t, xr.latency, [this, &t, acc] {
            prof_->pop(id_);
            issueAccess(t, acc);
        }, site_xlat_);
    }
}

void
Core::issueAccess(ThreadCtx &t, const Access &acc)
{
    if (t.abortPending) {
        handleAbort(t);
        return;
    }
    if (auto hit = mem_.trySync(acc, eq_.curTick())) {
        unpinFrame(t);
        Tick lat = hit->first;
        std::uint32_t v = hit->second.value;
        prof_->push(id_, hitBucket(lat));
        after(t, lat, [this, &t, v] {
            prof_->pop(id_);
            resumeCoro(t, v);
        }, site_mem_);
        return;
    }
    t.state = ThreadState::WaitMem;
    prof_->push(id_, ProfBucket::StallMem);
    std::uint64_t ep = t.epoch;
    // The bus request owns the pin from here: it is released at grant
    // processing, where the access reaches memory.
    const PageNum pin = std::exchange(t.pinnedFrame, invalidPage);
    mem_.request(acc, [this, &t, ep, pin](Tick done, AccessResult res) {
        if (pin != invalidPage)
            os_.unpinFrame(pin);
        eq_.schedule(done, EventPriority::Cpu, [this, &t, res, ep] {
            if (t.epoch != ep)
                return;
            prof_->pop(id_);
            t.state = ThreadState::Running;
            if (res.txAborted || t.abortPending) {
                handleAbort(t);
                return;
            }
            resumeCoro(t, res.value);
        }, site_mem_);
    });
}

void
Core::stepFinished(ThreadCtx &t)
{
    t.coro.destroy();
    t.coroLive = false;

    if (std::holds_alternative<TxStep>(t.currentStep())) {
        t.commitPending = true;
        prof_->set(id_, ProfBucket::TxCommit);
        after(t, logicalCommitLatency, [this, &t] {
            if (t.abortPending)
                handleAbort(t);
            else
                tryCommit(t);
        });
        return;
    }

    ++t.stepIdx;
    profExec(t);
    scheduleStep(1);
}

void
Core::tryCommit(ThreadCtx &t)
{
    CommitResult r = txmgr_.requestCommit(t.curTx);
    if (r == CommitResult::Done) {
        Tick persist_wait =
            wal_ ? wal_->commitTx(t.curTx, t.id, eq_.curTick()) : 0;
        t.commitPending = false;
        t.curTx = invalidTxId;
        ++t.stepIdx;
        if (persist_wait) {
            // Durable commit: the thread stalls until its record's
            // ordered flush drains from the log device.
            prof_->set(id_, ProfBucket::TxPersist);
            after(t, persist_wait, [this, &t] {
                profExec(t);
                scheduleStep(1);
            });
            return;
        }
        profExec(t);
        scheduleStep(1);
        return;
    }
    // Ordered transaction must wait for the commit token. Yield the
    // core if other threads could use it; otherwise stall in place.
    t.state = ThreadState::WaitOrdered;
    if (os_.hasReady()) {
        prof_->set(id_, ProfBucket::CtxSwitch);
        t.core = nullptr;
        cur_ = nullptr;
        scheduleStep(contextSwitchLatency);
    } else {
        goIdle(ProfBucket::TxCommit);
    }
}

void
Core::handleAbort(ThreadCtx &t)
{
    t.commitPending = false;
    t.hasPendingResume = false;
    // The epoch bump abandons a translated access not yet issued.
    unpinFrame(t);
    ++t.epoch;
    t.coro.destroy();
    t.coroLive = false;
    if (wal_)
        // Nothing aborted ever reaches the log; the attempt's captured
        // redo set is dropped (re-execution captures a fresh one).
        wal_->discard(t.curTx);

    // Collapsing the phase stack also cleans up any stall span whose
    // pop the epoch bump just abandoned.
    prof_->collapse(id_, ProfBucket::TxAbort);

    if (!t.abortCleanupDone) {
        // Copy-PTM restores (and TAV frees) must drain before the
        // transaction re-executes.
        t.state = ThreadState::WaitAbort;
        if (os_.hasReady()) {
            prof_->set(id_, ProfBucket::CtxSwitch);
            t.core = nullptr;
            cur_ = nullptr;
            scheduleStep(contextSwitchLatency);
        } else {
            // Waiting in place for abort cleanup is abort overhead.
            goIdle(ProfBucket::TxAbort);
        }
        return;
    }

    t.abortPending = false;
    t.abortCleanupDone = false;
    ++t.restarts;
    t.state = ThreadState::Running;
    // Exponential backoff keeps a young transaction from spinning
    // against a long-running older one (abort storms).
    const Transaction *txn = txmgr_.get(t.curTx);
    unsigned shift = txn ? std::min(txn->attempts, 8u) : 1;
    txmgr_.restart(t.curTx, eq_.curTick());
    Tick delay = abortRestartLatency << (shift - 1);
    if (params_.contention.randomBackoff && delay > 1) {
        // Randomize within the upper half of the exponential window so
        // two transactions aborted by the same conflict do not retry
        // in lockstep (livelock under symmetric contention). The draw
        // comes from a per-core seeded stream, so runs stay exactly
        // reproducible.
        delay = delay / 2 +
                backoff_rng_.below(std::uint32_t(delay / 2 + 1));
    }
    // beginStep recreates the body coroutine (checkpoint restore).
    scheduleStep(delay);
}

} // namespace ptm
