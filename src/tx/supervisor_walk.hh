/**
 * @file
 * The background commit/abort walk both unbounded-TM backends share.
 * After the logical commit or abort (TxManager), it drains the
 * transaction's overflow list (PTM: TAV nodes, VTM: XADT blocks) one
 * supervisor step per item. A backend supplies the list
 * (startCleanup), each step's DRAM cost on the supervisor timeline
 * (stepCost) and the step itself (applyStep); the walk owns the job
 * table, the timelines, the chaos-delayed start, the forced finish,
 * the overflow count behind anyOverflow(), the cleanup latencies, the
 * WalkStart/WalkEnd records and the cleanup profile charges.
 */

#ifndef PTM_TX_SUPERVISOR_WALK_HH
#define PTM_TX_SUPERVISOR_WALK_HH

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/stats.hh"
#include "tx/tm_backend.hh"
#include "tx/tx_manager.hh"

namespace ptm
{

class PtmAuditor;
struct AuditTestAccess;

/** A backend whose commit/abort cleanup walks a list of @p Item. */
template <typename Item>
class SupervisorWalk : public TmBackend
{
  public:
    // Scheduled steps hold the walk's address.
    SupervisorWalk(const SupervisorWalk &) = delete;
    SupervisorWalk &operator=(const SupervisorWalk &) = delete;

    bool anyOverflow() const override { return overflowed_live_ > 0; }
    void commitTx(TxId tx) override { schedule(tx, true); }
    void abortTx(TxId tx) override { schedule(tx, false); }

    void
    drainThreadCleanups(ThreadId thread) override
    {
        drain([thread](const Transaction &tx) {
            return tx.thread == thread && tx.state == TxState::Aborting;
        });
    }

    void
    drainAllCleanups() override
    {
        drain([](const Transaction &tx) {
            return tx.state == TxState::Committing ||
                   tx.state == TxState::Aborting;
        });
    }

    /** Ticks from logical commit to cleanup done, per overflowed
     *  transaction (an empty walk, VC-VTM's instant commit, is 0). */
    Distribution commitCleanupLatency{0, 512 * 1000, 32};
    /** Ticks from logical abort to cleanup done, likewise. */
    Distribution abortCleanupLatency{0, 512 * 1000, 32};

  protected:
    /** @p shards supervisor timelines; a walk runs on its owning
     *  thread's, modulo the count (one serializes every walk). */
    SupervisorWalk(EventQueue &eq, TxManager &txmgr, unsigned shards)
        : eq_(eq), txmgr_(txmgr), free_(std::max(1u, shards), 0)
    {}

    /**
     * Collect @p tx's overflow list and open() and run() its walk, or
     * report cleanupDone at once when it never overflowed. Runs when
     * the (possibly chaos-delayed) walk starts.
     */
    virtual void startCleanup(TxId tx, bool is_commit) = 0;
    /** DRAM accesses of one item's step from tick @p t; returns the
     *  tick the step completes. */
    virtual Tick stepCost(TxId tx, bool is_commit, Item item, Tick t) = 0;
    /** The step itself, when it completes (or is forced). */
    virtual void applyStep(TxId tx, bool is_commit, Item item) = 0;

    /** Mark @p tx as having overflowed (global flag bookkeeping). */
    void
    noteOverflow(TxId tx)
    {
        Transaction *t = txmgr_.get(tx);
        panic_if(!t, "overflow for unknown transaction");
        if (!t->overflowed) {
            t->overflowed = true;
            ++overflowed_live_;
        }
    }

    /**
     * Open @p tx's walk over @p items and record its WalkStart.
     * @return the walk's item list, which the caller may still trim
     *         (VC-VTM's instant commits) before run().
     */
    std::vector<Item> &
    open(TxId tx, bool is_commit, std::vector<Item> items)
    {
        tracer_->record(TraceEventType::WalkStart, traceNoId, traceNoId,
                        tx, invalidTxId, is_commit ? 1 : 0, items.size());
        const Transaction *t = txmgr_.get(tx);
        unsigned shard = free_.size() > 1 && t
                             ? unsigned(t->thread) % unsigned(free_.size())
                             : 0;
        Job &job = jobs_[tx];
        job = Job{is_commit, std::move(items), 0, eq_.curTick(), shard};
        return job.items;
    }

    /** First step of @p tx's open walk (an empty one finishes now). */
    void
    run(TxId tx)
    {
        if (jobs_.at(tx).items.empty())
            finish(tx);
        else
            step(tx);
    }

    EventQueue &eq_;
    TxManager &txmgr_;

  private:
    friend class PtmAuditor;
    friend struct AuditTestAccess;

    struct Job
    {
        bool isCommit = false;
        std::vector<Item> items;
        std::size_t next = 0;
        Tick startTick = 0;
        unsigned shard = 0;
    };

    /**
     * Chaos hook: a polled delay may hold the walk's start back. While
     * it is pending the overflow structures are untouched, so conflict
     * checks keep stalling behind the Committing/Aborting state — the
     * delay stretches exactly the window where stale metadata could be
     * observed.
     */
    void
    schedule(TxId tx, bool is_commit)
    {
        if (Tick delay = chaos_->cleanupDelay()) {
            pending_[tx] = is_commit;
            eq_.scheduleIn(delay, EventPriority::Supervisor,
                           [this, tx] { startPending(tx); });
        } else {
            startCleanup(tx, is_commit);
        }
    }

    /** Start @p tx's delayed walk, unless finishNow() already did. */
    void
    startPending(TxId tx)
    {
        if (bool *is_c = pending_.find(tx)) {
            bool c = *is_c;
            pending_.erase(tx);
            startCleanup(tx, c);
        }
    }

    /** Charge the next item on the supervisor timeline and apply it
     *  when the step completes. */
    void
    step(TxId tx)
    {
        Job &job = jobs_.at(tx);
        Tick t = std::max(eq_.curTick(), free_[job.shard]);
        Tick done = stepCost(tx, job.isCommit, job.items[job.next], t);
        free_[job.shard] = done;
        prof_->charge(job.isCommit ? ProfCharge::CommitCleanup
                                   : ProfCharge::AbortCleanup,
                      done - t);
        eq_.schedule(done, EventPriority::Supervisor, [this, tx] {
            Job *j = jobs_.find(tx);
            if (!j)
                return; // walk already forced by finishNow()
            applyStep(tx, j->isCommit, j->items[j->next]);
            if (++j->next == j->items.size())
                finish(tx);
            else
                step(tx);
        });
    }

    /** Force @p tx's cleanup (a delayed start included) to completion
     *  now; no-op if it has none in flight. */
    void
    finishNow(TxId tx)
    {
        startPending(tx); // may finish synchronously (no overflow)
        Job *j = jobs_.find(tx);
        if (!j)
            return;
        for (; j->next < j->items.size(); ++j->next)
            applyStep(tx, j->isCommit, j->items[j->next]);
        finish(tx);
    }

    /** Close @p tx's walk and report its cleanup done. */
    void
    finish(TxId tx)
    {
        const Job &job = jobs_.at(tx);
        (job.isCommit ? commitCleanupLatency : abortCleanupLatency)
            .sample(double(eq_.curTick() - job.startTick));
        tracer_->record(TraceEventType::WalkEnd, traceNoId, traceNoId,
                        tx, invalidTxId, job.isCommit ? 1 : 0,
                        job.items.size());
        jobs_.erase(tx);
        Transaction *txn = txmgr_.get(tx);
        if (txn && txn->overflowed) {
            panic_if(overflowed_live_ == 0, "overflow count underflow");
            --overflowed_live_;
        }
        txmgr_.cleanupDone(tx);
    }

    /** finishNow() each transaction @p pick selects, in id order (ids
     *  first: cleanupDone can cascade). */
    template <typename Pred>
    void
    drain(Pred pick)
    {
        std::vector<TxId> ids;
        for (const Transaction *tx : txmgr_.txTable())
            if (pick(*tx))
                ids.push_back(tx->id);
        for (TxId id : ids)
            finishNow(id);
    }

    /** Per-shard supervisor timelines (the tick each is free). */
    std::vector<Tick> free_;
    FlatMap<TxId, Job> jobs_;
    /** Starts a chaos delay is holding (value: is_commit). */
    FlatMap<TxId, bool> pending_;
    unsigned overflowed_live_ = 0;
};

} // namespace ptm

#endif // PTM_TX_SUPERVISOR_WALK_HH
