/**
 * @file
 * TxManager implementation.
 */

#include "tx/tx_manager.hh"

#include "sim/logging.hh"
#include "tx/tm_backend.hh"

namespace ptm
{

void
TxManager::regStats(StatRegistry &reg)
{
    StatGroup &g = reg.addGroup("tx");
    g.addCounter("commits", &commits, "transactions committed");
    g.addCounter("aborts", &aborts, "transaction attempts aborted");
    g.addCounter("aborts_conflict", &abortsConflict,
                 "aborts after losing eager arbitration");
    g.addCounter("aborts_nontx", &abortsNonTx,
                 "aborts from non-transactional conflicts");
    g.addCounter("aborts_multiwriter", &abortsMultiWriter,
                 "aborts from multi-writer block evictions (wd:cache)");
    g.addCounter("aborts_explicit", &abortsExplicit,
                 "workload-injected explicit aborts");
    g.addCounter("nested_begins", &nestedBegins,
                 "nested tx_begins flattened into the outer tx");
    g.addCounter("ordered_waits", &orderedWaits,
                 "ordered commits that waited for the token");
    g.addCounter("watchdog_trips", &watchdogTrips,
                 "starvation-watchdog trips (N consecutive aborts)");
    g.addCounter("starvation_grants", &starvationGrants,
                 "serialized starvation-token grants");
    g.addDistribution("commit_latency", &commitLatency,
                      "committed-transaction latency in ticks "
                      "(first begin to logical commit)");
}

const char *
txStateName(TxState s)
{
    switch (s) {
      case TxState::Invalid:
        return "Invalid";
      case TxState::Running:
        return "Running";
      case TxState::Committing:
        return "Committing";
      case TxState::Aborting:
        return "Aborting";
      case TxState::Committed:
        return "Committed";
      case TxState::Aborted:
        return "Aborted";
    }
    return "?";
}

TxId
TxManager::begin(ThreadId thread, ProcId proc, Tick now, bool ordered,
                 std::uint32_t scope, std::uint64_t rank)
{
    auto active = active_by_thread_.find(thread);
    if (active != active_by_thread_.end()) {
        // Nested transaction: flatten into the outermost one.
        Transaction *outer = get(active->second);
        panic_if(!outer || !outer->live(),
                 "thread %u nesting into a non-live transaction",
                 thread);
        ++outer->nestDepth;
        ++nestedBegins;
        return outer->id;
    }

    TxId id = TxId(index_.size()) + 1;
    Transaction tx;
    tx.id = id;
    tx.state = TxState::Running;
    tx.thread = thread;
    tx.proc = proc;
    tx.nestDepth = 1;
    tx.ordered = ordered;
    tx.scope = scope;
    tx.rank = rank;
    tx.beginTick = now;
    tx.firstBeginTick = now;
    tx.attempts = 1;
    if (ordered) {
        panic_if(scope >= scopes_.size(), "unknown ordered scope %u",
                 scope);
        // Age reflects the program-defined order so that arbitration
        // and commit order agree (no ordered-commit deadlock).
        tx.age = (std::uint64_t(scope + 1) << 40) + rank;
    } else {
        tx.age = (next_age_++) << 40;
    }
    const std::size_t at = index_.size() % chunkTxs;
    if (at == 0)
        chunks_.push_back(std::make_unique<Transaction[]>(chunkTxs));
    chunks_.back()[at] = tx;
    index_.push_back(&chunks_.back()[at]);
    active_by_thread_[thread] = id;
    ++live_count_;
    tracer_->recordAt(now, TraceEventType::TxBegin, traceNoId, thread,
                      id, invalidTxId, 1, ordered ? 1 : 0, 0.0, proc);
    return id;
}

void
TxManager::restart(TxId id, Tick now)
{
    Transaction *tx = get(id);
    panic_if(!tx, "restarting unknown transaction %llu",
             (unsigned long long)id);
    panic_if(tx->state != TxState::Aborted,
             "restarting transaction %llu in state %s",
             (unsigned long long)id, txStateName(tx->state));
    tx->state = TxState::Running;
    tx->nestDepth = 1;
    tx->overflowed = false;
    tx->beginTick = now;
    ++tx->attempts;
    active_by_thread_[tx->thread] = id;
    ++live_count_;
    tracer_->recordAt(now, TraceEventType::TxRestart, traceNoId,
                      tx->thread, id, invalidTxId, tx->attempts);

    // Starvation/livelock watchdog: attempts - 1 is the number of
    // consecutive aborts this transaction has suffered. Trips are
    // observability only (stats + observers); escalation below changes
    // arbitration and is gated on an explicit retry budget.
    unsigned failures = tx->attempts - 1;
    if (contention_.watchdogThreshold && failures &&
        failures % contention_.watchdogThreshold == 0) {
        ++watchdogTrips;
        tracer_->recordAt(now, TraceEventType::WatchdogTrip, traceNoId,
                          tx->thread, id, invalidTxId, failures);
    }
    if (contention_.retryBudget && failures >= contention_.retryBudget &&
        starvation_holder_ == invalidTxId) {
        starvation_holder_ = id;
        ++starvationGrants;
        tracer_->recordAt(now, TraceEventType::StarvationGrant,
                          traceNoId, tx->thread, id, invalidTxId,
                          failures);
    }
}

CommitResult
TxManager::requestCommit(TxId id)
{
    Transaction *tx = get(id);
    panic_if(!tx || tx->state != TxState::Running,
             "commit request for non-running transaction %llu",
             (unsigned long long)id);

    if (tx->nestDepth > 1) {
        --tx->nestDepth;
        return CommitResult::Done;
    }

    if (tx->ordered) {
        OrderedScope &sc = scopes_[tx->scope];
        if (sc.nextRank != tx->rank) {
            sc.waiters[tx->rank] = id;
            ++orderedWaits;
            return CommitResult::WaitOrdered;
        }
    }

    doLogicalCommit(*tx);
    return CommitResult::Done;
}

void
TxManager::doLogicalCommit(Transaction &tx)
{
    tx.state = TxState::Committing;
    tx.nestDepth = 0;
    active_by_thread_.erase(tx.thread);
    --live_count_;
    ++commits;
    if (tx.id == starvation_holder_)
        starvation_holder_ = invalidTxId; // token released by commit
    tracer_->record(TraceEventType::TxCommit, traceNoId, tx.thread,
                    tx.id, invalidTxId, 0, 0, 0.0, tx.beginTick);
    if (clock_)
        commitLatency.sample(double(clock_() - tx.firstBeginTick));

    if (onLogicalCommit)
        onLogicalCommit(tx.id);

    if (tx.ordered) {
        // The logical commit is the serialization point: hand the
        // commit token to the successor.
        OrderedScope &sc = scopes_[tx.scope];
        ++sc.nextRank;
        auto w = sc.waiters.find(sc.nextRank);
        if (w != sc.waiters.end()) {
            TxId succ = w->second;
            sc.waiters.erase(w);
            Transaction *stx = get(succ);
            if (stx && stx->live() && wakeOrderedCommit)
                wakeOrderedCommit(succ, stx->thread);
        }
    }

    // Backend cleanup may complete synchronously (no overflow) or
    // schedule background work ending in cleanupDone().
    if (backend_)
        backend_->commitTx(tx.id);
    else
        cleanupDone(tx.id);
}

void
TxManager::abort(TxId id, AbortReason why, Addr where, TxId winner)
{
    Transaction *tx = get(id);
    panic_if(!tx, "aborting unknown transaction %llu",
             (unsigned long long)id);
    if (tx->state != TxState::Running)
        return; // already committing/aborting; nothing to do

    tx->state = TxState::Aborting;
    tx->nestDepth = 0;
    active_by_thread_.erase(tx->thread);
    --live_count_;
    ++aborts;
    switch (why) {
      case AbortReason::ConflictLost:
        ++abortsConflict;
        break;
      case AbortReason::NonTxConflict:
        ++abortsNonTx;
        break;
      case AbortReason::MultiWriterEviction:
        ++abortsMultiWriter;
        break;
      case AbortReason::Explicit:
        ++abortsExplicit;
        break;
    }
    // Next to the per-cause counters (after the re-entry guard), so
    // observer per-cause sums reconcile with them exactly. Physical
    // page 0 is never allocated, so 0 is free to mean "no address".
    tracer_->record(TraceEventType::TxAbort, traceNoId, tx->thread, id,
                    winner, std::uint64_t(why),
                    where == invalidAddr ? 0 : where, 0.0, tx->beginTick);

    if (tx->ordered) {
        OrderedScope &sc = scopes_[tx->scope];
        auto w = sc.waiters.find(tx->rank);
        if (w != sc.waiters.end() && w->second == id)
            sc.waiters.erase(w);
    }

    if (onLogicalAbort)
        onLogicalAbort(id);
    if (notifyAborted)
        notifyAborted(id, tx->thread, why);
    if (backend_)
        backend_->abortTx(id);
    else
        cleanupDone(id);
}

void
TxManager::cleanupDone(TxId id)
{
    Transaction *tx = get(id);
    panic_if(!tx, "cleanupDone for unknown transaction %llu",
             (unsigned long long)id);
    if (tx->state == TxState::Committing) {
        tx->state = TxState::Committed;
    } else if (tx->state == TxState::Aborting) {
        tx->state = TxState::Aborted;
        if (notifyAbortComplete)
            notifyAbortComplete(id, tx->thread);
    } else {
        panic("cleanupDone for transaction %llu in state %s",
              (unsigned long long)id, txStateName(tx->state));
    }
}

bool
TxManager::resolveConflicts(TxId requester,
                            const std::vector<TxId> &conflicting,
                            Addr where)
{
    // Record a winner->loser edge; must run before abort(loser) so
    // the loser's thread is still resolvable.
    auto edge = [&](TxId winner, ThreadId wthread, TxId loser) {
        const Transaction *ltx = get(loser);
        tracer_->record(TraceEventType::ConflictEdge, traceNoId,
                        wthread, winner, loser, where,
                        ltx ? ltx->thread : traceNoId);
    };
    // 0 means "unknown" in the record payload; abort() takes
    // invalidAddr for that.
    Addr at = where ? where : invalidAddr;

    // Non-transactional accesses always win (section 2.3.3).
    if (requester == invalidTxId) {
        for (TxId c : conflicting) {
            if (isLive(c)) {
                edge(invalidTxId, traceNoId, c);
                abort(c, AbortReason::NonTxConflict, at);
            }
        }
        return true;
    }

    const Transaction *req = get(requester);
    panic_if(!req || !req->live(),
             "conflict resolution for non-live requester %llu",
             (unsigned long long)requester);

    // The starvation-token holder arbitrates as if it were the oldest
    // transaction in the system (effective age 0; real ages start at
    // 1 << 40). Non-transactional requesters still always win above.
    auto eff_age = [this](TxId id, std::uint64_t age) {
        return (starvation_holder_ != invalidTxId &&
                id == starvation_holder_)
                   ? std::uint64_t(0)
                   : age;
    };

    std::uint64_t min_age = eff_age(requester, req->age);
    TxId oldest = requester;
    for (TxId c : conflicting) {
        const Transaction *tx = get(c);
        if (tx && tx->live() && eff_age(c, tx->age) < min_age) {
            min_age = eff_age(c, tx->age);
            oldest = c;
        }
    }

    if (oldest == requester) {
        // Requester is the oldest: abort every live contender.
        for (TxId c : conflicting) {
            if (c != requester && isLive(c)) {
                edge(requester, req->thread, c);
                abort(c, AbortReason::ConflictLost, at, requester);
            }
        }
        return true;
    }

    const Transaction *win = get(oldest);
    edge(oldest, win ? win->thread : traceNoId, requester);
    abort(requester, AbortReason::ConflictLost, at, oldest);
    return false;
}

std::uint32_t
TxManager::createOrderedScope()
{
    scopes_.emplace_back();
    return std::uint32_t(scopes_.size() - 1);
}

} // namespace ptm
