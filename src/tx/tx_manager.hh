/**
 * @file
 * Global transaction manager.
 *
 * Owns the T-State table, assigns sequential transaction identifiers,
 * flattens nesting, arbitrates conflicts (oldest wins), and sequences
 * ordered-transaction commits. A logical commit/abort fans out to the
 * cache flash-clears through hooks and starts the unbounded-TM
 * backend's background TAV/XADT cleanup through its commitTx()/
 * abortTx().
 */

#ifndef PTM_TX_TX_MANAGER_HH
#define PTM_TX_TX_MANAGER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "sim/types.hh"
#include "tx/transaction.hh"

namespace ptm
{

struct AuditTestAccess;
class TmBackend;

/** Why a transaction was aborted (statistics / traces). */
enum class AbortReason
{
    /** Lost eager arbitration to an older transaction. */
    ConflictLost,
    /** Conflicted with a non-transactional access (always aborts). */
    NonTxConflict,
    /**
     * wd:cache mode: a block written at word granularity by several
     * transactions was evicted, but the overflow structures track only
     * one writer per block (section 6.3).
     */
    MultiWriterEviction,
    /** Explicit abort from the workload (failure injection in tests). */
    Explicit,
};

/** Result of a commit request. */
enum class CommitResult
{
    /** Logically committed; execution may continue. */
    Done,
    /** Ordered transaction must wait for its predecessor. */
    WaitOrdered,
};

/**
 * The transaction manager. One instance per simulated system.
 */
class TxManager
{
  public:
    TxManager() = default;

    /** @name Hooks (wired by System construction) */
    /// @{
    /** Invoked at logical commit: flash-clear tx bits in caches etc. */
    std::function<void(TxId)> onLogicalCommit;
    /** Invoked at logical abort: invalidate speculative lines etc. */
    std::function<void(TxId)> onLogicalAbort;
    /** Notify the owning thread that its transaction aborted. */
    std::function<void(TxId, ThreadId, AbortReason)> notifyAborted;
    /**
     * Notify the owning thread that abort cleanup finished and the
     * transaction may be restarted (Copy-PTM restores must complete
     * before re-execution can observe home-page data).
     */
    std::function<void(TxId, ThreadId)> notifyAbortComplete;
    /** Wake an ordered transaction whose turn to commit arrived. */
    std::function<void(TxId, ThreadId)> wakeOrderedCommit;
    /// @}

    /**
     * Enter a transaction on @p thread. If the thread already runs a
     * transaction, nesting is flattened: the depth is bumped and the
     * existing id returned.
     *
     * @param ordered whether this is an ordered transaction
     * @param scope   ordered scope identifier
     * @param rank    program-defined commit rank within the scope
     * @return the (new or enclosing) transaction id
     */
    TxId begin(ThreadId thread, ProcId proc, Tick now,
               bool ordered = false, std::uint32_t scope = 0,
               std::uint64_t rank = 0);

    /**
     * Restart an aborted transaction: same id, same age, next attempt.
     * Only legal once the previous attempt reached TxState::Aborted.
     */
    void restart(TxId id, Tick now);

    /**
     * Leave the innermost transactional scope of @p id. If nesting
     * remains, just decrements the depth and reports Done. For the
     * outermost end of an ordered transaction whose turn has not come,
     * reports WaitOrdered (the core blocks; wakeOrderedCommit fires
     * later). Otherwise performs the logical commit.
     */
    CommitResult requestCommit(TxId id);

    /**
     * Logically abort @p id (arbitration loss, non-transactional
     * conflict, or explicit). Idempotent while cleanup is pending.
     * @p where is the conflicting address (invalidAddr when none is
     * attributable, e.g. chaos injection) and @p winner the transaction
     * that won the conflict (invalidTxId when there is no transactional
     * winner); both ride in the TxAbort record for the observers.
     */
    void abort(TxId id, AbortReason why, Addr where = invalidAddr,
               TxId winner = invalidTxId);

    /**
     * Backend finished draining overflow state of @p id; transitions
     * Committing->Committed / Aborting->Aborted and, for ordered
     * commits, hands the commit token to the successor.
     */
    void cleanupDone(TxId id);

    /**
     * Arbitrate a conflict between the requesting access and the set of
     * conflicting live transactions. The oldest contender wins; all
     * younger transactions in @p conflicting are aborted. A
     * non-transactional requester (@p requester == invalidTxId) always
     * wins (section 2.3.3).
     *
     * Emits one winner->loser ConflictEdge trace event per aborted
     * contender; @p where (the conflicting block address, 0 if
     * unknown) is carried in the edge payload.
     *
     * @return true if the requester survives (won or tied), false if
     *         the requester itself was aborted.
     */
    bool resolveConflicts(TxId requester,
                          const std::vector<TxId> &conflicting,
                          Addr where = 0);

    /** Create an ordered scope; commits inside it occur in rank order. */
    std::uint32_t createOrderedScope();

    /** Access a T-State entry (nullptr if unknown). */
    Transaction *
    get(TxId id)
    {
        return id - 1 < index_.size() ? index_[id - 1] : nullptr;
    }

    const Transaction *
    get(TxId id) const
    {
        return id - 1 < index_.size() ? index_[id - 1] : nullptr;
    }

    /** Current state of @p id, Invalid if unknown. */
    TxState
    stateOf(TxId id) const
    {
        const Transaction *tx = get(id);
        return tx ? tx->state : TxState::Invalid;
    }

    /** True if @p id is live (Running). */
    bool
    isLive(TxId id) const
    {
        return stateOf(id) == TxState::Running;
    }

    /** Number of transactions currently live. */
    unsigned liveCount() const { return live_count_; }

    /**
     * The whole T-State table in id order (auditor / chaos victim
     * selection / cleanup drains).
     */
    const std::vector<Transaction *> &txTable() const { return index_; }

    /** Configure the contention-robustness knobs (System wiring). */
    void setContention(const ContentionParams &p) { contention_ = p; }

    /**
     * Holder of the serialized starvation token (wins every
     * arbitration until it commits); invalidTxId when free.
     */
    TxId starvationHolder() const { return starvation_holder_; }

    /** Register this component's statistics under "tx". */
    void regStats(StatRegistry &reg);

    /** Attach the observer path (System wiring; defaults to nil). */
    void setTracer(Tracer *t) { tracer_ = t; }

    /** Attach the backend that cleans up after each logical commit
     *  or abort (System wiring); without one cleanup is instant. */
    void setBackend(TmBackend *b) { backend_ = b; }

    /**
     * Attach the simulation clock (System wiring) that stamps the
     * commit-latency distribution.
     */
    void setClock(std::function<Tick()> c) { clock_ = std::move(c); }

    /** @name Statistics */
    /// @{
    Counter commits;
    Counter aborts;
    /** @name Per-cause abort breakdown (sums to aborts) */
    /// @{
    Counter abortsConflict;    //!< lost eager arbitration
    Counter abortsNonTx;       //!< conflicted with a non-tx access
    Counter abortsMultiWriter; //!< multi-writer block eviction
    Counter abortsExplicit;    //!< workload-injected aborts
    /// @}
    Counter nestedBegins;
    Counter orderedWaits;
    /** Starvation-watchdog trips (N consecutive aborts of one tx). */
    Counter watchdogTrips;
    /** Serialized starvation-token grants (escalations). */
    Counter starvationGrants;
    /**
     * End-to-end latency of committed transactions in ticks (first
     * begin to logical commit, aborted attempts included); the
     * source of the p50/p95/p99 figures of bench_kv.
     */
    Distribution commitLatency{0, 1048576, 1024};
    /// @}

  private:
    friend struct AuditTestAccess;
    struct OrderedScope
    {
        std::uint64_t nextRank = 0;
        /** rank -> (txid) transactions blocked at tx_end. */
        std::unordered_map<std::uint64_t, TxId> waiters;
    };

    void doLogicalCommit(Transaction &tx);

    Tracer *tracer_ = &Tracer::nil();
    TmBackend *backend_ = nullptr;
    std::function<Tick()> clock_;
    /** T-State entries per storage chunk. */
    static constexpr std::size_t chunkTxs = 256;
    /** T-State storage in fixed-size chunks, so an entry's address
     *  stays stable as the table grows. */
    std::vector<std::unique_ptr<Transaction[]>> chunks_;
    /** Every transaction ever begun, indexed by id - 1 (ids are
     *  sequential from 1). */
    std::vector<Transaction *> index_;
    std::unordered_map<ThreadId, TxId> active_by_thread_;
    std::vector<OrderedScope> scopes_;
    std::uint64_t next_age_ = 1;
    unsigned live_count_ = 0;
    ContentionParams contention_;
    TxId starvation_holder_ = invalidTxId;
};

} // namespace ptm

#endif // PTM_TX_TX_MANAGER_HH
