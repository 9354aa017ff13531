/**
 * @file
 * Unit tests for the transaction manager: T-State transitions,
 * flattened nesting, oldest-wins arbitration, non-transactional
 * priority, ordered-commit sequencing, abort-restart identity, and
 * hook invocation order.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "tx/tm_backend.hh"
#include "tx/tx_manager.hh"

namespace ptm
{
namespace
{

/** A backend whose commit/abort cleanup is a test's hook. */
struct HookBackend : TmBackend
{
    std::function<void(TxId)> onCommit = [](TxId) {};
    std::function<void(TxId)> onAbort = [](TxId) {};

    void commitTx(TxId tx) override { onCommit(tx); }
    void abortTx(TxId tx) override { onAbort(tx); }
    bool anyOverflow() const override { return false; }
    CheckResult checkAccess(const BlockAccess &) override { return {}; }
    Tick
    fillBlock(Addr, TxId, std::uint8_t *, std::uint16_t &,
              std::vector<TxMark> &) override
    {
        return 0;
    }
    bool mayGrantExclusive(Addr, TxId) override { return true; }
    Tick
    evictTxBlock(Addr, TxId, bool, const std::uint8_t *, std::uint16_t,
                 std::uint16_t) override
    {
        return 0;
    }
    Tick
    writebackBlock(Addr, const std::uint8_t *, std::uint16_t) override
    {
        return 0;
    }
    std::uint32_t readCommittedWord32(Addr) override { return 0; }
    void drainThreadCleanups(ThreadId) override {}
    void drainAllCleanups() override {}
};

TEST(TxManager, BeginCommitLifecycle)
{
    TxManager m;
    TxId t = m.begin(/*thread=*/0, /*proc=*/0, /*now=*/10);
    EXPECT_NE(t, invalidTxId);
    EXPECT_TRUE(m.isLive(t));
    EXPECT_EQ(m.liveCount(), 1u);
    EXPECT_EQ(m.requestCommit(t), CommitResult::Done);
    // No backend: cleanup completes synchronously.
    EXPECT_EQ(m.stateOf(t), TxState::Committed);
    EXPECT_EQ(m.commits.value(), 1u);
    EXPECT_EQ(m.liveCount(), 0u);
}

TEST(TxManager, NestingFlattens)
{
    TxManager m;
    TxId outer = m.begin(0, 0, 0);
    TxId inner = m.begin(0, 0, 5);
    EXPECT_EQ(inner, outer);
    EXPECT_EQ(m.nestedBegins.value(), 1u);
    // Inner end only decrements the depth.
    EXPECT_EQ(m.requestCommit(outer), CommitResult::Done);
    EXPECT_EQ(m.stateOf(outer), TxState::Running);
    // Outer end commits for real.
    EXPECT_EQ(m.requestCommit(outer), CommitResult::Done);
    EXPECT_EQ(m.stateOf(outer), TxState::Committed);
}

TEST(TxManager, AbortAndRestartKeepIdentity)
{
    TxManager m;
    TxId t = m.begin(3, 0, 0);
    std::uint64_t age = m.get(t)->age;
    m.abort(t, AbortReason::ConflictLost);
    EXPECT_EQ(m.stateOf(t), TxState::Aborted);
    EXPECT_EQ(m.aborts.value(), 1u);
    m.restart(t, 100);
    EXPECT_TRUE(m.isLive(t));
    EXPECT_EQ(m.get(t)->age, age) << "restart keeps the original age";
    EXPECT_EQ(m.get(t)->attempts, 2u);
}

TEST(TxManager, AbortIsIdempotentWhileCleaning)
{
    TxManager m;
    TxId t = m.begin(0, 0, 0);
    m.abort(t, AbortReason::ConflictLost);
    m.abort(t, AbortReason::ConflictLost); // no effect
    EXPECT_EQ(m.aborts.value(), 1u);
}

TEST(TxManager, OldestWinsArbitration)
{
    TxManager m;
    TxId older = m.begin(0, 0, 0);
    TxId younger = m.begin(1, 0, 5);

    // Younger requester loses against the older transaction.
    EXPECT_FALSE(m.resolveConflicts(younger, {older}));
    EXPECT_EQ(m.stateOf(younger), TxState::Aborted);
    EXPECT_TRUE(m.isLive(older));

    m.restart(younger, 50);
    // Older requester wins; younger aborts.
    EXPECT_TRUE(m.resolveConflicts(older, {younger}));
    EXPECT_EQ(m.stateOf(younger), TxState::Aborted);
}

TEST(TxManager, NonTransactionalAlwaysWins)
{
    TxManager m;
    TxId t1 = m.begin(0, 0, 0);
    TxId t2 = m.begin(1, 0, 1);
    EXPECT_TRUE(m.resolveConflicts(invalidTxId, {t1, t2}));
    EXPECT_EQ(m.stateOf(t1), TxState::Aborted);
    EXPECT_EQ(m.stateOf(t2), TxState::Aborted);
    EXPECT_EQ(m.abortsNonTx.value(), 2u);
}

TEST(TxManager, OrderedCommitSequencing)
{
    TxManager m;
    std::vector<TxId> woken;
    m.wakeOrderedCommit = [&](TxId tx, ThreadId) {
        woken.push_back(tx);
    };
    std::uint32_t scope = m.createOrderedScope();
    TxId t0 = m.begin(0, 0, 0, true, scope, 0);
    TxId t1 = m.begin(1, 0, 1, true, scope, 1);
    TxId t2 = m.begin(2, 0, 2, true, scope, 2);

    // Out-of-order commit requests wait for the token.
    EXPECT_EQ(m.requestCommit(t2), CommitResult::WaitOrdered);
    EXPECT_EQ(m.requestCommit(t1), CommitResult::WaitOrdered);
    EXPECT_EQ(m.orderedWaits.value(), 2u);

    // Rank 0 commits and hands the token to rank 1.
    EXPECT_EQ(m.requestCommit(t0), CommitResult::Done);
    ASSERT_EQ(woken.size(), 1u);
    EXPECT_EQ(woken[0], t1);

    // The woken transaction retries and passes the token onward.
    EXPECT_EQ(m.requestCommit(t1), CommitResult::Done);
    ASSERT_EQ(woken.size(), 2u);
    EXPECT_EQ(woken[1], t2);
    EXPECT_EQ(m.requestCommit(t2), CommitResult::Done);
}

TEST(TxManager, OrderedAgeFollowsRankNotBeginOrder)
{
    TxManager m;
    std::uint32_t scope = m.createOrderedScope();
    // Rank 1 begins before rank 0 (threads race), yet rank 0 must be
    // the "older" transaction for arbitration.
    TxId r1 = m.begin(0, 0, 0, true, scope, 1);
    TxId r0 = m.begin(1, 0, 5, true, scope, 0);
    EXPECT_LT(m.get(r0)->age, m.get(r1)->age);
}

TEST(TxManager, AbortedOrderedWaiterLeavesQueue)
{
    TxManager m;
    std::vector<TxId> woken;
    m.wakeOrderedCommit = [&](TxId tx, ThreadId) {
        woken.push_back(tx);
    };
    std::uint32_t scope = m.createOrderedScope();
    TxId t0 = m.begin(0, 0, 0, true, scope, 0);
    TxId t1 = m.begin(1, 0, 1, true, scope, 1);
    EXPECT_EQ(m.requestCommit(t1), CommitResult::WaitOrdered);
    m.abort(t1, AbortReason::ConflictLost);
    // t0's commit must not wake the aborted waiter.
    EXPECT_EQ(m.requestCommit(t0), CommitResult::Done);
    EXPECT_TRUE(woken.empty());
}

TEST(TxManager, HookOrderOnAbort)
{
    TxManager m;
    HookBackend backend;
    m.setBackend(&backend);
    std::vector<std::string> order;
    m.onLogicalAbort = [&](TxId) { order.push_back("invalidate"); };
    m.notifyAborted = [&](TxId, ThreadId, AbortReason) {
        order.push_back("notify");
    };
    backend.onAbort = [&](TxId tx) {
        order.push_back("backend");
        m.cleanupDone(tx);
    };
    m.notifyAbortComplete = [&](TxId, ThreadId) {
        order.push_back("complete");
    };
    TxId t = m.begin(0, 0, 0);
    m.abort(t, AbortReason::Explicit);
    ASSERT_EQ(order.size(), 4u);
    // Caches are scrubbed before the thread learns about the abort,
    // and cleanup completion arrives last.
    EXPECT_EQ(order[0], "invalidate");
    EXPECT_EQ(order[1], "notify");
    EXPECT_EQ(order[2], "backend");
    EXPECT_EQ(order[3], "complete");
}

TEST(TxManager, CommittingTransactionCannotBeAborted)
{
    TxManager m;
    bool cleanup_pending = true;
    HookBackend backend; // cleanup stays pending
    m.setBackend(&backend);
    TxId t = m.begin(0, 0, 0);
    EXPECT_EQ(m.requestCommit(t), CommitResult::Done);
    EXPECT_EQ(m.stateOf(t), TxState::Committing);
    m.abort(t, AbortReason::ConflictLost); // must be a no-op
    EXPECT_EQ(m.stateOf(t), TxState::Committing);
    EXPECT_EQ(m.aborts.value(), 0u);
    (void)cleanup_pending;
    m.cleanupDone(t);
    EXPECT_EQ(m.stateOf(t), TxState::Committed);
}

} // namespace
} // namespace ptm
