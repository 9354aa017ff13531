/**
 * @file
 * Simulated software threads and their programs.
 *
 * A thread program is a sequence of steps. Each step is either a
 * transaction (ordered or unordered; its body coroutine is re-created
 * from the factory when the transaction aborts — the register
 * checkpoint restore), a plain non-transactional stretch, or a
 * barrier. Lock-based synchronization is expressed inside plain steps
 * with CAS spinlocks (see locks/spinlock.hh).
 */

#ifndef PTM_CPU_THREAD_HH
#define PTM_CPU_THREAD_HH

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "cpu/coro.hh"
#include "sim/types.hh"

namespace ptm
{

class Core;

/** A transactional step. */
struct TxStep
{
    CoroFactory body;
    bool ordered = false;
    /** Ordered scope handle (from TxManager::createOrderedScope). */
    std::uint32_t scope = 0;
    /** Program-defined commit rank within the scope. */
    std::uint64_t rank = 0;
};

/** A non-transactional step. */
struct PlainStep
{
    CoroFactory body;
};

/** Wait at OS barrier @c id until all participants arrive. */
struct BarrierStep
{
    unsigned id = 0;
};

using Step = std::variant<TxStep, PlainStep, BarrierStep>;

/** Scheduling state of a thread. */
enum class ThreadState
{
    Ready,       //!< runnable, waiting for a core
    Running,     //!< on a core
    WaitMem,     //!< a memory access is in flight
    WaitOrdered, //!< at tx_end, waiting for the commit token
    WaitAbort,   //!< aborted, waiting for cleanup before restart
    WaitBarrier, //!< parked at a barrier
    Done,        //!< program finished
};

/** One simulated thread. */
class ThreadCtx
{
  public:
    ThreadCtx(ThreadId id, ProcId proc, std::vector<Step> steps,
              std::string name = {})
        : id(id), proc(proc), name(std::move(name)),
          steps_(std::move(steps))
    {}

    const ThreadId id;
    const ProcId proc;
    const std::string name;

    ThreadState state = ThreadState::Ready;
    /** Core currently running (or parking) the thread. */
    Core *core = nullptr;

    /** Current transaction (invalidTxId outside transactions). */
    TxId curTx = invalidTxId;
    /** Live coroutine of the current step. */
    TxCoro coro;
    bool coroLive = false;

    /** Logical abort received; stop issuing and restart. */
    bool abortPending = false;
    /** Abort cleanup finished; restart may proceed. */
    bool abortCleanupDone = false;
    /** A load/CAS result awaits delivery to the coroutine. */
    bool hasPendingResume = false;
    std::uint64_t resumeValue = 0;
    /** tx_end issued; waiting to (re)try the commit. */
    bool commitPending = false;
    /**
     * Execution-attempt epoch, bumped on every abort restart. Core
     * continuation events capture it so that callbacks belonging to an
     * aborted attempt become no-ops instead of resuming the new one.
     */
    std::uint64_t epoch = 0;

    std::size_t stepIdx = 0;

    /** @name Per-thread statistics */
    /// @{
    std::uint64_t memOps = 0;
    std::uint64_t computeCycles = 0;
    std::uint64_t restarts = 0;
    /// @}

    bool
    finished() const
    {
        return stepIdx >= steps_.size();
    }

    const Step &
    currentStep() const
    {
        return steps_[stepIdx];
    }

  private:
    std::vector<Step> steps_;
};

} // namespace ptm

#endif // PTM_CPU_THREAD_HH
