/**
 * @file
 * C++20 coroutine plumbing for simulated thread code.
 *
 * Workload code (transaction bodies, non-transactional stretches, lock
 * critical sections) is written as ordinary-looking C++ coroutines that
 * co_await memory operations:
 *
 * @code
 *     TxCoro
 *     body(MemCtx m, Work w)
 *     {
 *         for (unsigned i = 0; i < w.n; ++i) {
 *             std::uint64_t v = co_await m.load(w.src + 8 * i);
 *             co_await m.store(w.dst + 8 * i, v * 3 + 1);
 *         }
 *     }
 * @endcode
 *
 * The simulated core pulls one MemYield at a time out of the coroutine,
 * models its timing through the memory system, and resumes the
 * coroutine with the load result. Aborting a transaction destroys the
 * coroutine and re-invokes its factory — that is the register-
 * checkpoint restore of the modeled hardware: all architectural state a
 * transaction body keeps lives in the coroutine frame.
 */

#ifndef PTM_CPU_CORO_HH
#define PTM_CPU_CORO_HH

#include <coroutine>
#include <cstdint>
#include <functional>
#include <utility>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace ptm
{

/** Kinds of operations a thread coroutine can yield to the core. */
enum class OpKind
{
    Load,    //!< read one word
    Store,   //!< write one word
    Cas,     //!< atomic compare-and-swap of one word
    Compute, //!< burn @c cycles of pure computation
};

/** One operation requested by a thread coroutine. */
struct MemYield
{
    OpKind kind = OpKind::Compute;
    Addr vaddr = 0;
    /** Store value, or CAS swap value. */
    std::uint64_t value = 0;
    /** CAS expected value. */
    std::uint64_t expected = 0;
    /** Compute duration. */
    Tick cycles = 0;
};

/**
 * A suspendable piece of simulated thread code. The coroutine is
 * "lazy": nothing runs until the core first calls resume().
 */
class TxCoro
{
  public:
    struct promise_type
    {
        /**
         * Operation the coroutine is currently suspended on: the op
         * of the suspended OpAwaiter, which lives in the coroutine
         * frame until the resume, so the op is handed over without a
         * copy.
         */
        const MemYield *pending = nullptr;
        /** Result to deliver to the suspended co_await (load/CAS). */
        std::uint64_t result = 0;
        bool finished = false;

        /** Sub-coroutine linkage: thread code can co_await another
         *  TxCoro (e.g. a spinlock helper); operations of the deepest
         *  active coroutine bubble up to the core. */
        std::coroutine_handle<promise_type> parent;
        std::coroutine_handle<promise_type> child;

        TxCoro
        get_return_object()
        {
            return TxCoro(
                std::coroutine_handle<promise_type>::from_promise(
                    *this));
        }

        std::suspend_always initial_suspend() noexcept { return {}; }

        /** On completion, transfer control back to the awaiting
         *  parent coroutine (if any). */
        struct FinalAwaiter
        {
            bool await_ready() const noexcept { return false; }

            std::coroutine_handle<>
            await_suspend(
                std::coroutine_handle<promise_type> h) noexcept
            {
                auto parent = h.promise().parent;
                if (parent) {
                    parent.promise().child = nullptr;
                    return parent;
                }
                return std::noop_coroutine();
            }

            void await_resume() const noexcept {}
        };

        FinalAwaiter
        final_suspend() noexcept
        {
            finished = true;
            return {};
        }

        void return_void() {}

        void
        unhandled_exception()
        {
            panic("exception escaped a simulated thread coroutine");
        }
    };

    /** Awaiter produced by MemCtx operations. */
    struct OpAwaiter
    {
        MemYield op;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<promise_type> h) noexcept
        {
            h.promise().pending = &op;
            handle = h;
        }

        std::uint64_t
        await_resume() const noexcept
        {
            return handle.promise().result;
        }

        std::coroutine_handle<promise_type> handle;
    };

    TxCoro() = default;

    explicit TxCoro(std::coroutine_handle<promise_type> h) : h_(h) {}

    TxCoro(TxCoro &&o) noexcept : h_(std::exchange(o.h_, nullptr)) {}

    TxCoro &
    operator=(TxCoro &&o) noexcept
    {
        if (this != &o) {
            destroy();
            h_ = std::exchange(o.h_, nullptr);
        }
        return *this;
    }

    TxCoro(const TxCoro &) = delete;
    TxCoro &operator=(const TxCoro &) = delete;

    ~TxCoro() { destroy(); }

    /** True if a live, unfinished coroutine is held. */
    bool
    runnable() const
    {
        return h_ && !h_.done();
    }

    /** True if the coroutine ran to completion. */
    bool
    done() const
    {
        return !h_ || h_.done();
    }

    /**
     * Resume execution, delivering @p value to the co_await the
     * coroutine is suspended on (ignored at first resume). When the
     * program is nested in sub-coroutines, the deepest active one
     * receives the value and produces the next operation.
     * @return pointer to the next pending operation (valid until the
     *         next resume or destroy), or nullptr if the coroutine
     *         finished.
     */
    const MemYield *
    resume(std::uint64_t value = 0)
    {
        panic_if(!h_ || h_.done(), "resuming a finished coroutine");
        auto leaf = deepest();
        leaf.promise().result = value;
        leaf.resume();
        if (h_.done())
            return nullptr;
        return deepest().promise().pending;
    }

    /**
     * Awaiting a TxCoro from inside another runs it as a
     * sub-coroutine: its memory operations flow to the core as if
     * inlined. The awaited coroutine must be freshly created.
     */
    struct SubAwaiter
    {
        std::coroutine_handle<promise_type> sub;

        bool
        await_ready() const noexcept
        {
            return !sub || sub.done();
        }

        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<promise_type> h) noexcept
        {
            sub.promise().parent = h;
            h.promise().child = sub;
            return sub; // start the sub-coroutine immediately
        }

        void await_resume() const noexcept {}
    };

    SubAwaiter
    operator co_await() &&
    {
        return SubAwaiter{h_};
    }

    /** Destroy the coroutine frame (abort / cleanup). */
    void
    destroy()
    {
        if (h_) {
            h_.destroy();
            h_ = nullptr;
        }
    }

  private:
    /** Deepest active coroutine of the await chain rooted here. */
    std::coroutine_handle<promise_type>
    deepest() const
    {
        auto h = h_;
        while (h.promise().child && !h.promise().child.done())
            h = h.promise().child;
        return h;
    }

    std::coroutine_handle<promise_type> h_;
};

/**
 * Interface through which coroutine bodies issue simulated operations.
 * Stateless; it only builds awaiters.
 */
class MemCtx
{
  public:
    /** Read the 8-byte word at @p vaddr. */
    TxCoro::OpAwaiter
    load(Addr vaddr) const
    {
        return {MemYield{OpKind::Load, vaddr, 0, 0, 0}, {}};
    }

    /** Write @p value to the 8-byte word at @p vaddr. */
    TxCoro::OpAwaiter
    store(Addr vaddr, std::uint64_t value) const
    {
        return {MemYield{OpKind::Store, vaddr, value, 0, 0}, {}};
    }

    /**
     * Atomic compare-and-swap: if the word at @p vaddr equals
     * @p expected, write @p value. The awaited result is the value
     * observed before the swap (== @p expected on success).
     */
    TxCoro::OpAwaiter
    cas(Addr vaddr, std::uint64_t expected, std::uint64_t value) const
    {
        return {MemYield{OpKind::Cas, vaddr, value, expected, 0}, {}};
    }

    /** Spend @p cycles of computation without touching memory. */
    TxCoro::OpAwaiter
    compute(Tick cycles) const
    {
        return {MemYield{OpKind::Compute, 0, 0, 0, cycles}, {}};
    }
};

/** Factory that (re)creates a coroutine body; re-invoked after abort. */
using CoroFactory = std::function<TxCoro(MemCtx)>;

} // namespace ptm

#endif // PTM_CPU_CORO_HH
