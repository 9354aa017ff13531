/**
 * @file
 * fft kernel: the transpose-heavy phase structure of SPLASH-2 FFT.
 *
 * R rounds of (row-local butterfly into B) -> (transpose back into A),
 * with barriers between half-phases. In Tx mode each thread's
 * half-phase is one large transaction — the few-large-transactions
 * profile of Table 1's fft row — plus a global checksum update at the
 * end of every transpose transaction, which provides the paper's small
 * abort count.
 */

#include "locks/spinlock.hh"
#include "workloads/workload.hh"

namespace ptm
{

class FftWorkload : public Workload
{
  public:
    explicit FftWorkload(const WorkloadConfig &cfg) : Workload(cfg)
    {
        // Default size makes one thread's half-phase footprint
        // (2 * n^2 / threads words) exceed the 256 KB L2, so fft
        // overflows like the paper's (Table 1: mop/evict 87).
        bool tiny = cfg.options.u64("scale") == 0;
        n_ = tiny ? 48 : 384;
        rounds_ = tiny ? 2 : 3;
    }

    const char *name() const override { return "fft"; }

    void
    build(System &sys) override
    {
        proc_ = sys.createProcess();
        barrier_ = sys.createBarrier(cfg_.threads);

        for (unsigned t = 0; t < cfg_.threads; ++t) {
            unsigned r0 = t * n_ / cfg_.threads;
            unsigned r1 = (t + 1) * n_ / cfg_.threads;
            std::vector<Step> steps;

            // Parallel initialization of the thread's rows, plus the
            // read-only input array (touched by transactions but never
            // transactionally written: it keeps Table 1's conservative
            // shadow-page bound below 100%).
            steps.push_back(PlainStep{[this, r0, r1](MemCtx m) -> TxCoro {
                for (unsigned i = r0; i < r1; ++i)
                    for (unsigned j = 0; j < n_; ++j) {
                        co_await m.store(
                            a(i, j),
                            mixHash(std::uint64_t(i) * n_ + j +
                                    cfg_.seed));
                        co_await m.store(
                            in(i, j),
                            mixHash(std::uint64_t(i) * n_ + j +
                                    cfg_.seed * 3 + 1));
                    }
            }});
            pushBarrier(steps, barrier_);

            for (unsigned r = 0; r < rounds_; ++r) {
                // Butterfly half-phase: row-local, conflict-free.
                steps.push_back(
                    work([this, r0, r1](MemCtx m) -> TxCoro {
                        for (unsigned i = r0; i < r1; ++i) {
                            for (unsigned j = 0; j < n_; ++j) {
                                std::uint32_t x =
                                    std::uint32_t(co_await m.load(
                                        a(i, j)));
                                std::uint32_t y =
                                    std::uint32_t(co_await m.load(
                                        a(i, j ^ 1)));
                                std::uint32_t w =
                                    std::uint32_t(co_await m.load(
                                        in(i, j)));
                                co_await m.store(
                                    b(i, j),
                                    x * 5 + (y ^ 0x9e37) + w);
                            }
                        }
                    }));
                pushBarrier(steps, barrier_);

                // Transpose half-phase: writes columns of A; the
                // final checksum store races with the other threads'
                // transposes (a short conflict window).
                steps.push_back(
                    work([this, r0, r1](MemCtx m) -> TxCoro {
                        std::uint32_t local = 0;
                        for (unsigned i = r0; i < r1; ++i) {
                            for (unsigned j = 0; j < n_; ++j) {
                                std::uint32_t x =
                                    std::uint32_t(co_await m.load(
                                        b(i, j)));
                                std::uint32_t v = x * 3 + 1;
                                co_await m.store(a(j, i), v);
                                local += v;
                            }
                        }
                        if (cfg_.mode == SyncMode::Locks)
                            co_await spinLock(m, ckLock());
                        std::uint64_t ck = co_await m.load(ckAddr());
                        co_await m.store(
                            ckAddr(), std::uint32_t(ck) + local);
                        if (cfg_.mode == SyncMode::Locks)
                            co_await spinUnlock(m, ckLock());
                    }));
                pushBarrier(steps, barrier_);
            }
            sys.addThread(proc_, std::move(steps), "fft");
        }
    }

    bool
    verify(System &sys) const override
    {
        // Host reference.
        std::vector<std::uint32_t> A(n_ * n_), B(n_ * n_), IN(n_ * n_);
        for (unsigned i = 0; i < n_; ++i) {
            for (unsigned j = 0; j < n_; ++j) {
                A[i * n_ + j] =
                    mixHash(std::uint64_t(i) * n_ + j + cfg_.seed);
                IN[i * n_ + j] = mixHash(std::uint64_t(i) * n_ + j +
                                         cfg_.seed * 3 + 1);
            }
        }
        std::uint32_t ck = 0;
        for (unsigned r = 0; r < rounds_; ++r) {
            for (unsigned i = 0; i < n_; ++i)
                for (unsigned j = 0; j < n_; ++j)
                    B[i * n_ + j] = A[i * n_ + j] * 5 +
                                    (A[i * n_ + (j ^ 1)] ^ 0x9e37) +
                                    IN[i * n_ + j];
            for (unsigned i = 0; i < n_; ++i) {
                for (unsigned j = 0; j < n_; ++j) {
                    std::uint32_t v = B[i * n_ + j] * 3 + 1;
                    A[j * n_ + i] = v;
                    ck += v;
                }
            }
        }

        for (unsigned i = 0; i < n_; ++i)
            for (unsigned j = 0; j < n_; ++j)
                if (sys.readWord32(proc_, a(i, j)) != A[i * n_ + j])
                    return false;
        return sys.readWord32(proc_, ckAddr()) == ck;
    }

  private:
    Addr
    a(unsigned i, unsigned j) const
    {
        return 0x10000000 + (Addr(i) * n_ + j) * 4;
    }

    Addr
    b(unsigned i, unsigned j) const
    {
        return 0x20000000 + (Addr(i) * n_ + j) * 4;
    }

    Addr
    in(unsigned i, unsigned j) const
    {
        return 0x28000000 + (Addr(i) * n_ + j) * 4;
    }

    Addr ckAddr() const { return 0x30000000; }
    Addr ckLock() const { return 0x30001000; }

    unsigned n_;
    unsigned rounds_;
    ProcId proc_ = 0;
    unsigned barrier_ = 0;
};

WorkloadInfo
fftWorkload()
{
    return {"fft",
            "1D FFT phases with all-to-all transposes (overflow-heavy)",
            {scaleOption()},
            [](const WorkloadConfig &cfg) -> std::unique_ptr<Workload> {
                return std::make_unique<FftWorkload>(cfg);
            },
            /*paperKernel=*/true};
}

} // namespace ptm
