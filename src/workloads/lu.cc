/**
 * @file
 * lu kernel: right-looking blocked dense factorization (SPLASH-2 LU's
 * loop structure) over wrapping 32-bit integers.
 *
 * Per step k: factor the diagonal block, update the perimeter blocks,
 * then update every interior block — each block update is one
 * transaction in Tx mode (many small, conflict-free transactions: the
 * high-commit / zero-abort profile of Table 1's lu row).
 */

#include "workloads/workload.hh"

namespace ptm
{

class LuWorkload : public Workload
{
  public:
    explicit LuWorkload(const WorkloadConfig &cfg) : Workload(cfg)
    {
        bsize_ = 16;
        // Benchmark size 256x256 (256 KB): the matrix exceeds one L2,
        // so lu streams and evicts like the paper's (mop/evict 95.3).
        nblocks_ = cfg.options.u64("scale") == 0 ? 4 : 16;
        n_ = bsize_ * nblocks_;
    }

    const char *name() const override { return "lu"; }

    void
    build(System &sys) override
    {
        proc_ = sys.createProcess();
        barrier_ = sys.createBarrier(cfg_.threads);

        // Build each thread's step list: the block updates of step k
        // are distributed round-robin.
        std::vector<std::vector<Step>> steps(cfg_.threads);

        for (unsigned t = 0; t < cfg_.threads; ++t) {
            unsigned r0 = t * n_ / cfg_.threads;
            unsigned r1 = (t + 1) * n_ / cfg_.threads;
            steps[t].push_back(
                PlainStep{[this, r0, r1](MemCtx m) -> TxCoro {
                    for (unsigned i = r0; i < r1; ++i)
                        for (unsigned j = 0; j < n_; ++j)
                            co_await m.store(
                                at(i, j),
                                mixHash(std::uint64_t(i) * n_ + j +
                                        cfg_.seed * 77));
                }});
            pushBarrier(steps[t], barrier_);
        }

        for (unsigned k = 0; k < nblocks_; ++k) {
            // Diagonal factorization: one transaction on one thread.
            steps[k % cfg_.threads].push_back(
                work([this, k](MemCtx m) -> TxCoro {
                    co_await factorDiag(m, k);
                }));
            for (unsigned t = 0; t < cfg_.threads; ++t)
                pushBarrier(steps[t], barrier_);

            // Perimeter updates.
            unsigned rr = 0;
            for (unsigned j = k + 1; j < nblocks_; ++j) {
                steps[rr++ % cfg_.threads].push_back(
                    work([this, k, j](MemCtx m) -> TxCoro {
                        co_await updateRow(m, k, j);
                    }));
                steps[rr++ % cfg_.threads].push_back(
                    work([this, k, j](MemCtx m) -> TxCoro {
                        co_await updateCol(m, k, j);
                    }));
            }
            for (unsigned t = 0; t < cfg_.threads; ++t)
                pushBarrier(steps[t], barrier_);

            // Interior updates (the bulk of the transactions).
            rr = 0;
            for (unsigned i = k + 1; i < nblocks_; ++i) {
                for (unsigned j = k + 1; j < nblocks_; ++j) {
                    steps[rr++ % cfg_.threads].push_back(
                        work([this, k, i, j](MemCtx m) -> TxCoro {
                            co_await updateInner(m, k, i, j);
                        }));
                }
            }
            for (unsigned t = 0; t < cfg_.threads; ++t)
                pushBarrier(steps[t], barrier_);
        }

        for (unsigned t = 0; t < cfg_.threads; ++t)
            sys.addThread(proc_, std::move(steps[t]), "lu");
    }

    bool
    verify(System &sys) const override
    {
        std::vector<std::uint32_t> A(n_ * n_);
        for (unsigned i = 0; i < n_; ++i)
            for (unsigned j = 0; j < n_; ++j)
                A[i * n_ + j] =
                    mixHash(std::uint64_t(i) * n_ + j + cfg_.seed * 77);
        auto el = [&](unsigned i, unsigned j) -> std::uint32_t & {
            return A[i * n_ + j];
        };
        for (unsigned k = 0; k < nblocks_; ++k) {
            unsigned base = k * bsize_;
            for (unsigned kk = 0; kk < bsize_; ++kk)
                for (unsigned i = kk + 1; i < bsize_; ++i)
                    for (unsigned j = kk + 1; j < bsize_; ++j)
                        el(base + i, base + j) -=
                            el(base + i, base + kk) *
                            el(base + kk, base + j);
            for (unsigned b = k + 1; b < nblocks_; ++b) {
                for (unsigned kk = 0; kk < bsize_; ++kk) {
                    for (unsigned i = 0; i < bsize_; ++i) {
                        for (unsigned j = kk + 1; j < bsize_; ++j) {
                            // row block (k, b)
                            el(base + j, b * bsize_ + i) -=
                                el(base + j, base + kk) *
                                el(base + kk, b * bsize_ + i);
                            // col block (b, k)
                            el(b * bsize_ + i, base + j) -=
                                el(b * bsize_ + i, base + kk) *
                                el(base + kk, base + j);
                        }
                    }
                }
            }
            for (unsigned bi = k + 1; bi < nblocks_; ++bi)
                for (unsigned bj = k + 1; bj < nblocks_; ++bj)
                    for (unsigned kk = 0; kk < bsize_; ++kk)
                        for (unsigned i = 0; i < bsize_; ++i)
                            for (unsigned j = 0; j < bsize_; ++j)
                                el(bi * bsize_ + i, bj * bsize_ + j) -=
                                    el(bi * bsize_ + i, base + kk) *
                                    el(base + kk, bj * bsize_ + j);
        }
        for (unsigned i = 0; i < n_; ++i)
            for (unsigned j = 0; j < n_; ++j)
                if (sys.readWord32(proc_, at(i, j)) != A[i * n_ + j])
                    return false;
        return true;
    }

  private:
    Addr
    at(unsigned i, unsigned j) const
    {
        return 0x10000000 + (Addr(i) * n_ + j) * 4;
    }

    /** In-block Gaussian elimination of diagonal block k. */
    TxCoro
    factorDiag(MemCtx m, unsigned k)
    {
        unsigned base = k * bsize_;
        for (unsigned kk = 0; kk < bsize_; ++kk) {
            for (unsigned i = kk + 1; i < bsize_; ++i) {
                std::uint32_t lik = std::uint32_t(
                    co_await m.load(at(base + i, base + kk)));
                for (unsigned j = kk + 1; j < bsize_; ++j) {
                    std::uint32_t ukj = std::uint32_t(
                        co_await m.load(at(base + kk, base + j)));
                    std::uint32_t v = std::uint32_t(
                        co_await m.load(at(base + i, base + j)));
                    co_await m.store(at(base + i, base + j),
                                     v - lik * ukj);
                }
            }
        }
    }

    /** Update row block (k, b) with the factored diagonal. */
    TxCoro
    updateRow(MemCtx m, unsigned k, unsigned b)
    {
        unsigned base = k * bsize_;
        for (unsigned kk = 0; kk < bsize_; ++kk) {
            for (unsigned j = kk + 1; j < bsize_; ++j) {
                std::uint32_t l = std::uint32_t(
                    co_await m.load(at(base + j, base + kk)));
                for (unsigned i = 0; i < bsize_; ++i) {
                    std::uint32_t u = std::uint32_t(co_await m.load(
                        at(base + kk, b * bsize_ + i)));
                    std::uint32_t v = std::uint32_t(co_await m.load(
                        at(base + j, b * bsize_ + i)));
                    co_await m.store(at(base + j, b * bsize_ + i),
                                     v - l * u);
                }
            }
        }
    }

    /** Update column block (b, k). */
    TxCoro
    updateCol(MemCtx m, unsigned k, unsigned b)
    {
        unsigned base = k * bsize_;
        for (unsigned kk = 0; kk < bsize_; ++kk) {
            for (unsigned j = kk + 1; j < bsize_; ++j) {
                std::uint32_t u = std::uint32_t(
                    co_await m.load(at(base + kk, base + j)));
                for (unsigned i = 0; i < bsize_; ++i) {
                    std::uint32_t l = std::uint32_t(co_await m.load(
                        at(b * bsize_ + i, base + kk)));
                    std::uint32_t v = std::uint32_t(co_await m.load(
                        at(b * bsize_ + i, base + j)));
                    co_await m.store(at(b * bsize_ + i, base + j),
                                     v - l * u);
                }
            }
        }
    }

    /** Interior block (bi, bj) -= col(bi,k) * row(k,bj). */
    TxCoro
    updateInner(MemCtx m, unsigned k, unsigned bi, unsigned bj)
    {
        unsigned base = k * bsize_;
        for (unsigned kk = 0; kk < bsize_; ++kk) {
            for (unsigned i = 0; i < bsize_; ++i) {
                std::uint32_t l = std::uint32_t(co_await m.load(
                    at(bi * bsize_ + i, base + kk)));
                for (unsigned j = 0; j < bsize_; ++j) {
                    std::uint32_t u = std::uint32_t(co_await m.load(
                        at(base + kk, bj * bsize_ + j)));
                    std::uint32_t v = std::uint32_t(co_await m.load(
                        at(bi * bsize_ + i, bj * bsize_ + j)));
                    co_await m.store(
                        at(bi * bsize_ + i, bj * bsize_ + j),
                        v - l * u);
                }
            }
        }
    }

    unsigned bsize_;
    unsigned nblocks_;
    unsigned n_;
    ProcId proc_ = 0;
    unsigned barrier_ = 0;
};

WorkloadInfo
luWorkload()
{
    return {"lu",
            "blocked dense LU factorization (streaming matrix updates)",
            {scaleOption()},
            [](const WorkloadConfig &cfg) -> std::unique_ptr<Workload> {
                return std::make_unique<LuWorkload>(cfg);
            },
            /*paperKernel=*/true};
}

} // namespace ptm
