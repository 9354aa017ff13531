/**
 * @file
 * ocean kernel: in-place red-black relaxation on a large grid
 * (SPLASH-2 OCEAN's dominant loop), the big-footprint / high-eviction
 * benchmark of Table 1.
 *
 * In Tx mode the chunks of an iteration run as ORDERED transactions
 * (section 2.2): the programmer is unsure about the cross-row
 * dependencies, wraps each chunk in an ordered transaction, and the
 * hardware discovers the real boundary-row conflicts — the source of
 * ocean's high abort count. Locks mode is the classic data-race-free
 * structure: a barrier between the red and black half-sweeps.
 */

#include "workloads/workload.hh"

namespace ptm
{

class OceanWorkload : public Workload
{
  public:
    explicit OceanWorkload(const WorkloadConfig &cfg) : Workload(cfg)
    {
        if (cfg.options.u64("scale") == 0) {
            rows_ = 48;
            cols_ = 64;
            iters_ = 2;
            chunk_rows_ = 6;
        } else {
            // Band-sized transactions whose footprint (~chunk_rows *
            // cols * 4 B * ~1.2) exceeds the 256 KB L2: ocean is the
            // heavy-overflow benchmark (Table 1: mop/evict 15.8).
            rows_ = 226;
            cols_ = 1280;
            iters_ = 2;
            chunk_rows_ = 56;
        }
    }

    const char *name() const override { return "ocean"; }

    void
    build(System &sys) override
    {
        proc_ = sys.createProcess();
        barrier_ = sys.createBarrier(cfg_.threads);
        const unsigned T = cfg_.threads;

        std::vector<std::vector<Step>> steps(T);
        for (unsigned t = 0; t < T; ++t) {
            unsigned r0 = t * rows_ / T;
            unsigned r1 = (t + 1) * rows_ / T;
            steps[t].push_back(
                PlainStep{[this, r0, r1](MemCtx m) -> TxCoro {
                    for (unsigned i = r0; i < r1; ++i) {
                        for (unsigned j = 0; j < cols_; ++j) {
                            co_await m.store(
                                g(i, j),
                                mixHash(std::uint64_t(i) * cols_ + j +
                                        cfg_.seed * 31));
                            // Read-only coefficient grid (bathymetry):
                            // transactions read it but never write it.
                            co_await m.store(
                                coef(i, j),
                                mixHash(std::uint64_t(i) * cols_ + j +
                                        cfg_.seed * 13 + 7) &
                                    0xff);
                        }
                    }
                }});
            pushBarrier(steps[t], barrier_);
        }

        // Bands are separated by one static "ghost" row (the classic
        // SPLASH decomposition), so band transactions never falsely
        // share boundary-row blocks.
        unsigned stride = chunk_rows_ + 1;
        unsigned chunks = (rows_ - 2 + stride - 1) / stride;
        for (unsigned it = 0; it < iters_; ++it) {
            std::uint32_t scope = 0;
            if (cfg_.mode == SyncMode::Tx)
                scope = sys.createOrderedScope();
            std::uint64_t rank = 0;
            // Red half-sweep then black half-sweep; in Tx mode both
            // colours' chunks are issued back-to-back as one ordered
            // stream (no barrier between the colours).
            for (unsigned colour = 0; colour < 2; ++colour) {
                // Rank r runs the idx-th chunk of band r%T: commits
                // interleave across the bands, so the chunks running
                // concurrently are spatially far apart and only the
                // band-boundary rows conflict.
                unsigned per_band = (chunks + T - 1) / T;
                for (unsigned idx = 0; idx < per_band; ++idx) {
                    for (unsigned g = 0; g < T; ++g) {
                        unsigned c = g * per_band + idx;
                        if (c >= chunks)
                            continue;
                        unsigned i0 = 1 + c * stride;
                        unsigned i1 =
                            std::min(rows_ - 1, i0 + chunk_rows_);
                        steps[g].push_back(orderedWork(
                            scope, rank++,
                            [this, i0, i1,
                             colour](MemCtx m) -> TxCoro {
                                co_await sweep(m, i0, i1, colour);
                            }));
                    }
                }
                if (cfg_.mode != SyncMode::Tx) {
                    // Data-race freedom via a barrier per colour.
                    for (unsigned t = 0; t < T; ++t)
                        pushBarrier(steps[t], barrier_);
                }
            }
            // Iterations are separated by a barrier in all modes.
            for (unsigned t = 0; t < T; ++t)
                pushBarrier(steps[t], barrier_);
        }

        for (unsigned t = 0; t < T; ++t)
            sys.addThread(proc_, std::move(steps[t]), "ocean");
    }

    bool
    verify(System &sys) const override
    {
        std::vector<std::uint32_t> G(rows_ * cols_);
        for (unsigned i = 0; i < rows_; ++i)
            for (unsigned j = 0; j < cols_; ++j)
                G[i * cols_ + j] =
                    mixHash(std::uint64_t(i) * cols_ + j +
                            cfg_.seed * 31);
        unsigned stride = chunk_rows_ + 1;
        for (unsigned it = 0; it < iters_; ++it) {
            for (unsigned colour = 0; colour < 2; ++colour) {
                for (unsigned i = 1; i + 1 < rows_; ++i) {
                    if ((i - 1) % stride == chunk_rows_)
                        continue; // static ghost row
                    for (unsigned j = 1; j + 1 < cols_; ++j) {
                        if (((i + j) & 1) != colour)
                            continue;
                        std::uint32_t v = relax(
                            G[(i - 1) * cols_ + j],
                            G[(i + 1) * cols_ + j],
                            G[i * cols_ + j - 1],
                            G[i * cols_ + j + 1],
                            G[i * cols_ + j],
                            mixHash(std::uint64_t(i) * cols_ + j +
                                    cfg_.seed * 13 + 7) &
                                0xff);
                        G[i * cols_ + j] = v;
                    }
                }
            }
        }
        for (unsigned i = 0; i < rows_; ++i)
            for (unsigned j = 0; j < cols_; ++j)
                if (sys.readWord32(proc_, g(i, j)) != G[i * cols_ + j])
                    return false;
        return true;
    }

  private:
    Addr
    g(unsigned i, unsigned j) const
    {
        return 0x10000000 + (Addr(i) * cols_ + j) * 4;
    }

    Addr
    coef(unsigned i, unsigned j) const
    {
        return 0x20000000 + (Addr(i) * cols_ + j) * 4;
    }

    static std::uint32_t
    relax(std::uint32_t n, std::uint32_t s, std::uint32_t w,
          std::uint32_t e, std::uint32_t c, std::uint32_t k)
    {
        return (n + s + w + e) / 4 + (c >> 1) + 3 + k;
    }

    /** One colour's relaxation over rows [i0, i1). */
    TxCoro
    sweep(MemCtx m, unsigned i0, unsigned i1, unsigned colour)
    {
        for (unsigned i = i0; i < i1; ++i) {
            for (unsigned j = 1; j + 1 < cols_; ++j) {
                if (((i + j) & 1) != colour)
                    continue;
                std::uint32_t n = std::uint32_t(
                    co_await m.load(g(i - 1, j)));
                std::uint32_t s = std::uint32_t(
                    co_await m.load(g(i + 1, j)));
                std::uint32_t w = std::uint32_t(
                    co_await m.load(g(i, j - 1)));
                std::uint32_t e = std::uint32_t(
                    co_await m.load(g(i, j + 1)));
                std::uint32_t c = std::uint32_t(
                    co_await m.load(g(i, j)));
                std::uint32_t k = std::uint32_t(
                    co_await m.load(coef(i, j)));
                co_await m.store(g(i, j), relax(n, s, w, e, c, k));
            }
        }
    }

    unsigned rows_, cols_, iters_, chunk_rows_;
    ProcId proc_ = 0;
    unsigned barrier_ = 0;
};

WorkloadInfo
oceanWorkload()
{
    return {"ocean",
            "red-black grid relaxation (the suite's largest footprint)",
            {scaleOption()},
            [](const WorkloadConfig &cfg) -> std::unique_ptr<Workload> {
                return std::make_unique<OceanWorkload>(cfg);
            },
            /*paperKernel=*/true};
}

} // namespace ptm
