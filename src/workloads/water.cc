/**
 * @file
 * water kernel: n-body force accumulation with a neighbor cutoff
 * (SPLASH-2 WATER's inter-molecular loop) — the small, cache-resident
 * benchmark of Table 1 (rare evictions).
 *
 * Each timestep: threads compute pair forces for their molecule range
 * and accumulate into the shared force array (cross-partition
 * updates near range boundaries conflict occasionally), then update
 * positions. Locks mode takes a per-molecule spinlock around every
 * accumulation, like the original; Tx mode wraps chunk loops in
 * transactions and skips all locking.
 */

#include "locks/spinlock.hh"
#include "workloads/workload.hh"

namespace ptm
{

class WaterWorkload : public Workload
{
  public:
    explicit WaterWorkload(const WorkloadConfig &cfg) : Workload(cfg)
    {
        // 8192 molecules x (pos, force, 6 auxiliary state arrays, 3
        // read-only parameter tables) ~ 350 KB: mostly cache-resident
        // with occasional streaming evictions in the integrate phase,
        // like the paper's water (Table 1: mop/evict 4926).
        bool tiny = cfg.options.u64("scale") == 0;
        nmol_ = tiny ? 256 : 8192;
        cutoff_ = 12;
        timesteps_ = tiny ? 2 : 3;
        chunks_ = 2;
    }

    const char *name() const override { return "water"; }

    void
    build(System &sys) override
    {
        proc_ = sys.createProcess();
        barrier_ = sys.createBarrier(cfg_.threads);
        const unsigned T = cfg_.threads;

        std::vector<std::vector<Step>> steps(T);
        for (unsigned t = 0; t < T; ++t) {
            unsigned m0 = t * nmol_ / T;
            unsigned m1 = (t + 1) * nmol_ / T;
            steps[t].push_back(
                PlainStep{[this, m0, m1](MemCtx m) -> TxCoro {
                    for (unsigned i = m0; i < m1; ++i) {
                        co_await m.store(pos(i),
                                         mixHash(i + cfg_.seed * 101));
                        co_await m.store(force(i), 0);
                        co_await m.store(mass(i),
                                         (mixHash(i + 3) & 7) + 1);
                        for (unsigned a = 0; a < kAux; ++a)
                            co_await m.store(aux(a, i), 0);
                    }
                }});
            pushBarrier(steps[t], barrier_);
        }

        for (unsigned ts = 0; ts < timesteps_; ++ts) {
            for (unsigned t = 0; t < T; ++t) {
                unsigned m0 = t * nmol_ / T;
                unsigned m1 = (t + 1) * nmol_ / T;
                for (unsigned c = 0; c < chunks_; ++c) {
                    unsigned c0 = m0 + (m1 - m0) * c / chunks_;
                    unsigned c1 = m0 + (m1 - m0) * (c + 1) / chunks_;
                    if (cfg_.mode == SyncMode::Locks) {
                        steps[t].push_back(PlainStep{
                            [this, c0, c1](MemCtx m) -> TxCoro {
                                co_await forcesLocked(m, c0, c1);
                            }});
                    } else {
                        steps[t].push_back(
                            work([this, c0, c1](MemCtx m) -> TxCoro {
                                co_await forces(m, c0, c1);
                            }));
                    }
                }
                // Wait for all force contributions, then integrate.
                pushBarrier(steps[t], barrier_);
                steps[t].push_back(
                    work([this, m0, m1](MemCtx m) -> TxCoro {
                        for (unsigned i = m0; i < m1; ++i) {
                            std::uint32_t p = std::uint32_t(
                                co_await m.load(pos(i)));
                            std::uint32_t f = std::uint32_t(
                                co_await m.load(force(i)));
                            std::uint32_t w = std::uint32_t(
                                co_await m.load(mass(i)));
                            co_await m.store(pos(i),
                                             p + (f >> 3) / w + 1);
                            co_await m.store(force(i), 0);
                            // Velocity/acceleration history chain.
                            std::uint32_t acc = f;
                            for (unsigned a = 0; a < kAux; ++a) {
                                std::uint32_t prev = std::uint32_t(
                                    co_await m.load(aux(a, i)));
                                co_await m.store(aux(a, i),
                                                 prev + (acc >> a));
                            }
                        }
                    }));
                pushBarrier(steps[t], barrier_);
            }
        }

        for (unsigned t = 0; t < T; ++t)
            sys.addThread(proc_, std::move(steps[t]), "water");
    }

    bool
    verify(System &sys) const override
    {
        std::vector<std::uint32_t> P(nmol_), F(nmol_, 0);
        std::vector<std::vector<std::uint32_t>> AUX(
            kAux, std::vector<std::uint32_t>(nmol_, 0));
        for (unsigned i = 0; i < nmol_; ++i)
            P[i] = mixHash(i + cfg_.seed * 101);
        for (unsigned ts = 0; ts < timesteps_; ++ts) {
            for (unsigned i = 0; i < nmol_; ++i) {
                for (unsigned d = 1; d <= cutoff_; ++d) {
                    unsigned j = (i + d) % nmol_;
                    std::uint32_t f = pairForce(P[i], P[j]);
                    F[i] += f;
                    F[j] -= f;
                }
            }
            for (unsigned i = 0; i < nmol_; ++i) {
                std::uint32_t w = (mixHash(i + 3) & 7) + 1;
                P[i] += (F[i] >> 3) / w + 1;
                for (unsigned a = 0; a < kAux; ++a)
                    AUX[a][i] += F[i] >> a;
                F[i] = 0;
            }
        }
        for (unsigned i = 0; i < nmol_; ++i) {
            if (sys.readWord32(proc_, pos(i)) != P[i])
                return false;
            for (unsigned a = 0; a < kAux; ++a)
                if (sys.readWord32(proc_, aux(a, i)) != AUX[a][i])
                    return false;
        }
        return true;
    }

  private:
    static constexpr unsigned kAux = 6;

    Addr pos(unsigned i) const { return 0x10000000 + Addr(i) * 4; }
    Addr force(unsigned i) const { return 0x10040000 + Addr(i) * 4; }
    Addr lockOf(unsigned i) const { return 0x10080000 + Addr(i) * 4; }
    /** Read-only per-molecule mass table. */
    Addr mass(unsigned i) const { return 0x100c0000 + Addr(i) * 4; }
    /** Auxiliary per-molecule state arrays (velocity history etc.). */
    Addr
    aux(unsigned a, unsigned i) const
    {
        return 0x10100000 + Addr(a) * 0x40000 + Addr(i) * 4;
    }

    static std::uint32_t
    pairForce(std::uint32_t a, std::uint32_t b)
    {
        return (a ^ (b * 7)) >> 4;
    }

    /** Accumulate pair forces for molecules [c0, c1). */
    TxCoro
    forces(MemCtx m, unsigned c0, unsigned c1)
    {
        for (unsigned i = c0; i < c1; ++i) {
            std::uint32_t pi =
                std::uint32_t(co_await m.load(pos(i)));
            for (unsigned d = 1; d <= cutoff_; ++d) {
                unsigned j = (i + d) % nmol_;
                std::uint32_t pj =
                    std::uint32_t(co_await m.load(pos(j)));
                std::uint32_t f = pairForce(pi, pj);
                std::uint32_t fi =
                    std::uint32_t(co_await m.load(force(i)));
                co_await m.store(force(i), fi + f);
                std::uint32_t fj =
                    std::uint32_t(co_await m.load(force(j)));
                co_await m.store(force(j), fj - f);
            }
        }
    }

    /** Locks-mode version: per-molecule lock per accumulation. */
    TxCoro
    forcesLocked(MemCtx m, unsigned c0, unsigned c1)
    {
        for (unsigned i = c0; i < c1; ++i) {
            std::uint32_t pi =
                std::uint32_t(co_await m.load(pos(i)));
            for (unsigned d = 1; d <= cutoff_; ++d) {
                unsigned j = (i + d) % nmol_;
                std::uint32_t pj =
                    std::uint32_t(co_await m.load(pos(j)));
                std::uint32_t f = pairForce(pi, pj);
                co_await spinLock(m, lockOf(i));
                std::uint32_t fi =
                    std::uint32_t(co_await m.load(force(i)));
                co_await m.store(force(i), fi + f);
                co_await spinUnlock(m, lockOf(i));
                co_await spinLock(m, lockOf(j));
                std::uint32_t fj =
                    std::uint32_t(co_await m.load(force(j)));
                co_await m.store(force(j), fj - f);
                co_await spinUnlock(m, lockOf(j));
            }
        }
    }

    unsigned nmol_, cutoff_, timesteps_, chunks_;
    ProcId proc_ = 0;
    unsigned barrier_ = 0;
};

WorkloadInfo
waterWorkload()
{
    return {"water",
            "molecular-dynamics force/integrate steps (cache-resident)",
            {scaleOption()},
            [](const WorkloadConfig &cfg) -> std::unique_ptr<Workload> {
                return std::make_unique<WaterWorkload>(cfg);
            },
            /*paperKernel=*/true};
}

} // namespace ptm
