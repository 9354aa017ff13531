/**
 * @file
 * radix kernel: LSD radix sort (SPLASH-2 RADIX's phase structure).
 *
 * Per digit pass: per-thread histogram, a serialized global rank
 * computation, then a scattered permutation whose writes from
 * different threads interleave *within* cache blocks — unique words,
 * shared blocks. That makes radix the paper's showcase for
 * false-conflict sensitivity: block-granularity conflict detection
 * aborts permute transactions; wd:cache+mem eliminates them (Fig 5).
 *
 * Locks mode serializes the rank merge behind one global lock, as the
 * original does.
 */

#include <algorithm>

#include "locks/spinlock.hh"
#include "workloads/workload.hh"

namespace ptm
{

class RadixWorkload : public Workload
{
  public:
    explicit RadixWorkload(const WorkloadConfig &cfg) : Workload(cfg)
    {
        // Two key arrays of 256 KB each at benchmark size: radix
        // streams through the caches (Table 1: mop/evict 246).
        nkeys_ = cfg.options.u64("scale") == 0 ? 2048 : 65536;
        digit_bits_ = 8;
        passes_ = 3;
        radix_ = 1u << digit_bits_;
    }

    const char *name() const override { return "radix"; }

    void
    build(System &sys) override
    {
        proc_ = sys.createProcess();
        barrier_ = sys.createBarrier(cfg_.threads);
        const unsigned T = cfg_.threads;

        std::vector<std::vector<Step>> steps(T);
        for (unsigned t = 0; t < T; ++t) {
            unsigned k0 = t * nkeys_ / T;
            unsigned k1 = (t + 1) * nkeys_ / T;
            steps[t].push_back(
                PlainStep{[this, k0, k1](MemCtx m) -> TxCoro {
                    for (unsigned i = k0; i < k1; ++i)
                        co_await m.store(src(i), key(i));
                }});
            pushBarrier(steps[t], barrier_);
        }

        for (unsigned pass = 0; pass < passes_; ++pass) {
            unsigned shift = pass * digit_bits_;
            for (unsigned t = 0; t < T; ++t) {
                unsigned k0 = t * nkeys_ / T;
                unsigned k1 = (t + 1) * nkeys_ / T;

                // Per-thread histogram of this pass's digit.
                steps[t].push_back(work([this, t, k0, k1, pass,
                                         shift](MemCtx m) -> TxCoro {
                    for (unsigned b = 0; b < radix_; ++b)
                        co_await m.store(hist(t, b), 0);
                    for (unsigned i = k0; i < k1; ++i) {
                        std::uint32_t k = std::uint32_t(
                            co_await m.load(cur(pass, i)));
                        unsigned d = (k >> shift) & (radix_ - 1);
                        std::uint64_t c =
                            co_await m.load(hist(t, d));
                        co_await m.store(hist(t, d),
                                         std::uint32_t(c + 1));
                    }
                }));
                pushBarrier(steps[t], barrier_);

                // Global rank computation: serialized on thread 0
                // (locked in Locks mode, one transaction in Tx mode).
                if (t == 0) {
                    auto rank_body = [this](MemCtx m) -> TxCoro {
                        std::uint32_t off = 0;
                        for (unsigned b = 0; b < radix_; ++b) {
                            for (unsigned th = 0; th < cfg_.threads;
                                 ++th) {
                                std::uint32_t c = std::uint32_t(
                                    co_await m.load(hist(th, b)));
                                co_await m.store(rank(th, b), off);
                                off += c;
                            }
                        }
                    };
                    if (cfg_.mode == SyncMode::Locks) {
                        steps[t].push_back(PlainStep{
                            [this, rank_body](MemCtx m) -> TxCoro {
                                co_await spinLock(m, lockAddr());
                                co_await rank_body(m);
                                co_await spinUnlock(m, lockAddr());
                            }});
                    } else {
                        steps[t].push_back(work(rank_body));
                    }
                }
                pushBarrier(steps[t], barrier_);

                // Permutation: one transaction per thread and pass;
                // their scattered writes interleave with the other
                // threads' within cache blocks (the false-conflict
                // source of Figure 5).
                constexpr unsigned kChunks = 1;
                for (unsigned half = 0; half < kChunks; ++half) {
                    unsigned c0 = k0 + (k1 - k0) * half / kChunks;
                    unsigned c1 =
                        k0 + (k1 - k0) * (half + 1) / kChunks;
                    steps[t].push_back(work([this, t, c0, c1, k0,
                                             pass, shift](
                                                MemCtx m) -> TxCoro {
                        // Cursor per bucket, advanced from the ranks
                        // plus the number of this thread's earlier
                        // keys per bucket (recomputed locally so the
                        // chunks are independent transactions).
                        std::vector<std::uint32_t> cursor(radix_, 0);
                        for (unsigned b = 0; b < radix_; ++b)
                            cursor[b] = std::uint32_t(
                                co_await m.load(rank(t, b)));
                        for (unsigned i = k0; i < c0; ++i) {
                            std::uint32_t k = std::uint32_t(
                                co_await m.load(cur(pass, i)));
                            ++cursor[(k >> shift) & (radix_ - 1)];
                        }
                        for (unsigned i = c0; i < c1; ++i) {
                            std::uint32_t k = std::uint32_t(
                                co_await m.load(cur(pass, i)));
                            unsigned d = (k >> shift) & (radix_ - 1);
                            co_await m.store(
                                cur(pass + 1, cursor[d]++), k);
                        }
                    }));
                }
                pushBarrier(steps[t], barrier_);
            }
        }

        for (unsigned t = 0; t < T; ++t)
            sys.addThread(proc_, std::move(steps[t]), "radix");
    }

    bool
    verify(System &sys) const override
    {
        std::vector<std::uint32_t> keys(nkeys_);
        for (unsigned i = 0; i < nkeys_; ++i)
            keys[i] = key(i);
        std::stable_sort(keys.begin(), keys.end(),
                         [this](std::uint32_t a, std::uint32_t b) {
                             unsigned bits = passes_ * digit_bits_;
                             std::uint32_t mask =
                                 bits >= 32 ? 0xffffffffu
                                            : ((1u << bits) - 1);
                             return (a & mask) < (b & mask);
                         });
        for (unsigned i = 0; i < nkeys_; ++i)
            if (sys.readWord32(proc_, cur(passes_, i)) != keys[i])
                return false;
        return true;
    }

  private:
    /** Deterministic input keys, bounded by the sorted bit width. */
    std::uint32_t
    key(unsigned i) const
    {
        unsigned bits = passes_ * digit_bits_;
        std::uint32_t mask =
            bits >= 32 ? 0xffffffffu : ((1u << bits) - 1);
        return mixHash(i * 2654435761u + cfg_.seed * 13) & mask;
    }

    /** Source/destination arrays alternate per pass. */
    Addr
    cur(unsigned pass, unsigned i) const
    {
        Addr base = (pass % 2) ? 0x20000000 : 0x10000000;
        return base + Addr(i) * 4;
    }

    Addr src(unsigned i) const { return cur(0, i); }

    Addr
    hist(unsigned t, unsigned b) const
    {
        return 0x30000000 + (Addr(t) * radix_ + b) * 4;
    }

    Addr
    rank(unsigned t, unsigned b) const
    {
        return 0x38000000 + (Addr(t) * radix_ + b) * 4;
    }

    Addr lockAddr() const { return 0x3f000000; }

    unsigned nkeys_;
    unsigned digit_bits_;
    unsigned passes_;
    unsigned radix_;
    ProcId proc_ = 0;
    unsigned barrier_ = 0;
};

WorkloadInfo
radixWorkload()
{
    return {"radix",
            "LSD radix sort (permute writes share blocks: false conflicts)",
            {scaleOption()},
            [](const WorkloadConfig &cfg) -> std::unique_ptr<Workload> {
                return std::make_unique<RadixWorkload>(cfg);
            },
            /*paperKernel=*/true};
}

} // namespace ptm
