/**
 * @file
 * Deterministic pseudo-random number generator for the simulator.
 *
 * All stochastic choices in the simulator (workload data, scheduler
 * perturbations) draw from explicitly seeded Pcg32 instances so that a
 * given configuration always produces bit-identical results. Wall-clock
 * time is never consulted anywhere in the code base.
 */

#ifndef PTM_SIM_RANDOM_HH
#define PTM_SIM_RANDOM_HH

#include <cstdint>

namespace ptm
{

/**
 * PCG32 generator (O'Neill, 2014): small state, good statistical
 * quality, and fully deterministic across platforms.
 */
class Pcg32
{
  public:
    /** Construct with a seed and an optional independent stream id. */
    explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                   std::uint64_t stream = 0xda3e39cb94b95bdbULL)
    {
        state_ = 0;
        inc_ = (stream << 1) | 1u;
        next();
        state_ += seed;
        next();
    }

    /** Next 32 uniformly distributed bits. */
    std::uint32_t
    next()
    {
        std::uint64_t old = state_;
        state_ = old * 6364136223846793005ULL + inc_;
        std::uint32_t xorshifted =
            std::uint32_t(((old >> 18) ^ old) >> 27);
        std::uint32_t rot = std::uint32_t(old >> 59);
        return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31));
    }

    /**
     * Uniform integer in [0, bound), bias-free via rejection sampling.
     * @param bound must be non-zero.
     */
    std::uint32_t
    below(std::uint32_t bound)
    {
        std::uint32_t threshold = (-bound) % bound;
        for (;;) {
            std::uint32_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return next() * (1.0 / 4294967296.0);
    }

    /** Bernoulli draw with probability @p p of returning true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

  private:
    std::uint64_t state_;
    std::uint64_t inc_;
};

} // namespace ptm

#endif // PTM_SIM_RANDOM_HH
