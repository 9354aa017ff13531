/**
 * @file
 * Packed bit vector sized at runtime.
 *
 * PTM reduces per-block transactional state to booleans packed into
 * vectors: TAV read/write vectors, SPT selection vectors, and the VTS
 * read/write summary vectors. In block-granularity mode a page needs 64
 * bits (one per 64-byte block); in wd:cache+mem mode it needs 1024 bits
 * (one per 4-byte word). BitVec supports both through one code path.
 */

#ifndef PTM_SIM_BITVEC_HH
#define PTM_SIM_BITVEC_HH

#include <cstdint>
#include <vector>

#include "sim/logging.hh"

namespace ptm
{

/** Fixed-capacity packed bit vector with word-wise bulk operations. */
class BitVec
{
  public:
    BitVec() = default;

    /** Construct with @p nbits bits, all clear. */
    explicit BitVec(unsigned nbits)
        : nbits_(nbits), words_((nbits + 63) / 64, 0)
    {}

    unsigned size() const { return nbits_; }

    bool
    test(unsigned i) const
    {
        panic_if(i >= nbits_, "BitVec index %u out of range %u", i,
                 nbits_);
        return (words_[i >> 6] >> (i & 63)) & 1;
    }

    /**
     * The 16 bits starting at bit @p i, which must be a multiple of
     * 16: bit i + k of the vector is bit k of the result.
     */
    std::uint16_t
    bits16(unsigned i) const
    {
        panic_if(i % 16 || i + 16 > nbits_,
                 "BitVec 16-bit group at %u out of range %u", i, nbits_);
        return std::uint16_t(words_[i >> 6] >> (i & 63));
    }

    void
    set(unsigned i)
    {
        panic_if(i >= nbits_, "BitVec index %u out of range %u", i,
                 nbits_);
        words_[i >> 6] |= std::uint64_t(1) << (i & 63);
    }

    void
    clear(unsigned i)
    {
        panic_if(i >= nbits_, "BitVec index %u out of range %u", i,
                 nbits_);
        words_[i >> 6] &= ~(std::uint64_t(1) << (i & 63));
    }

    void
    assign(unsigned i, bool v)
    {
        if (v)
            set(i);
        else
            clear(i);
    }

    /** Flip bit @p i. */
    void
    toggle(unsigned i)
    {
        panic_if(i >= nbits_, "BitVec index %u out of range %u", i,
                 nbits_);
        words_[i >> 6] ^= std::uint64_t(1) << (i & 63);
    }

    /** Clear every bit. */
    void
    reset()
    {
        for (auto &w : words_)
            w = 0;
    }

    /** True if no bit is set. */
    bool
    none() const
    {
        for (auto w : words_)
            if (w)
                return false;
        return true;
    }

    /** True if any bit is set. */
    bool any() const { return !none(); }

    /** Population count. */
    unsigned
    count() const
    {
        unsigned n = 0;
        for (auto w : words_)
            n += unsigned(__builtin_popcountll(w));
        return n;
    }

    /** this |= other. Sizes must match. */
    BitVec &
    operator|=(const BitVec &o)
    {
        panic_if(nbits_ != o.nbits_, "BitVec size mismatch");
        for (size_t i = 0; i < words_.size(); ++i)
            words_[i] |= o.words_[i];
        return *this;
    }

    /** this &= ~other (clear every bit set in @p o). Sizes must match. */
    BitVec &
    andNot(const BitVec &o)
    {
        panic_if(nbits_ != o.nbits_, "BitVec size mismatch");
        for (size_t i = 0; i < words_.size(); ++i)
            words_[i] &= ~o.words_[i];
        return *this;
    }

    /** this ^= other. Sizes must match. */
    BitVec &
    operator^=(const BitVec &o)
    {
        panic_if(nbits_ != o.nbits_, "BitVec size mismatch");
        for (size_t i = 0; i < words_.size(); ++i)
            words_[i] ^= o.words_[i];
        return *this;
    }

    /** True if this and @p o share any set bit. */
    bool
    intersects(const BitVec &o) const
    {
        panic_if(nbits_ != o.nbits_, "BitVec size mismatch");
        for (size_t i = 0; i < words_.size(); ++i)
            if (words_[i] & o.words_[i])
                return true;
        return false;
    }

    bool
    operator==(const BitVec &o) const
    {
        return nbits_ == o.nbits_ && words_ == o.words_;
    }

    /**
     * Iterate over set bits, invoking @p fn(index) for each. @p fn must
     * not modify this vector.
     */
    template <typename F>
    void
    forEachSet(F &&fn) const
    {
        for (size_t wi = 0; wi < words_.size(); ++wi) {
            std::uint64_t w = words_[wi];
            while (w) {
                unsigned b = unsigned(__builtin_ctzll(w));
                fn(unsigned(wi * 64) + b);
                w &= w - 1;
            }
        }
    }

  private:
    unsigned nbits_ = 0;
    std::vector<std::uint64_t> words_;
};

} // namespace ptm

#endif // PTM_SIM_BITVEC_HH
