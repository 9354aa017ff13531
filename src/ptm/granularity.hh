/**
 * @file
 * Helper mapping cache-level accesses onto the per-page bit vectors of
 * the PTM structures.
 *
 * In the default mode every bit of a TAV / selection / summary vector
 * corresponds to one 64-byte block (64 bits per page). In the
 * wd:cache+mem mode of Figure 5 the vectors hold one bit per 4-byte
 * word (1024 bits per page); both modes share the same code because the
 * vector width is the only difference.
 */

#ifndef PTM_PTM_GRANULARITY_HH
#define PTM_PTM_GRANULARITY_HH

#include <cstdint>

#include "sim/bitvec.hh"
#include "sim/types.hh"

namespace ptm
{

/** Vector-granularity configuration of the PTM structures. */
class PageGran
{
  public:
    /** @param per_word true for wd:cache+mem vectors. */
    explicit PageGran(bool per_word) : per_word_(per_word) {}

    bool perWord() const { return per_word_; }

    /** Bits in a per-page vector. */
    unsigned
    bitsPerPage() const
    {
        return per_word_ ? wordsPerPage : blocksPerPage;
    }

    /** A fresh all-clear page vector. */
    BitVec makeVec() const { return BitVec(bitsPerPage()); }

    /**
     * Invoke @p fn(bit_index) for every vector bit touched by an
     * access of @p word_mask (bit per 4-byte word) within the block at
     * @p block_addr.
     */
    template <typename F>
    void
    forBits(Addr block_addr, std::uint16_t word_mask, F &&fn) const
    {
        unsigned blk = blockInPage(block_addr);
        if (!per_word_) {
            fn(blk);
            return;
        }
        for (unsigned w = 0; w < wordsPerBlock; ++w)
            if (word_mask & (1u << w))
                fn(blk * wordsPerBlock + w);
    }

    /**
     * The bits of @p vec covering the 16 words of the block at
     * @p block_addr, word w in bit w: each word's own bit in word
     * mode, the block's bit repeated in block mode.
     */
    std::uint16_t
    blockWords(const BitVec &vec, Addr block_addr) const
    {
        unsigned blk = blockInPage(block_addr);
        if (per_word_)
            return vec.bits16(blk * wordsPerBlock);
        return vec.test(blk) ? std::uint16_t(0xffff) : std::uint16_t(0);
    }

    /** True if @p vec has any bit set for the given access (in block
     *  mode: the block's bit, whatever @p word_mask says). */
    bool
    anySet(const BitVec &vec, Addr block_addr,
           std::uint16_t word_mask) const
    {
        if (!per_word_)
            return vec.test(blockInPage(block_addr));
        return (blockWords(vec, block_addr) & word_mask) != 0;
    }

    /** Set every bit of the access in @p vec. */
    void
    setBits(BitVec &vec, Addr block_addr, std::uint16_t word_mask) const
    {
        forBits(block_addr, word_mask,
                [&](unsigned i) { vec.set(i); });
    }

    /** Vector bit index covering the 4-byte word at @p word_addr. */
    unsigned
    wordBit(Addr word_addr) const
    {
        return per_word_ ? wordInPage(word_addr)
                         : blockInPage(word_addr);
    }

    /**
     * Byte address (within page @p page) covered by vector bit @p i,
     * and the byte size of a unit.
     */
    Addr
    unitAddr(PageNum page, unsigned i) const
    {
        Addr off = per_word_ ? Addr(i) * wordBytes
                             : Addr(i) * blockBytes;
        return pageBase(page) + off;
    }

    /** Bytes covered by one vector bit. */
    Addr
    unitBytes() const
    {
        return per_word_ ? wordBytes : blockBytes;
    }

  private:
    bool per_word_;
};

} // namespace ptm

#endif // PTM_PTM_GRANULARITY_HH
