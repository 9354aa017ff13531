/**
 * @file
 * Functional physical memory.
 *
 * The simulator is data-functional: every simulated byte really exists,
 * flows through cache lines, home pages, shadow pages and the VTM XADT,
 * and workloads verify their numeric results at the end. That makes the
 * versioning logic of Copy-PTM / Select-PTM testable rather than merely
 * timed.
 *
 * Pages are allocated sparsely on demand; an untouched frame reads as
 * zero.
 */

#ifndef PTM_MEM_PHYS_MEM_HH
#define PTM_MEM_PHYS_MEM_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>

#include "sim/flat_map.hh"
#include "sim/types.hh"

namespace ptm
{

/** Sparse byte-accurate physical memory. */
class PhysMem
{
  public:
    /** One 4 KB frame of storage. */
    using Frame = std::array<std::uint8_t, pageBytes>;

    /** Copy one 64-byte block out of memory into @p dst. */
    void
    readBlock(Addr block_addr, std::uint8_t *dst) const
    {
        const Frame *f = find(pageOf(block_addr));
        if (f)
            std::memcpy(dst, f->data() + pageOffset(block_addr),
                        blockBytes);
        else
            std::memset(dst, 0, blockBytes);
    }

    /** Copy one 64-byte block from @p src into memory. */
    void
    writeBlock(Addr block_addr, const std::uint8_t *src)
    {
        Frame &f = get(pageOf(block_addr));
        std::memcpy(f.data() + pageOffset(block_addr), src, blockBytes);
    }

    /** Read the 4-byte word at physical address @p a (must be aligned). */
    std::uint32_t
    readWord32(Addr a) const
    {
        const Frame *f = find(pageOf(a));
        if (!f)
            return 0;
        std::uint32_t v;
        std::memcpy(&v, f->data() + pageOffset(a), sizeof(v));
        return v;
    }

    /** Write the 4-byte word at physical address @p a. */
    void
    writeWord32(Addr a, std::uint32_t v)
    {
        Frame &f = get(pageOf(a));
        std::memcpy(f.data() + pageOffset(a), &v, sizeof(v));
    }

    /** Bytes of frame @p p, or nullptr while it is unbacked (an
     *  unbacked frame reads as zero). */
    const std::uint8_t *
    frameData(PageNum p) const
    {
        const Frame *f = find(p);
        return f ? f->data() : nullptr;
    }

    /** Bytes of frame @p p, backing it (zero-filled) first if needed.
     *  The pointer stays valid until the frame is released. */
    std::uint8_t *backFrame(PageNum p) { return get(p).data(); }

    /** Copy a 4-byte word between two physical addresses. */
    void
    copyWord32(Addr dst, Addr src)
    {
        const Frame *sf = find(pageOf(src));
        std::uint32_t v = 0;
        if (sf)
            std::memcpy(&v, sf->data() + pageOffset(src), sizeof(v));
        Frame &df = get(pageOf(dst));
        std::memcpy(df.data() + pageOffset(dst), &v, sizeof(v));
    }

    /** Copy one 64-byte block between two physical addresses. */
    void
    copyBlock(Addr dst, Addr src)
    {
        std::uint8_t buf[blockBytes];
        readBlock(src, buf);
        writeBlock(dst, buf);
    }

    /** Copy a whole page between frames. */
    void
    copyPage(PageNum dst, PageNum src)
    {
        const Frame *sf = find(src);
        Frame &df = get(dst);
        if (sf)
            df = *sf;
        else
            df.fill(0);
    }

    /** Drop the backing storage of a frame (freed page). */
    void
    releaseFrame(PageNum p)
    {
        frames_.erase(p);
    }

    /** Number of frames currently backed. */
    std::size_t backedFrames() const { return frames_.size(); }

  private:
    // The frame index is on the path of every functional word access;
    // FlatMap keeps the lookup to a couple of contiguous probes. The
    // frames themselves are heap cells, so Frame pointers stay valid
    // across index rehashes.
    const Frame *
    find(PageNum p) const
    {
        const std::unique_ptr<Frame> *slot = frames_.find(p);
        return slot ? slot->get() : nullptr;
    }

    Frame &
    get(PageNum p)
    {
        std::unique_ptr<Frame> &slot = frames_[p];
        if (!slot) {
            slot = std::make_unique<Frame>();
            slot->fill(0);
        }
        return *slot;
    }

    FlatMap<PageNum, std::unique_ptr<Frame>> frames_;
};

} // namespace ptm

#endif // PTM_MEM_PHYS_MEM_HH
