/**
 * @file
 * Cache structures: MOESI line state with transactional extensions, a
 * generic set-associative array, and the L1 timing-filter tags.
 *
 * Following the PTM paper, coherence is maintained at the private L2
 * caches; "the augmented L2 cache blocks contain transactional read and
 * write bits ... a transaction ID, a valid bit and the bits to implement
 * [the] MOESI protocol" (section 6.1). The L1 is a pure latency filter
 * kept inclusive in the L2 by back-invalidation; the functional data of
 * a block lives in the L2 line.
 */

#ifndef PTM_CACHE_CACHE_HH
#define PTM_CACHE_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace ptm
{

/** MOESI coherence states. */
enum class Moesi : std::uint8_t
{
    I, //!< Invalid
    S, //!< Shared (clean, others may share)
    E, //!< Exclusive (clean, sole copy)
    O, //!< Owned (dirty, others may share; this cache responds)
    M, //!< Modified (dirty, sole copy)
};

/** True if the state implies the line holds dirty (modified) data. */
constexpr bool
moesiDirty(Moesi s)
{
    return s == Moesi::M || s == Moesi::O;
}

/** True if the state permits a silent store (no bus transaction). */
constexpr bool
moesiWritable(Moesi s)
{
    return s == Moesi::M || s == Moesi::E;
}

/** Short state name for traces. */
const char *moesiName(Moesi s);

/**
 * Transactional marking of a cache line by one transaction: which
 * 4-byte words it read and speculatively wrote. In block-granularity
 * mode the masks are simply the full block (0xFFFF), so one predicate
 * serves both the default mode and the wd:* modes of Figure 5.
 */
struct TxMark
{
    TxId tx = invalidTxId;
    std::uint16_t readWords = 0;
    std::uint16_t writeWords = 0;
};

/**
 * The transactional marks of one line, in insertion order. The paper's
 * line carries one transaction ID plus read/write bits (section 6.1);
 * word-granularity modes let several transactions mark a line. The
 * first two marks live inline, which covers block mode exactly and the
 * word modes nearly always; a third mark moves the list to the heap
 * until clear(). Erase keeps the order.
 */
class MarkList
{
  public:
    static constexpr std::uint16_t inlineCap = 2;

    MarkList() = default;

    MarkList(MarkList &&o) noexcept
        : store_(o.store_), size_(o.size_), cap_(o.cap_)
    {
        o.size_ = 0;
        o.cap_ = 0;
    }

    MarkList(const MarkList &) = delete;
    MarkList &operator=(const MarkList &) = delete;

    ~MarkList() { clear(); }

    TxMark *begin() { return data(); }
    TxMark *end() { return data() + size_; }
    const TxMark *begin() const { return data(); }
    const TxMark *end() const { return data() + size_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** True while the marks live on the heap. */
    bool spilled() const { return cap_ != 0; }

    /** Append @p m. @return the appended mark. */
    TxMark &
    push_back(const TxMark &m)
    {
        if (size_ == (spilled() ? cap_ : inlineCap))
            grow();
        return *::new (data() + size_++) TxMark(m);
    }

    /** Remove @p pos (a mark of this list), keeping the order. */
    void
    erase(TxMark *pos)
    {
        TxMark *last = end() - 1;
        for (; pos != last; ++pos)
            *pos = pos[1];
        --size_;
    }

    /** Drop every mark and return to inline storage. */
    void
    clear()
    {
        if (spilled())
            delete[] store_.heap;
        size_ = 0;
        cap_ = 0;
    }

  private:
    TxMark *data() { return spilled() ? store_.heap : store_.inl; }
    const TxMark *
    data() const
    {
        return spilled() ? store_.heap : store_.inl;
    }

    /** Double the capacity of a full list. */
    void
    grow()
    {
        std::uint16_t cap = std::uint16_t(size_ * 2);
        TxMark *heap = new TxMark[cap];
        if (spilled()) {
            std::copy_n(store_.heap, size_, heap);
            delete[] store_.heap;
        } else {
            std::copy_n(store_.inl, inlineCap, heap);
        }
        store_.heap = heap;
        cap_ = cap;
    }

    union Store
    {
        Store() : heap(nullptr) {}
        TxMark inl[inlineCap];
        TxMark *heap;
    } store_;
    std::uint16_t size_ = 0;
    /** Heap capacity; 0 while the marks are inline (so a default
     *  list is all zero bytes). */
    std::uint16_t cap_ = 0;
};

/**
 * One L2 cache line with the PTM transactional extensions. It spans
 * two host cache lines: the header (everything a lookup, a mark check
 * or a replacement decision reads) in the first, the block data in the
 * second.
 */
struct alignas(64) CacheLine
{
    /**
     * Block-aligned home physical address; valid iff state != I.
     * Written only by CacheArray::install.
     */
    Addr addr = 0;

    /** LRU timestamp. */
    std::uint64_t lastUse = 0;

    Moesi state = Moesi::I;

    /**
     * Words whose *committed* value is newer in this line than in its
     * committed memory location (non-transactional stores, plus
     * speculative words promoted by a commit). Word-granularity modes
     * use it to persist a committed word before a speculative
     * overwrite and to write back exactly the dirty words on
     * eviction; block mode tracks it for statistics only.
     */
    std::uint16_t dirtyWords = 0;

    /**
     * Transactional markings. In hardware this is the per-line
     * transaction ID plus read/write bits (single mark); word-
     * granularity modes allow a line to carry state of several
     * transactions.
     */
    MarkList marks;

    /** The 64 bytes of block data. */
    alignas(64) std::uint8_t data[blockBytes] = {};

    bool valid() const { return state != Moesi::I; }
    bool dirty() const { return moesiDirty(state); }

    /** True if any transactional marking is attached. */
    bool transactional() const { return !marks.empty(); }

    /** Find the mark of transaction @p tx, or nullptr. */
    TxMark *
    findMark(TxId tx)
    {
        for (auto &m : marks)
            if (m.tx == tx)
                return &m;
        return nullptr;
    }

    /** Find-or-create the mark of transaction @p tx. */
    TxMark &
    mark(TxId tx)
    {
        if (TxMark *m = findMark(tx))
            return *m;
        return marks.push_back(TxMark{tx, 0, 0});
    }

    /** Remove the mark of transaction @p tx if present. */
    void
    removeMark(TxId tx)
    {
        if (TxMark *m = findMark(tx))
            marks.erase(m);
    }

    /** Union of write masks of all marks. */
    std::uint16_t
    writeMask() const
    {
        std::uint16_t m = 0;
        for (const auto &mk : marks)
            m |= mk.writeWords;
        return m;
    }

    /** Number of distinct transactions with write marks. */
    unsigned
    writerCount() const
    {
        unsigned n = 0;
        for (const auto &mk : marks)
            if (mk.writeWords)
                ++n;
        return n;
    }

    /** Drop all transactional markings. */
    void clearTx() { marks.clear(); }

    /** Invalidate the line entirely. */
    void
    invalidate()
    {
        state = Moesi::I;
        dirtyWords = 0;
        clearTx();
    }

    /** Read the 4-byte word at in-block byte offset @p off. */
    std::uint32_t
    readWord32(unsigned off) const
    {
        std::uint32_t v;
        std::memcpy(&v, data + off, sizeof(v));
        return v;
    }

    /** Write the 4-byte word at in-block byte offset @p off. */
    void
    writeWord32(unsigned off, std::uint32_t v)
    {
        std::memcpy(data + off, &v, sizeof(v));
    }
};

static_assert(sizeof(CacheLine) == 128,
              "a CacheLine is one header and one data host line");

/**
 * A set-associative array of CacheLine with LRU replacement. Indexing
 * uses the block address bits above blockShift.
 *
 * A packed tag per slot (block address | tagValid, written by
 * install()) lets find() scan a set without touching the lines; only a
 * tag match reads the line. Invalidating a line leaves its tag behind,
 * so find() confirms a match against the line's own state.
 */
class CacheArray
{
  public:
    /**
     * @param bytes total capacity in bytes
     * @param assoc associativity (1 = direct mapped)
     */
    CacheArray(std::uint64_t bytes, unsigned assoc);
    ~CacheArray();

    CacheArray(const CacheArray &) = delete;
    CacheArray &operator=(const CacheArray &) = delete;

    /** Find the line holding @p block_addr, or nullptr. */
    CacheLine *
    find(Addr block_addr)
    {
        const std::size_t base =
            std::size_t(setIndex(block_addr)) * assoc_;
        const Addr tag = block_addr | tagValid;
        for (unsigned w = 0; w < assoc_; ++w) {
            if (tags_[base + w] != tag)
                continue;
            CacheLine &l = lines_[base + w];
            if (l.valid() && l.addr == block_addr)
                return &l;
        }
        return nullptr;
    }

    const CacheLine *
    find(Addr block_addr) const
    {
        return const_cast<CacheArray *>(this)->find(block_addr);
    }

    /**
     * Give @p line (a slot of this array in the set of
     * @p block_addr, normally victim(block_addr)) the address
     * @p block_addr: the only writer of CacheLine::addr.
     */
    void
    install(CacheLine &line, Addr block_addr)
    {
        line.addr = block_addr;
        tags_[slotOf(line)] = block_addr | tagValid;
    }

    /**
     * Pick the replacement victim in the set of @p block_addr: an
     * invalid way if present, else the LRU way.
     */
    CacheLine &victim(Addr block_addr);

    /** Index of @p line in set/way order (set * assoc + way). */
    std::size_t
    slotOf(const CacheLine &line) const
    {
        return std::size_t(&line - lines_);
    }

    /** The line at slot @p i (see slotOf). */
    CacheLine &slot(std::size_t i) { return lines_[i]; }

    /** Total number of line slots. */
    std::size_t numLines() const { return tags_.size(); }

    /** Mark a line most-recently-used. */
    void
    touch(CacheLine &line)
    {
        line.lastUse = ++use_clock_;
    }

    /** Apply @p fn to every valid line. */
    template <typename F>
    void
    forEachValid(F &&fn)
    {
        for (std::size_t i = 0; i < numLines(); ++i)
            if (lines_[i].valid())
                fn(lines_[i]);
    }

    unsigned numSets() const { return num_sets_; }
    unsigned assoc() const { return assoc_; }

  private:
    /** Tag bit of an installed slot (block addresses are aligned). */
    static constexpr Addr tagValid = 1;

    unsigned
    setIndex(Addr block_addr) const
    {
        return unsigned((block_addr >> blockShift) & (num_sets_ - 1));
    }

    struct FreeStorage
    {
        void operator()(void *p) const { std::free(p); }
    };

    unsigned num_sets_;
    unsigned assoc_;
    /** The zero-filled allocation holding the lines (see the
     *  constructor). */
    std::unique_ptr<void, FreeStorage> storage_;
    CacheLine *lines_;
    /** Per-slot tags, in slot order (0 = never installed). */
    std::vector<Addr> tags_;
    std::uint64_t use_clock_ = 0;
};

/**
 * L1 tag filter. Holds no data; a hit means the access can complete in
 * one cycle against the (inclusive) L2 line. The flags mirror exactly
 * the conditions under which the L2 would not need to act:
 *
 *  - @c writable: the L2 line is in M or E, so a store can proceed.
 *  - @c txId/txRead/txWrite: the transactional bits already set at the
 *    L2 line, so a same-transaction re-access needs no L2 update.
 */
class L1Filter
{
  public:
    struct Entry
    {
        Addr addr = 0;
        bool valid = false;
        bool writable = false;
        /** Transaction whose L2 marks this entry mirrors (one only). */
        TxId txId = invalidTxId;
        std::uint16_t txReadWords = 0;
        std::uint16_t txWriteWords = 0;
        /** Slot of the mirrored L2 line (CacheArray::slotOf). */
        std::uint32_t l2Slot = 0;
        std::uint64_t lastUse = 0;
    };

    L1Filter(std::uint64_t bytes, unsigned assoc);

    /** Find the entry for @p block_addr and mark it most-recently-used,
     *  or nullptr. */
    Entry *
    find(Addr block_addr)
    {
        Entry *e = peek(block_addr);
        if (e)
            e->lastUse = ++use_clock_;
        return e;
    }

    /** Find the entry for @p block_addr without touching LRU state. */
    Entry *
    peek(Addr block_addr)
    {
        Entry *set = &entries_[std::size_t(setIndex(block_addr)) * assoc_];
        for (unsigned w = 0; w < assoc_; ++w)
            if (set[w].valid && set[w].addr == block_addr)
                return &set[w];
        return nullptr;
    }

    /** Install (or refresh) an entry for @p block_addr. */
    Entry &insert(Addr block_addr);

    /** Remove the entry for @p block_addr if present. */
    void invalidate(Addr block_addr);

    /** Remove the write permission of @p block_addr if present. */
    void downgrade(Addr block_addr);

    /** Drop every entry (context-switch flush in flush-based modes). */
    void invalidateAll();

    /** Apply @p fn to every valid entry. */
    template <typename F>
    void
    forEachValid(F &&fn)
    {
        for (auto &e : entries_)
            if (e.valid)
                fn(e);
    }

  private:
    unsigned
    setIndex(Addr block_addr) const
    {
        return unsigned((block_addr >> blockShift) & (num_sets_ - 1));
    }

    unsigned num_sets_;
    unsigned assoc_;
    std::vector<Entry> entries_;
    std::uint64_t use_clock_ = 0;
};

} // namespace ptm

#endif // PTM_CACHE_CACHE_HH
