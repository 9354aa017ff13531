/**
 * @file
 * Per-core fully-associative TLB (paper: 512 entries, 4 KB pages).
 *
 * Entries are tagged by (process, virtual page) and translate to the
 * *home* physical page: shadow pages are invisible to the TLB by design
 * — "the physical address seen by the cache hierarchy and the TLB
 * structures is the home page physical address" (section 3.2.3).
 *
 * Lookup, insert and eviction are O(1): an open-addressing index maps
 * (proc, vpage) to a slab slot, and the slots are threaded on an
 * intrusive recency list whose tail is the LRU victim — the same
 * victim the previous linear scan over 512 entries selected (use
 * stamps were unique), so simulated hit/miss behavior is unchanged.
 */

#ifndef PTM_CACHE_TLB_HH
#define PTM_CACHE_TLB_HH

#include <cstdint>
#include <vector>

#include "sim/flat_map.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace ptm
{

/** Fully-associative TLB with LRU replacement. */
class Tlb
{
  public:
    explicit Tlb(unsigned entries) : slab_(entries)
    {
        free_.reserve(entries);
        for (unsigned i = entries; i-- > 0;)
            free_.push_back(i);
        index_.reserve(entries);
    }

    /**
     * Translate (proc, vpage). @return the home physical page, or
     * invalidPage on a TLB miss.
     */
    PageNum
    lookup(ProcId proc, PageNum vpage)
    {
        PageNum ppage = lookupHit(proc, vpage);
        if (ppage == invalidPage)
            ++misses;
        return ppage;
    }

    /**
     * The hit path of lookup() alone: a hit moves the entry to the MRU
     * head and counts, a miss returns invalidPage and changes nothing
     * (the fast-forward path replays it through the full translate).
     * The MRU head is checked before the index: touching it is a no-op.
     */
    PageNum
    lookupHit(ProcId proc, PageNum vpage)
    {
        if (head_ != nil && slab_[head_].vpage == vpage &&
            slab_[head_].proc == proc) {
            ++hits;
            return slab_[head_].ppage;
        }
        if (std::uint32_t *slot = index_.find(key(proc, vpage))) {
            std::uint32_t i = *slot;
            touch(i);
            ++hits;
            return slab_[i].ppage;
        }
        return invalidPage;
    }

    /** Install a translation, evicting LRU if full. */
    void
    insert(ProcId proc, PageNum vpage, PageNum ppage)
    {
        std::uint64_t k = key(proc, vpage);
        if (std::uint32_t *slot = index_.find(k)) {
            std::uint32_t i = *slot;
            slab_[i].ppage = ppage;
            touch(i);
            return;
        }
        std::uint32_t i;
        if (!free_.empty()) {
            i = free_.back();
            free_.pop_back();
        } else {
            i = tail_;
            unlink(i);
            index_.erase(key(slab_[i].proc, slab_[i].vpage));
        }
        slab_[i].proc = proc;
        slab_[i].vpage = vpage;
        slab_[i].ppage = ppage;
        pushFront(i);
        index_[k] = i;
    }

    /** Shootdown one translation (page swapped / remapped). */
    void
    invalidate(ProcId proc, PageNum vpage)
    {
        if (std::uint32_t *slot = index_.find(key(proc, vpage))) {
            std::uint32_t i = *slot;
            unlink(i);
            index_.erase(key(proc, vpage));
            free_.push_back(i);
        }
    }

    /** Drop all entries of one process. */
    void
    flushProc(ProcId proc)
    {
        std::uint32_t i = head_;
        while (i != nil) {
            std::uint32_t next = slab_[i].next;
            if (slab_[i].proc == proc) {
                unlink(i);
                index_.erase(key(proc, slab_[i].vpage));
                free_.push_back(i);
            }
            i = next;
        }
    }

    Counter hits;
    Counter misses;

  private:
    static constexpr std::uint32_t nil = ~std::uint32_t(0);

    struct Entry
    {
        ProcId proc = 0;
        PageNum vpage = 0;
        PageNum ppage = 0;
        std::uint32_t prev = nil;
        std::uint32_t next = nil;
    };

    /** Injective (proc, vpage) tag: virtual pages fit well under 2^48
     *  (the OS model's address spaces span megabytes). */
    static std::uint64_t
    key(ProcId proc, PageNum vpage)
    {
        return (std::uint64_t(proc) << 48) | std::uint64_t(vpage);
    }

    void
    unlink(std::uint32_t i)
    {
        Entry &e = slab_[i];
        if (e.prev != nil)
            slab_[e.prev].next = e.next;
        else
            head_ = e.next;
        if (e.next != nil)
            slab_[e.next].prev = e.prev;
        else
            tail_ = e.prev;
        e.prev = e.next = nil;
    }

    void
    pushFront(std::uint32_t i)
    {
        Entry &e = slab_[i];
        e.prev = nil;
        e.next = head_;
        if (head_ != nil)
            slab_[head_].prev = i;
        head_ = i;
        if (tail_ == nil)
            tail_ = i;
    }

    void
    touch(std::uint32_t i)
    {
        if (head_ != i) {
            unlink(i);
            pushFront(i);
        }
    }

    std::vector<Entry> slab_;
    std::vector<std::uint32_t> free_;
    std::uint32_t head_ = nil;
    std::uint32_t tail_ = nil;
    FlatMap<std::uint64_t, std::uint32_t> index_;
};

} // namespace ptm

#endif // PTM_CACHE_TLB_HH
