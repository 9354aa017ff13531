/**
 * @file
 * Per-core fully-associative TLB (paper: 512 entries, 4 KB pages).
 *
 * Entries are tagged by (process, virtual page) and translate to the
 * *home* physical page: shadow pages are invisible to the TLB by design
 * — "the physical address seen by the cache hierarchy and the TLB
 * structures is the home page physical address" (section 3.2.3).
 *
 * Replacement is the simulator's one LruMap (sim/lru_map.hh), keyed
 * by (process, virtual page).
 */

#ifndef PTM_CACHE_TLB_HH
#define PTM_CACHE_TLB_HH

#include <cstdint>

#include "sim/lru_map.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace ptm
{

/** Fully-associative TLB with LRU replacement. */
class Tlb
{
  public:
    explicit Tlb(unsigned entries) : map_(entries) {}

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
     */
    PageNum
    lookupHit(ProcId proc, PageNum vpage)
    {
        PageNum *ppage = map_.find(key(proc, vpage));
        if (!ppage)
            return invalidPage;
        ++hits;
        return *ppage;
    }

    /** Install a translation, evicting LRU if full. */
    void
    insert(ProcId proc, PageNum vpage, PageNum ppage)
    {
        map_.insert(key(proc, vpage), ppage);
    }

    /** Shootdown one translation (page swapped / remapped). */
    void
    invalidate(ProcId proc, PageNum vpage)
    {
        map_.erase(key(proc, vpage));
    }

    Counter hits;
    Counter misses;

  private:
    /** Injective (proc, vpage) tag: virtual pages fit well under 2^48
     *  (the OS model's address spaces span megabytes). */
    static std::uint64_t
    key(ProcId proc, PageNum vpage)
    {
        return (std::uint64_t(proc) << 48) | std::uint64_t(vpage);
    }

    LruMap<PageNum> map_;
};

} // namespace ptm

#endif // PTM_CACHE_TLB_HH
