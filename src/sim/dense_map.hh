/**
 * @file
 * Direct-indexed map for dense, bounded integer keys.
 *
 * PTM's physically indexed tables have keys the simulator hands out
 * from a small range: SPT entries are keyed by home frame (frames are
 * allocated from 0 upward) and per-transaction state by TxId (ids are
 * sequential from 1). DenseMap indexes such keys directly instead of
 * hashing them: an index array, grown on demand to the largest key
 * the run has used, maps a key to a slot of a slab holding the values.
 * A lookup is one bounds check and two array reads; nothing is sized
 * up front, so the index tracks the key range the run touched (4 bytes
 * per key) and the slab the most values live at once.
 *
 * The interface is FlatMap's subset (find / operator[] / at / erase /
 * size / forEach), with forEach in ascending key order. Invalidation:
 * an insertion may grow the slab, so references and pointers into the
 * map are only stable while no other element is inserted; an erase
 * moves nothing.
 */

#ifndef PTM_SIM_DENSE_MAP_HH
#define PTM_SIM_DENSE_MAP_HH

#include <cstdint>
#include <vector>

#include "sim/logging.hh"

namespace ptm
{

/**
 * Map from a dense integer-like key to T. Mapped values must be
 * default-constructible and movable (an erased slot is reset to a
 * default-constructed T and reused by the next insertion).
 */
template <typename Key, typename T>
class DenseMap
{
  public:
    std::size_t size() const { return size_; }

    /** Pointer to the mapped value of @p key, or nullptr. */
    T *
    find(const Key &key)
    {
        const std::uint32_t s = slotOf(key);
        return s ? &slab_[s - 1] : nullptr;
    }

    const T *
    find(const Key &key) const
    {
        const std::uint32_t s = slotOf(key);
        return s ? &slab_[s - 1] : nullptr;
    }

    /** Mapped value of @p key; inserts a default-constructed T. */
    T &
    operator[](const Key &key)
    {
        const std::size_t k = std::size_t(key);
        if (k >= index_.size())
            index_.resize(k + 1, 0);
        std::uint32_t &s = index_[k];
        if (!s) {
            if (free_.empty()) {
                slab_.emplace_back();
                s = std::uint32_t(slab_.size());
            } else {
                s = free_.back();
                free_.pop_back();
            }
            ++size_;
        }
        return slab_[s - 1];
    }

    /** Mapped value of @p key, which must be present. */
    T &
    at(const Key &key)
    {
        T *v = find(key);
        panic_if(!v, "DenseMap::at: key not present");
        return *v;
    }

    /** Remove @p key if present. @return true if an element was erased. */
    bool
    erase(const Key &key)
    {
        const std::uint32_t s = slotOf(key);
        if (!s)
            return false;
        slab_[s - 1] = T{};
        free_.push_back(s);
        index_[std::size_t(key)] = 0;
        --size_;
        return true;
    }

    /**
     * Apply @p fn(key, value&) to every element in ascending key
     * order. @p fn must not insert into or erase from this map.
     */
    template <typename F>
    void
    forEach(F &&fn)
    {
        for (std::size_t k = 0; k < index_.size(); ++k)
            if (index_[k])
                fn(Key(k), slab_[index_[k] - 1]);
    }

  private:
    /** Slab slot + 1 of @p key, 0 when absent. */
    std::uint32_t
    slotOf(const Key &key) const
    {
        const std::size_t k = std::size_t(key);
        return k < index_.size() ? index_[k] : 0;
    }

    /** Key -> slab slot + 1 (0: absent), up to the largest key used. */
    std::vector<std::uint32_t> index_;
    std::vector<T> slab_;
    /** Slots (+ 1) of erased values, reused before the slab grows. */
    std::vector<std::uint32_t> free_;
    std::size_t size_ = 0;
};

} // namespace ptm

#endif // PTM_SIM_DENSE_MAP_HH
