/**
 * @file
 * Fully-associative LRU map: the replacement policy of every
 * fully-associative structure of the simulated machine (the TLB, the
 * VTS's SPT and TAV caches, VTM's XADC and VC-VTM's victim cache).
 *
 * Entries live in a slab indexed by a FlatMap and are threaded on an
 * intrusive doubly-linked list in recency order, so lookup, insert,
 * erase and eviction are O(1) and the LRU victim is the list tail —
 * the entry a scan for the minimum use stamp would pick, since use
 * stamps are unique.
 */

#ifndef PTM_SIM_LRU_MAP_HH
#define PTM_SIM_LRU_MAP_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/flat_map.hh"

namespace ptm
{

/** Value of an LruMap that only tracks which keys are resident. */
struct LruNoValue
{};

/**
 * LRU map from a uint64 key to one V per entry, holding at most
 * capacity() entries. Insert, erase and popLru hand the entry that
 * leaves back to the caller, which does its own accounting (write-back
 * counters, memory traffic).
 */
template <typename V = LruNoValue>
class LruMap
{
  public:
    struct Entry
    {
        std::uint64_t key = 0;
        V value{};
    };

    explicit LruMap(std::size_t capacity) : capacity_(capacity)
    {
        slab_.reserve(capacity);
        index_.reserve(capacity);
    }

    std::size_t size() const { return index_.size(); }
    std::size_t capacity() const { return capacity_; }

    /**
     * Change the capacity. Entries beyond a smaller capacity stay
     * until the caller pops them (popLru) or the next insert evicts.
     */
    void setCapacity(std::size_t capacity) { capacity_ = capacity; }

    /**
     * The value of @p key, made most recently used, or nullptr. The
     * MRU head is checked before the index: touching it is a no-op.
     */
    V *
    find(std::uint64_t key)
    {
        if (head_ != nil && slab_[head_].e.key == key)
            return &slab_[head_].e.value;
        std::uint32_t *slot = index_.find(key);
        if (!slot)
            return nullptr;
        std::uint32_t i = *slot;
        if (head_ != i) {
            unlink(i);
            pushFront(i);
        }
        return &slab_[i].e.value;
    }

    /**
     * Set @p key to @p value and make it most recently used. Inserting
     * an absent key into a full map first evicts the LRU entry.
     * @return the evicted entry, if any
     */
    std::optional<Entry>
    insert(std::uint64_t key, V value)
    {
        if (V *v = find(key)) {
            *v = std::move(value);
            return std::nullopt;
        }
        std::optional<Entry> evicted;
        if (size() >= capacity_)
            evicted = popLru();
        std::uint32_t i;
        if (!free_.empty()) {
            i = free_.back();
            free_.pop_back();
        } else {
            i = std::uint32_t(slab_.size());
            slab_.emplace_back();
        }
        slab_[i].e = Entry{key, std::move(value)};
        pushFront(i);
        index_[key] = i;
        return evicted;
    }

    /** Remove @p key. @return the removed entry, if it was present. */
    std::optional<Entry>
    erase(std::uint64_t key)
    {
        std::uint32_t *slot = index_.find(key);
        if (!slot)
            return std::nullopt;
        return remove(*slot);
    }

    /** Remove the LRU entry. @return it, or nothing if empty. */
    std::optional<Entry>
    popLru()
    {
        if (tail_ == nil)
            return std::nullopt;
        return remove(tail_);
    }

  private:
    static constexpr std::uint32_t nil = ~std::uint32_t(0);

    struct Node
    {
        Entry e;
        std::uint32_t prev = nil;
        std::uint32_t next = nil;
    };

    Entry
    remove(std::uint32_t i)
    {
        unlink(i);
        index_.erase(slab_[i].e.key);
        free_.push_back(i);
        return std::move(slab_[i].e);
    }

    void
    unlink(std::uint32_t i)
    {
        Node &n = slab_[i];
        if (n.prev != nil)
            slab_[n.prev].next = n.next;
        else
            head_ = n.next;
        if (n.next != nil)
            slab_[n.next].prev = n.prev;
        else
            tail_ = n.prev;
        n.prev = n.next = nil;
    }

    void
    pushFront(std::uint32_t i)
    {
        Node &n = slab_[i];
        n.prev = nil;
        n.next = head_;
        if (head_ != nil)
            slab_[head_].prev = i;
        head_ = i;
        if (tail_ == nil)
            tail_ = i;
    }

    std::size_t capacity_;
    std::vector<Node> slab_;            //!< index_ maps keys into it
    std::vector<std::uint32_t> free_;   //!< recycled slab slots
    std::uint32_t head_ = nil;          //!< most recently used
    std::uint32_t tail_ = nil;          //!< LRU victim
    FlatMap<std::uint64_t, std::uint32_t> index_;
};

} // namespace ptm

#endif // PTM_SIM_LRU_MAP_HH
