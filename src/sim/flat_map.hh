/**
 * @file
 * Open-addressing hash map for the simulator's hot lookup paths.
 *
 * std::unordered_map pays one heap allocation per node and a pointer
 * chase per probe; the simulator's hottest indices (SPT entries, TAV
 * list heads, metadata-cache tags, physical frames) are all keyed by
 * small integers and live on paths executed once or more per simulated
 * memory access. FlatMap stores slots contiguously, probes linearly
 * from a mixed hash, and erases by backward shifting, so lookups touch
 * one or two cache lines and erase leaves no tombstones.
 *
 * Semantics intentionally mirror the std::unordered_map subset the
 * simulator uses (find / operator[] / at / erase / size / forEach),
 * with one sharper invalidation rule: *any* insertion may rehash and
 * any erase may backward-shift, so references and pointers into the
 * map are only stable while no other element is inserted or erased.
 * Call sites must not hold a mapped reference across a mutation.
 */

#ifndef PTM_SIM_FLAT_MAP_HH
#define PTM_SIM_FLAT_MAP_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace ptm
{

/**
 * The splitmix64 finalizer: a cheap invertible 64-bit mix with full
 * avalanche. Used by FlatMap for probe distribution and by callers
 * that need to fold two ids into one well-distributed key.
 */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Open-addressing hash map from an integer-like key to T.
 *
 * Capacity is a power of two and the table grows before an insertion
 * would take the load above 3/4. With linear probing a lookup of a
 * missing key scans the whole cluster it lands in, about
 * (1 + 1/(1-a)^2)/2 slots at load a: 2.5 at 1/2, 8.5 at 3/4 but 32.5
 * at 7/8, and the miss is the common lookup of the sharer directory
 * and the metadata-cache indices. Keys and mapped values must be
 * default-constructible and movable (erased slots are reset to a
 * default-constructed state).
 */
template <typename Key, typename T>
class FlatMap
{
  public:
    FlatMap() = default;

    /** Pre-size so @p n elements fit without rehashing. */
    void
    reserve(std::size_t n)
    {
        std::size_t cap = minCapacity;
        while (cap * 3 / 4 < n)
            cap <<= 1;
        if (cap > slots_.size())
            rehash(cap);
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Pointer to the mapped value of @p key, or nullptr. */
    T *
    find(const Key &key)
    {
        if (empty())
            return nullptr;
        std::size_t i = findSlot(key);
        return i == npos ? nullptr : &slots_[i].value;
    }

    const T *
    find(const Key &key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    bool contains(const Key &key) const { return find(key) != nullptr; }

    /** Mapped value of @p key; inserts a default-constructed T. */
    T &
    operator[](const Key &key)
    {
        if (T *v = find(key))
            return *v;
        growIfNeeded();
        std::size_t i = insertSlot(key);
        ++size_;
        return slots_[i].value;
    }

    /** Mapped value of @p key, which must be present. */
    T &
    at(const Key &key)
    {
        T *v = find(key);
        panic_if(!v, "FlatMap::at: key not present");
        return *v;
    }

    const T &
    at(const Key &key) const
    {
        return const_cast<FlatMap *>(this)->at(key);
    }

    /**
     * Remove @p key if present (backward-shift deletion: later slots
     * of the probe chain move up, so no tombstones accumulate).
     * @return true if an element was erased.
     */
    bool
    erase(const Key &key)
    {
        if (empty())
            return false;
        std::size_t i = findSlot(key);
        if (i == npos)
            return false;
        const std::size_t mask = slots_.size() - 1;
        slots_[i] = Slot{};
        used_[i] = 0;
        std::size_t j = i;
        while (true) {
            j = (j + 1) & mask;
            if (!used_[j])
                break;
            std::size_t home = idealSlot(slots_[j].key);
            // The entry at j may move up to the hole at i only if its
            // probe chain started at or before i (circular order).
            if (((j - home) & mask) >= ((j - i) & mask)) {
                slots_[i] = std::move(slots_[j]);
                used_[i] = 1;
                slots_[j] = Slot{};
                used_[j] = 0;
                i = j;
            }
        }
        --size_;
        return true;
    }

    /** Drop every element (keeps the current capacity). */
    void
    clear()
    {
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            slots_[i] = Slot{};
            used_[i] = 0;
        }
        size_ = 0;
    }

    /**
     * Apply @p fn(key, value&) to every element, in unspecified order.
     * @p fn must not insert into or erase from this map.
     */
    template <typename F>
    void
    forEach(F &&fn)
    {
        for (std::size_t i = 0; i < slots_.size(); ++i)
            if (used_[i])
                fn(slots_[i].key, slots_[i].value);
    }

    template <typename F>
    void
    forEach(F &&fn) const
    {
        for (std::size_t i = 0; i < slots_.size(); ++i)
            if (used_[i])
                fn(slots_[i].key, slots_[i].value);
    }

  private:
    static constexpr std::size_t minCapacity = 16;
    static constexpr std::size_t npos = ~std::size_t(0);

    struct Slot
    {
        Key key{};
        T value{};
    };

    std::size_t
    idealSlot(const Key &key) const
    {
        return std::size_t(mix64(std::uint64_t(key))) &
               (slots_.size() - 1);
    }

    /** Index of @p key's slot, or npos. Capacity must be nonzero. */
    std::size_t
    findSlot(const Key &key) const
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = idealSlot(key);
        while (used_[i]) {
            if (slots_[i].key == key)
                return i;
            i = (i + 1) & mask;
        }
        return npos;
    }

    /** Claim the insertion slot for absent @p key; returns its index. */
    std::size_t
    insertSlot(const Key &key)
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = idealSlot(key);
        while (used_[i])
            i = (i + 1) & mask;
        slots_[i].key = key;
        used_[i] = 1;
        return i;
    }

    void
    growIfNeeded()
    {
        if (slots_.empty())
            rehash(minCapacity);
        else if ((size_ + 1) * 4 > slots_.size() * 3)
            rehash(slots_.size() * 2);
    }

    void
    rehash(std::size_t cap)
    {
        std::vector<Slot> old_slots = std::move(slots_);
        std::vector<std::uint8_t> old_used = std::move(used_);
        // vector(n) default-constructs: keeps move-only mapped types
        // (e.g. unique_ptr frames) usable.
        slots_ = std::vector<Slot>(cap);
        used_.assign(cap, 0);
        for (std::size_t i = 0; i < old_slots.size(); ++i) {
            if (!old_used[i])
                continue;
            std::size_t j = insertSlot(old_slots[i].key);
            slots_[j].value = std::move(old_slots[i].value);
        }
    }

    std::vector<Slot> slots_;
    std::vector<std::uint8_t> used_;
    std::size_t size_ = 0;
};

/**
 * Open-addressing hash set over FlatMap (integer-like keys). Covers
 * the simulator's unordered_set uses: membership tally of page keys.
 */
template <typename Key>
class FlatSet
{
  public:
    /** Add @p key. @return true if it was not yet present. */
    bool
    insert(const Key &key)
    {
        std::size_t before = map_.size();
        map_[key];
        return map_.size() != before;
    }

    bool contains(const Key &key) const { return map_.contains(key); }
    bool erase(const Key &key) { return map_.erase(key); }
    std::size_t size() const { return map_.size(); }
    bool empty() const { return map_.empty(); }
    void reserve(std::size_t n) { map_.reserve(n); }
    void clear() { map_.clear(); }

  private:
    struct Nothing
    {};
    FlatMap<Key, Nothing> map_;
};

} // namespace ptm

#endif // PTM_SIM_FLAT_MAP_HH
