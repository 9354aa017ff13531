/**
 * @file
 * CacheArray / L1Filter implementation.
 */

#include "cache/cache.hh"

#include <type_traits>

namespace ptm
{

const char *
moesiName(Moesi s)
{
    switch (s) {
      case Moesi::I:
        return "I";
      case Moesi::S:
        return "S";
      case Moesi::E:
        return "E";
      case Moesi::O:
        return "O";
      case Moesi::M:
        return "M";
    }
    return "?";
}

CacheArray::CacheArray(std::uint64_t bytes, unsigned assoc)
    : assoc_(assoc)
{
    fatal_if(assoc == 0, "cache associativity must be non-zero");
    std::uint64_t lines = bytes / blockBytes;
    fatal_if(lines % assoc != 0,
             "cache size not divisible by associativity");
    num_sets_ = unsigned(lines / assoc);
    fatal_if((num_sets_ & (num_sets_ - 1)) != 0,
             "number of cache sets must be a power of two");
    // calloc hands out lazily zeroed pages, so a line costs setup time
    // and host memory only once a run touches it. All-zero bytes are a
    // default CacheLine (invalid, unmarked, zero data), and CacheLine
    // is an implicit-lifetime aggregate, so the zeroed allocation
    // creates the lines.
    static_assert(std::is_aggregate_v<CacheLine>);
    std::size_t space = lines * sizeof(CacheLine) + alignof(CacheLine);
    storage_.reset(std::calloc(space, 1));
    if (!storage_)
        throw std::bad_alloc();
    void *p = storage_.get();
    lines_ = static_cast<CacheLine *>(std::align(
        alignof(CacheLine), lines * sizeof(CacheLine), p, space));
    tags_.resize(lines);
}

CacheArray::~CacheArray()
{
    // Spilled marks are the only resource a line owns, and only an
    // installed slot can carry marks.
    for (std::size_t i = 0; i < numLines(); ++i)
        if (tags_[i])
            lines_[i].clearTx();
}

CacheLine &
CacheArray::victim(Addr block_addr)
{
    unsigned set = setIndex(block_addr);
    CacheLine *lru = nullptr;
    for (unsigned w = 0; w < assoc_; ++w) {
        CacheLine &l = lines_[size_t(set) * assoc_ + w];
        if (!l.valid())
            return l;
        if (!lru || l.lastUse < lru->lastUse)
            lru = &l;
    }
    return *lru;
}

L1Filter::L1Filter(std::uint64_t bytes, unsigned assoc)
    : assoc_(assoc)
{
    fatal_if(assoc == 0, "L1 associativity must be non-zero");
    std::uint64_t lines = bytes / blockBytes;
    fatal_if(lines % assoc != 0, "L1 size not divisible by assoc");
    num_sets_ = unsigned(lines / assoc);
    fatal_if((num_sets_ & (num_sets_ - 1)) != 0,
             "number of L1 sets must be a power of two");
    entries_.resize(lines);
}

L1Filter::Entry &
L1Filter::insert(Addr block_addr)
{
    if (Entry *hit = find(block_addr))
        return *hit;
    unsigned set = setIndex(block_addr);
    Entry *victim = nullptr;
    for (unsigned w = 0; w < assoc_; ++w) {
        Entry &e = entries_[size_t(set) * assoc_ + w];
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (!victim || e.lastUse < victim->lastUse)
            victim = &e;
    }
    *victim = Entry{};
    victim->addr = block_addr;
    victim->valid = true;
    victim->lastUse = ++use_clock_;
    return *victim;
}

void
L1Filter::invalidate(Addr block_addr)
{
    unsigned set = setIndex(block_addr);
    for (unsigned w = 0; w < assoc_; ++w) {
        Entry &e = entries_[size_t(set) * assoc_ + w];
        if (e.valid && e.addr == block_addr)
            e.valid = false;
    }
}

void
L1Filter::downgrade(Addr block_addr)
{
    unsigned set = setIndex(block_addr);
    for (unsigned w = 0; w < assoc_; ++w) {
        Entry &e = entries_[size_t(set) * assoc_ + w];
        if (e.valid && e.addr == block_addr)
            e.writable = false;
    }
}

void
L1Filter::invalidateAll()
{
    for (auto &e : entries_)
        e.valid = false;
}

} // namespace ptm
