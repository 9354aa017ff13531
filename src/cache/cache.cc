/**
 * @file
 * CacheArray / L1Filter implementation.
 */

#include "cache/cache.hh"

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
    lines_.resize(lines);
}

unsigned
CacheArray::setIndex(Addr block_addr) const
{
    return unsigned((block_addr >> blockShift) & (num_sets_ - 1));
}

CacheLine *
CacheArray::find(Addr block_addr)
{
    unsigned set = setIndex(block_addr);
    for (unsigned w = 0; w < assoc_; ++w) {
        CacheLine &l = lines_[size_t(set) * assoc_ + w];
        if (l.valid() && l.addr == block_addr)
            return &l;
    }
    return nullptr;
}

const CacheLine *
CacheArray::find(Addr block_addr) const
{
    return const_cast<CacheArray *>(this)->find(block_addr);
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

unsigned
L1Filter::setIndex(Addr block_addr) const
{
    return unsigned((block_addr >> blockShift) & (num_sets_ - 1));
}

L1Filter::Entry *
L1Filter::peek(Addr block_addr)
{
    unsigned set = setIndex(block_addr);
    for (unsigned w = 0; w < assoc_; ++w) {
        Entry &e = entries_[size_t(set) * assoc_ + w];
        if (e.valid && e.addr == block_addr)
            return &e;
    }
    return nullptr;
}

L1Filter::Entry *
L1Filter::find(Addr block_addr)
{
    Entry *e = peek(block_addr);
    if (e)
        e->lastUse = ++use_clock_;
    return e;
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
