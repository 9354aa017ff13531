/**
 * @file
 * Space-saving top-K counters and the contention heatmap.
 */

#include "ptm/heatmap.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace ptm
{

SpaceSavingTopK::SpaceSavingTopK(unsigned capacity)
    : capacity_(capacity ? capacity : 1)
{
    entries_.reserve(capacity_);
    index_.reserve(capacity_);
}

void
SpaceSavingTopK::record(std::uint64_t key, std::uint64_t n)
{
    total_ += n;
    auto it = index_.find(key);
    if (it != index_.end()) {
        entries_[it->second].count += n;
        return;
    }
    if (entries_.size() < capacity_) {
        index_[key] = entries_.size();
        entries_.push_back({key, n, 0});
        return;
    }
    // Replace the minimum-count entry (smallest key on ties, so the
    // choice never depends on insertion history beyond the counts).
    std::size_t victim = 0;
    for (std::size_t i = 1; i < entries_.size(); ++i) {
        if (entries_[i].count < entries_[victim].count ||
            (entries_[i].count == entries_[victim].count &&
             entries_[i].key < entries_[victim].key))
            victim = i;
    }
    Entry &e = entries_[victim];
    index_.erase(e.key);
    e.error = e.count; // the new key inherits the victim's count
    e.count += n;
    e.key = key;
    index_[key] = victim;
}

std::vector<SpaceSavingTopK::Entry>
SpaceSavingTopK::top() const
{
    std::vector<Entry> out = entries_;
    std::sort(out.begin(), out.end(), [](const Entry &a, const Entry &b) {
        if (a.count != b.count)
            return a.count > b.count;
        return a.key < b.key;
    });
    return out;
}

const char *
heatAbortCauseName(unsigned cause)
{
    // Mirrors AbortReason's enumerator order (tx/tx_manager.hh).
    switch (cause) {
      case 0: return "conflict";
      case 1: return "nontx";
      case 2: return "multiwriter";
      case 3: return "explicit";
    }
    panic("bad abort cause %u", cause);
}

ContentionHeatmap::ContentionHeatmap(unsigned top_k)
    : k_(top_k ? top_k : 1), conflictPages_(k_), conflictBlocks_(k_),
      abortPages_{SpaceSavingTopK(k_), SpaceSavingTopK(k_),
                  SpaceSavingTopK(k_), SpaceSavingTopK(k_)},
      sptMiss_(k_), tavMiss_(k_), shadowAlloc_(k_)
{
    static_assert(heatAbortCauses == 4,
                  "abortPages_ initializer must match heatAbortCauses");
}

void
ContentionHeatmap::observe(const TraceEvent &e)
{
    // Record payloads carry 0 for "no address".
    switch (e.type) {
      case TraceEventType::ConflictEdge:
        recordConflict(e.a0 ? e.a0 : invalidAddr);
        break;
      case TraceEventType::TxAbort:
        recordAbort(unsigned(e.a0), e.a1 ? e.a1 : invalidAddr);
        break;
      case TraceEventType::SptMiss:
        sptMiss_.record(e.a0);
        break;
      case TraceEventType::TavMiss:
        tavMiss_.record(e.a0);
        break;
      case TraceEventType::ShadowAlloc:
        shadowAlloc_.record(e.a0);
        break;
      default:
        break;
    }
}

void
ContentionHeatmap::recordConflict(Addr where)
{
    if (where == invalidAddr) {
        conflictPages_.record(invalidPage);
        conflictBlocks_.record(invalidAddr);
        return;
    }
    conflictPages_.record(pageOf(where));
    conflictBlocks_.record(blockAlign(where));
}

void
ContentionHeatmap::recordAbort(unsigned cause, Addr where)
{
    panic_if(cause >= heatAbortCauses, "bad abort cause %u", cause);
    abortPages_[cause].record(where == invalidAddr ? invalidPage
                                                   : pageOf(where));
}

HeatmapSnapshot
ContentionHeatmap::snapshot() const
{
    HeatmapSnapshot s;
    s.enabled = true;
    s.k = k_;
    s.conflictPages = conflictPages_.top();
    s.conflictBlocks = conflictBlocks_.top();
    for (unsigned c = 0; c < heatAbortCauses; ++c) {
        s.abortPages[c] = abortPages_[c].top();
        s.abortsTotal[c] = abortPages_[c].total();
    }
    s.sptMissPages = sptMiss_.top();
    s.tavMissPages = tavMiss_.top();
    s.shadowAllocPages = shadowAlloc_.top();
    s.conflictsTotal = conflictPages_.total();
    s.sptMissTotal = sptMiss_.total();
    s.tavMissTotal = tavMiss_.total();
    s.shadowAllocTotal = shadowAlloc_.total();
    return s;
}

std::string
ContentionHeatmap::hotPagesJson(unsigned n) const
{
    std::vector<SpaceSavingTopK::Entry> pages = conflictPages_.top();
    if (pages.size() > n)
        pages.resize(n);
    std::string out = "[";
    for (std::size_t i = 0; i < pages.size(); ++i) {
        if (i)
            out += ",";
        if (pages[i].key == invalidPage)
            out += strprintf("{\"page\":-1,\"count\":%llu,\"err\":%llu}",
                             (unsigned long long)pages[i].count,
                             (unsigned long long)pages[i].error);
        else
            out += strprintf("{\"page\":%llu,\"count\":%llu,"
                             "\"err\":%llu}",
                             (unsigned long long)pages[i].key,
                             (unsigned long long)pages[i].count,
                             (unsigned long long)pages[i].error);
    }
    out += "]";
    return out;
}

} // namespace ptm
