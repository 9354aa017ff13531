/**
 * @file
 * Tracer ring buffer and trace-enum name tables.
 */

#include "sim/trace.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace ptm
{

const char *
traceEventTypeName(TraceEventType t)
{
    switch (t) {
      case TraceEventType::TxBegin: return "tx_begin";
      case TraceEventType::TxRestart: return "tx_restart";
      case TraceEventType::TxCommit: return "tx_commit";
      case TraceEventType::TxAbort: return "tx_abort";
      case TraceEventType::ConflictEdge: return "conflict_edge";
      case TraceEventType::SptHit: return "spt_hit";
      case TraceEventType::SptMiss: return "spt_miss";
      case TraceEventType::SptEvict: return "spt_evict";
      case TraceEventType::TavHit: return "tav_hit";
      case TraceEventType::TavMiss: return "tav_miss";
      case TraceEventType::TavEvict: return "tav_evict";
      case TraceEventType::WalkStart: return "walk_start";
      case TraceEventType::WalkEnd: return "walk_end";
      case TraceEventType::ShadowAlloc: return "shadow_alloc";
      case TraceEventType::ShadowFree: return "shadow_free";
      case TraceEventType::SelFlip: return "sel_flip";
      case TraceEventType::PageFault: return "page_fault";
      case TraceEventType::SwapOut: return "swap_out";
      case TraceEventType::SwapIn: return "swap_in";
      case TraceEventType::OverflowSpill: return "overflow_spill";
      case TraceEventType::LineEvict: return "line_evict";
      case TraceEventType::Writeback: return "writeback";
      case TraceEventType::CtxSwitch: return "ctx_switch";
      case TraceEventType::Watchpoint: return "watchpoint";
      case TraceEventType::ChaosInject: return "chaos_inject";
      case TraceEventType::WatchdogTrip: return "watchdog_trip";
      case TraceEventType::StarvationGrant: return "starvation_grant";
      case TraceEventType::WalAppend: return "wal_append";
      case TraceEventType::WalFlush: return "wal_flush";
      case TraceEventType::CrashCut: return "crash_cut";
    }
    return "unknown";
}

const char *
traceCatName(TraceCat c)
{
    switch (c) {
      case TraceCat::Tx: return "tx";
      case TraceCat::Conflict: return "conflict";
      case TraceCat::Meta: return "meta";
      case TraceCat::Page: return "page";
      case TraceCat::Cache: return "cache";
      case TraceCat::Os: return "os";
      case TraceCat::Watch: return "watch";
      case TraceCat::Chaos: return "chaos";
      case TraceCat::Persist: return "persist";
    }
    return "unknown";
}

const char *
watchKindName(WatchKind k)
{
    switch (k) {
      case WatchKind::Load: return "load";
      case WatchKind::Store: return "store";
      case WatchKind::Cas: return "cas";
      case WatchKind::Fill: return "fill";
      case WatchKind::SpecDeposit: return "spec-deposit";
      case WatchKind::Cwb: return "cwb";
      case WatchKind::Toggle: return "toggle";
      case WatchKind::Restore: return "restore";
      case WatchKind::Evict: return "evict";
    }
    return "unknown";
}

bool
parseTraceCategories(const std::string &s, std::uint32_t &mask)
{
    static const struct { const char *name; TraceCat cat; } kTable[] = {
        {"tx", TraceCat::Tx},         {"conflict", TraceCat::Conflict},
        {"meta", TraceCat::Meta},     {"page", TraceCat::Page},
        {"cache", TraceCat::Cache},   {"os", TraceCat::Os},
        {"watch", TraceCat::Watch},   {"chaos", TraceCat::Chaos},
        {"persist", TraceCat::Persist},
    };

    std::uint32_t out = 0;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        std::string tok = s.substr(pos, comma - pos);
        pos = comma + 1;
        if (tok.empty())
            continue;
        if (tok == "all") {
            out = traceCatAll;
            continue;
        }
        bool found = false;
        for (const auto &e : kTable) {
            if (tok == e.name) {
                out |= traceCatMask(e.cat);
                found = true;
                break;
            }
        }
        if (!found)
            return false;
    }
    mask = out;
    return true;
}

bool
parseTraceFormat(const std::string &s, TraceFormat &fmt)
{
    if (s == "jsonl") {
        fmt = TraceFormat::Jsonl;
        return true;
    }
    if (s == "chrome") {
        fmt = TraceFormat::Chrome;
        return true;
    }
    return false;
}

const char *
traceFormatName(TraceFormat fmt)
{
    return fmt == TraceFormat::Chrome ? "chrome" : "jsonl";
}

void
Tracer::configure(std::uint32_t mask, std::size_t capacity,
                  std::span<const TraceEventType> kept)
{
    mask_ = mask;
    capacity_ = capacity ? capacity : 1;
    buf_.clear();
    head_ = 0;
    recorded_ = 0;
    dropped_.reset();
    for (unsigned t = 0; t < traceEventTypes; ++t) {
        bool ring = mask_ & traceCatMask(traceEventCat(TraceEventType(t)));
        interest_[t] = std::uint8_t((interest_[t] & ~1u) | (ring ? 1u : 0u));
    }
    for (TraceEventType t : kept)
        interest_[unsigned(t)] |= 1u;
}

void
Tracer::subscribe(TraceObserver *obs,
                  std::initializer_list<TraceEventType> types)
{
    panic_if(observers_.size() >= 7, "too many trace observers");
    observers_.push_back(obs);
    auto bit = std::uint8_t(1u << observers_.size());
    for (TraceEventType t : types)
        interest_[unsigned(t)] |= bit;
}

void
Tracer::dispatch(const TraceEvent &e)
{
    unsigned bits = interest_[unsigned(e.type)];
    if (bits & 1u)
        push(e);
    for (TraceObserver *obs : observers_)
        if ((bits >>= 1) & 1u)
            obs->observe(e);
}

void
Tracer::push(const TraceEvent &e)
{
    ++recorded_;
    if (buf_.size() < capacity_) {
        // Grow by doubling, never past the capacity: a large ring
        // costs memory only once a run fills it.
        if (buf_.size() == buf_.capacity())
            buf_.reserve(std::min(capacity_, 2 * buf_.size() + 64));
        buf_.push_back(e);
        return;
    }
    // Full: overwrite the oldest slot, keep the newest events.
    buf_[head_] = e;
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
}

std::vector<TraceEvent>
Tracer::snapshot() const
{
    std::vector<TraceEvent> out;
    out.reserve(buf_.size());
    // head_ is the oldest slot once the ring has wrapped.
    for (std::size_t i = 0; i < buf_.size(); ++i)
        out.push_back(buf_[(head_ + i) % buf_.size()]);
    return out;
}

Tracer &
Tracer::nil()
{
    static Tracer t;
    return t;
}

} // namespace ptm
