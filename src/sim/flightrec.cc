/**
 * @file
 * FlightRecorder implementation.
 */

#include "sim/flightrec.hh"

#include <algorithm>
#include <string>

namespace ptm
{

const char *
postmortemTriggerName(PostmortemTrigger t)
{
    switch (t) {
      case PostmortemTrigger::Watchdog:
        return "watchdog";
      case PostmortemTrigger::StarvationGrant:
        return "starvation-grant";
      case PostmortemTrigger::AuditViolation:
        return "audit-violation";
      case PostmortemTrigger::ChaosInject:
        return "chaos-inject";
      case PostmortemTrigger::AbortThreshold:
        return "abort-threshold";
    }
    return "?";
}

FlightRecorder::FlightRecorder(const ForensicsParams &params)
    : params_(params), armed_(params.armed())
{
    live_.reserve(64);
    ring_.reserve(params_.depth);
}

void
FlightRecorder::regStats(StatRegistry &reg)
{
    StatGroup &g = reg.addGroup("flightrec");
    g.addCounter("retired", &retiredRecords,
                 "transaction records retired into the ring");
    g.addCounter("dropped_records", &droppedRecords,
                 "retired records evicted from the ring "
                 "(forensic history truncated)");
    g.addCounter("postmortems", &postmortems,
                 "post-mortem reports captured");
    g.addCounter("dropped_reports", &droppedReports,
                 "triggers dropped at the per-run report cap");
}

FlightRecord &
FlightRecorder::liveRecord(TxId id)
{
    FlightRecord &rec = live_[id];
    if (rec.id == invalidTxId)
        rec.id = id; // first sighting through a non-begin hook
    return rec;
}

void
FlightRecorder::onBegin(TxId id, ThreadId thread, ProcId proc, Tick now)
{
    FlightRecord &rec = live_[id];
    rec.id = id;
    rec.thread = thread;
    rec.proc = proc;
    rec.firstBegin = now;
    rec.lastBegin = now;
    rec.attempts = 1;
}

void
FlightRecorder::observe(const TraceEvent &e)
{
    switch (e.type) {
      case TraceEventType::TxBegin:
        onBegin(e.tx, e.thread, ProcId(e.a2), e.tick);
        break;
      case TraceEventType::TxRestart: {
        FlightRecord &rec = liveRecord(e.tx);
        rec.lastBegin = e.tick;
        rec.attempts = unsigned(e.a0);
        break;
      }
      case TraceEventType::TxCommit:
        onCommit(e.tx, e.tick);
        break;
      case TraceEventType::TxAbort:
        onAbort(e.tx, e.tick, e.a2, std::uint8_t(e.a0),
                e.a1 ? e.a1 : invalidAddr, e.tx2);
        break;
      case TraceEventType::SptMiss:
        if (e.tx != invalidTxId)
            ++liveRecord(e.tx).sptMisses;
        break;
      case TraceEventType::TavMiss:
        if (e.tx != invalidTxId)
            ++liveRecord(e.tx).tavMisses;
        break;
      case TraceEventType::ShadowAlloc:
        if (e.tx != invalidTxId)
            ++liveRecord(e.tx).shadowAllocs;
        break;
      // Triggers: the armed_ guard keeps unarmed runs from formatting.
      case TraceEventType::WatchdogTrip:
        if (armed_)
            trigger(PostmortemTrigger::Watchdog, e.tx, e.tick,
                    "watchdog trip after " + std::to_string(e.a0) +
                        " consecutive aborts");
        break;
      case TraceEventType::StarvationGrant:
        if (armed_)
            trigger(PostmortemTrigger::StarvationGrant, e.tx, e.tick,
                    "starvation token granted after " +
                        std::to_string(e.a0) + " consecutive aborts");
        break;
      default:
        break;
    }
}

void
FlightRecorder::onAbort(TxId id, Tick now, Tick begin,
                        std::uint8_t cause, Addr where, TxId winner)
{
    FlightRecord &rec = liveRecord(id);
    FlightAbortEvent &ev =
        rec.recentAborts[rec.abortCount % FlightRecord::maxAborts];
    ev.tick = now;
    ev.attempt = rec.attempts;
    ev.cause = cause;
    ev.where = where;
    ev.winner = winner;
    ++rec.abortCount;
    rec.lostTicks += now - begin;
    // `rec` may dangle after the winner lookup below (FlatMap
    // insertion can rehash), so read what the trigger needs first.
    unsigned abort_count = rec.abortCount;
    if (winner != invalidTxId)
        ++liveRecord(winner).kills;
    if (armed_ && params_.onAbortThreshold &&
        abort_count == params_.onAbortThreshold) {
        trigger(PostmortemTrigger::AbortThreshold, id, now,
                "transaction reached --postmortem-on-abort=" +
                    std::to_string(params_.onAbortThreshold));
    }
}

void
FlightRecorder::onCommit(TxId id, Tick now)
{
    FlightRecord *rec = live_.find(id);
    if (!rec)
        return;
    rec->endTick = now;
    rec->committed = true;
    // Retire into the ring; evicting a valid record truncates history,
    // so count the drop.
    if (ring_.size() < params_.depth) {
        ring_.push_back(*rec);
    } else {
        FlightRecord &slot = ring_[ring_next_];
        ring_next_ = (ring_next_ + 1) % ring_.size();
        ++droppedRecords;
        slot = *rec;
    }
    ++retiredRecords;
    live_.erase(id);
}

const FlightRecord *
FlightRecorder::record(TxId id) const
{
    if (const FlightRecord *rec = live_.find(id))
        return rec;
    // Newest-to-oldest ring scan (bounded by depth; trigger/snapshot
    // paths only).
    for (std::size_t i = ring_.size(); i-- > 0;) {
        std::size_t at = (ring_next_ + i) % ring_.size();
        if (ring_[at].id == id)
            return &ring_[at];
    }
    return nullptr;
}

const FlightAbortEvent *
FlightRecorder::lastAbortBefore(TxId id, Tick bound) const
{
    const FlightRecord *rec = record(id);
    if (!rec)
        return nullptr;
    for (unsigned i = 0; i < rec->storedAborts(); ++i) {
        const FlightAbortEvent &ev = rec->recentAbort(i);
        if (ev.tick < bound)
            return &ev;
    }
    return nullptr;
}

unsigned
FlightRecorder::chainDepthOf(const FlightRecord &rec) const
{
    unsigned depth = 0;
    TxId tx = rec.id;
    Tick bound = ~Tick(0);
    while (depth < generations) {
        const FlightAbortEvent *ev = lastAbortBefore(tx, bound);
        if (!ev || ev->winner == invalidTxId)
            break;
        ++depth;
        bound = ev->tick;
        tx = ev->winner;
    }
    return depth;
}

void
FlightRecorder::buildDag(PostmortemReport &r, Tick now) const
{
    // Roots: every retained abort event of the subject. Each root
    // expands along latest-killer-before links, so edge targets have
    // strictly earlier ticks than their sources (acyclic by
    // construction; killers whose own aborts are unrecorded become
    // terminal nodes).
    struct Work
    {
        TxId tx;
        Tick bound;    //!< only aborts strictly before this tick
        unsigned gen;
        std::size_t from; //!< parent node index; npos for roots
    };
    constexpr std::size_t npos = ~std::size_t(0);
    std::vector<Work> queue;
    const FlightRecord *subject = record(r.subject);
    if (subject) {
        Tick bound = now + 1;
        for (unsigned i = 0; i < subject->storedAborts(); ++i) {
            const FlightAbortEvent &ev = subject->recentAbort(i);
            if (ev.tick >= bound)
                continue;
            PostmortemNode n;
            n.tx = r.subject;
            n.tick = ev.tick;
            n.attempt = ev.attempt;
            n.cause = ev.cause;
            n.where = ev.where;
            n.winner = ev.winner;
            n.generation = 0;
            std::size_t idx = r.nodes.size();
            r.nodes.push_back(n);
            if (ev.winner != invalidTxId)
                queue.push_back({ev.winner, ev.tick, 1, idx});
            bound = ev.tick;
        }
    }
    if (r.nodes.empty()) {
        // Subject unknown or never aborted: a single terminal node.
        PostmortemNode n;
        n.tx = r.subject;
        r.nodes.push_back(n);
    }
    for (std::size_t qi = 0;
         qi < queue.size() && r.nodes.size() < maxNodes; ++qi) {
        Work w = queue[qi];
        const FlightAbortEvent *ev = lastAbortBefore(w.tx, w.bound);
        PostmortemNode n;
        n.tx = w.tx;
        n.generation = w.gen;
        if (ev) {
            n.tick = ev->tick;
            n.attempt = ev->attempt;
            n.cause = ev->cause;
            n.where = ev->where;
            n.winner = ev->winner;
        }
        // Dedup: the same (tx, tick) event reached along another path
        // just gains an edge.
        std::size_t idx = npos;
        for (std::size_t i = 0; i < r.nodes.size(); ++i) {
            if (r.nodes[i].tx == n.tx && r.nodes[i].tick == n.tick) {
                idx = i;
                break;
            }
        }
        bool fresh = idx == npos;
        if (fresh) {
            idx = r.nodes.size();
            r.nodes.push_back(n);
        }
        if (w.from != npos)
            r.edges.push_back({w.from, idx});
        r.chainDepth = std::max(r.chainDepth, w.gen);
        if (fresh && ev && ev->winner != invalidTxId &&
            w.gen < generations)
            queue.push_back({ev->winner, ev->tick, w.gen + 1, idx});
    }

    // Attach the flight records of every involved transaction.
    std::vector<TxId> ids;
    for (const PostmortemNode &n : r.nodes)
        ids.push_back(n.tx);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    for (TxId id : ids)
        if (const FlightRecord *rec = record(id))
            r.records.push_back(*rec);
}

void
FlightRecorder::trigger(PostmortemTrigger t, TxId subject, Tick now,
                        std::string detail)
{
    if (!armed_)
        return;
    if (reports_.size() >= maxReports) {
        ++droppedReports;
        return;
    }
    PostmortemReport r;
    r.trigger = t;
    r.tick = now;
    r.subject = subject;
    r.detail = std::move(detail);
    buildDag(r, now);
    ++postmortems;
    reports_.push_back(std::move(r));
    if (onReport)
        onReport(reports_.back());
}

ForensicsSnapshot
FlightRecorder::snapshot() const
{
    ForensicsSnapshot s;
    s.enabled = true;
    s.armed = armed_;
    s.depth = params_.depth;
    s.liveRecords = live_.size();
    s.retiredRecords = ring_.size();
    s.droppedRecords = droppedRecords.value();
    s.postmortems = postmortems.value();
    s.droppedReports = droppedReports.value();
    s.reports = reports_;

    // Deterministic walk: collect all records and order by id (FlatMap
    // iteration order is unspecified).
    std::vector<const FlightRecord *> recs;
    live_.forEach([&](TxId, const FlightRecord &rec) {
        recs.push_back(&rec);
    });
    for (const FlightRecord &rec : ring_)
        recs.push_back(&rec);
    std::sort(recs.begin(), recs.end(),
              [](const FlightRecord *a, const FlightRecord *b) {
                  return a->id < b->id;
              });

    for (const FlightRecord *rec : recs) {
        if (rec->lostTicks > s.maxLostTicks) {
            s.maxLostTicks = rec->lostTicks;
            s.maxLostTx = rec->id;
        }
        if (rec->abortCount)
            s.deepestChain =
                std::max(s.deepestChain, chainDepthOf(*rec));
    }
    for (const PostmortemReport &r : reports_)
        s.deepestChain = std::max(s.deepestChain, r.chainDepth);

    std::vector<KillerRank> killers;
    for (const FlightRecord *rec : recs)
        if (rec->kills)
            killers.push_back({rec->id, rec->kills, rec->lostTicks});
    std::sort(killers.begin(), killers.end(),
              [](const KillerRank &a, const KillerRank &b) {
                  if (a.kills != b.kills)
                      return a.kills > b.kills;
                  return a.tx < b.tx;
              });
    if (killers.size() > 5)
        killers.resize(5);
    s.topKillers = std::move(killers);
    return s;
}

} // namespace ptm
