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

namespace
{

/** Node cap per report (maxAborts roots x generations chains). */
constexpr std::size_t maxNodes = 64;

/** Most recent abort of @p id strictly before @p bound, or null. */
const FlightAbortEvent *
lastAbortBefore(const FlightRecords &f, TxId id, Tick bound)
{
    const FlightRecord *rec = f.find(id);
    if (!rec)
        return nullptr;
    for (unsigned i = 0; i < rec->storedAborts(); ++i) {
        const FlightAbortEvent &ev = rec->recentAbort(i);
        if (ev.tick < bound)
            return &ev;
    }
    return nullptr;
}

/** Depth of the latest-killer chain starting at @p rec. */
unsigned
chainDepthOf(const FlightRecords &f, const FlightRecord &rec)
{
    unsigned depth = 0;
    TxId tx = rec.id;
    Tick bound = ~Tick(0);
    while (depth < FlightRecorder::generations) {
        const FlightAbortEvent *ev = lastAbortBefore(f, tx, bound);
        if (!ev || ev->winner == invalidTxId)
            break;
        ++depth;
        bound = ev->tick;
        tx = ev->winner;
    }
    return depth;
}

void
buildDag(const FlightRecords &f, PostmortemReport &r, Tick now)
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
    if (const FlightRecord *subject = f.find(r.subject)) {
        Tick bound = now + 1;
        for (unsigned i = 0; i < subject->storedAborts(); ++i) {
            const FlightAbortEvent &ev = subject->recentAbort(i);
            if (ev.tick >= bound)
                continue;
            std::size_t idx = r.nodes.size();
            r.nodes.push_back({ev, r.subject, 0});
            if (ev.winner != invalidTxId)
                queue.push_back({ev.winner, ev.tick, 1, idx});
            bound = ev.tick;
        }
    }
    if (r.nodes.empty()) {
        // Subject unknown or never aborted: a single terminal node.
        r.nodes.push_back({{}, r.subject, 0});
    }
    for (std::size_t qi = 0;
         qi < queue.size() && r.nodes.size() < maxNodes; ++qi) {
        Work w = queue[qi];
        const FlightAbortEvent *ev = lastAbortBefore(f, w.tx, w.bound);
        PostmortemNode n{ev ? *ev : FlightAbortEvent(), w.tx, w.gen};
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
            w.gen < FlightRecorder::generations)
            queue.push_back({ev->winner, ev->tick, w.gen + 1, idx});
    }

    // Attach the flight records of every involved transaction.
    std::vector<TxId> ids;
    for (const PostmortemNode &n : r.nodes)
        ids.push_back(n.tx);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    for (TxId id : ids)
        if (const FlightRecord *rec = f.find(id))
            r.records.push_back(*rec);
}

} // namespace

FlightRecorder::FlightRecorder(const Tracer &ring, bool armed)
    : tracer_(ring), armed_(armed)
{
}

void
FlightRecorder::regStats(StatRegistry &reg)
{
    StatGroup &g = reg.addGroup("flightrec");
    g.addCounter("dropped_records", &tracer_.droppedCounter(),
                 "ring events overwritten (forensic history "
                 "truncated)");
    g.addCounter("postmortems", &postmortems,
                 "post-mortem reports captured");
    g.addCounter("dropped_reports", &droppedReports,
                 "triggers dropped at the per-run report cap");
}

FlightRecords
FlightRecorder::fold() const
{
    FlightRecords f;
    f.reserve(64);
    // A transaction whose begin left the ring (or a winner seen only
    // as a killer) is first sighted through another record.
    auto rec = [&f](TxId id) -> FlightRecord & {
        FlightRecord &r = f[id];
        r.id = id;
        return r;
    };
    for (const TraceEvent &e : tracer_.snapshot()) {
        switch (e.type) {
          case TraceEventType::TxBegin: {
            FlightRecord &r = rec(e.tx);
            r.thread = e.thread;
            r.proc = ProcId(e.a2);
            r.firstBegin = e.tick;
            r.lastBegin = e.tick;
            r.attempts = 1;
            break;
          }
          case TraceEventType::TxRestart: {
            FlightRecord &r = rec(e.tx);
            r.lastBegin = e.tick;
            r.attempts = unsigned(e.a0);
            break;
          }
          case TraceEventType::TxCommit:
            if (FlightRecord *r = f.find(e.tx)) {
                r->endTick = e.tick;
                r->committed = true;
            }
            break;
          case TraceEventType::TxAbort: {
            FlightRecord &r = rec(e.tx);
            FlightAbortEvent &ev =
                r.recentAborts[r.abortCount % FlightRecord::maxAborts];
            ev.tick = e.tick;
            ev.attempt = r.attempts;
            ev.cause = std::uint8_t(e.a0);
            ev.where = e.a1 ? e.a1 : invalidAddr;
            ev.winner = e.tx2;
            ++r.abortCount;
            r.lostTicks += e.tick - e.a2;
            // After the last use of `r`: inserting the winner may
            // move it.
            if (e.tx2 != invalidTxId)
                ++rec(e.tx2).kills;
            break;
          }
          case TraceEventType::SptMiss:
            if (e.tx != invalidTxId)
                ++rec(e.tx).sptMisses;
            break;
          case TraceEventType::TavMiss:
            if (e.tx != invalidTxId)
                ++rec(e.tx).tavMisses;
            break;
          case TraceEventType::ShadowAlloc:
            if (e.tx != invalidTxId)
                ++rec(e.tx).shadowAllocs;
            break;
          default:
            break;
        }
    }
    return f;
}

void
FlightRecorder::observe(const TraceEvent &e)
{
    if (e.type == TraceEventType::WatchdogTrip)
        trigger(PostmortemTrigger::Watchdog, e.tx, e.tick,
                "watchdog trip after " + std::to_string(e.a0) +
                    " consecutive aborts");
    else if (e.type == TraceEventType::StarvationGrant)
        trigger(PostmortemTrigger::StarvationGrant, e.tx, e.tick,
                "starvation token granted after " +
                    std::to_string(e.a0) + " consecutive aborts");
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
    FlightRecords f = fold();
    PostmortemReport r;
    r.trigger = t;
    r.tick = now;
    r.subject = subject;
    r.detail = std::move(detail);
    buildDag(f, r, now);
    f.forEach([&r](TxId, const FlightRecord &rec) {
        ++(rec.committed ? r.retiredTxs : r.liveTxs);
    });
    r.droppedRecords = tracer_.dropped();
    ++postmortems;
    reports_.push_back(std::move(r));
    if (onReport)
        onReport(reports_.back());
}

ForensicsSnapshot
FlightRecorder::snapshot() const
{
    FlightRecords f = fold();
    ForensicsSnapshot s;
    s.enabled = true;
    s.armed = armed_;
    s.depth = depth();
    s.droppedRecords = tracer_.dropped();
    s.postmortems = postmortems.value();
    s.droppedReports = droppedReports.value();

    // Deterministic walk: collect all records and order by id (FlatMap
    // iteration order is unspecified).
    std::vector<const FlightRecord *> recs;
    f.forEach([&](TxId, const FlightRecord &rec) {
        recs.push_back(&rec);
        ++(rec.committed ? s.retiredTxs : s.liveTxs);
    });
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
                std::max(s.deepestChain, chainDepthOf(f, *rec));
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
