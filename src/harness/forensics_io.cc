#include "harness/forensics_io.hh"

#include <cinttypes>
#include <cstdint>
#include <cstdio>

#include "harness/stats_io.hh"
#include "ptm/heatmap.hh"

namespace ptm
{

namespace
{

void
emitAddr(JsonWriter &w, const char *key, Addr a)
{
    if (a == invalidAddr)
        w.member(key, std::int64_t(-1));
    else
        w.member(key, std::uint64_t(a));
}

void
emitTx(JsonWriter &w, const char *key, TxId tx)
{
    if (tx == invalidTxId)
        w.member(key, std::int64_t(-1));
    else
        w.member(key, std::uint64_t(tx));
}

void
emitAbortEvent(JsonWriter &w, const FlightAbortEvent &ev)
{
    w.beginObject();
    w.member("tick", std::uint64_t(ev.tick));
    w.member("attempt", ev.attempt);
    w.member("cause", heatAbortCauseName(ev.cause));
    emitAddr(w, "where", ev.where);
    emitTx(w, "winner", ev.winner);
    w.endObject();
}

void
emitRecord(JsonWriter &w, const FlightRecord &rec)
{
    w.beginObject();
    w.member("tx", std::uint64_t(rec.id));
    w.member("thread", std::uint64_t(rec.thread));
    w.member("proc", std::uint64_t(rec.proc));
    w.member("first_begin", std::uint64_t(rec.firstBegin));
    w.member("last_begin", std::uint64_t(rec.lastBegin));
    w.member("end_tick", std::uint64_t(rec.endTick));
    w.member("committed", rec.committed);
    w.member("attempts", rec.attempts);
    w.member("aborts", rec.abortCount);
    w.member("kills", rec.kills);
    w.member("spt_misses", rec.sptMisses);
    w.member("tav_misses", rec.tavMisses);
    w.member("shadow_allocs", rec.shadowAllocs);
    w.member("lost_ticks", std::uint64_t(rec.lostTicks));
    w.key("recent_aborts");
    w.beginArray();
    // Oldest-first so the array reads chronologically.
    for (unsigned i = rec.storedAborts(); i-- > 0;)
        emitAbortEvent(w, rec.recentAbort(i));
    w.endArray();
    w.endObject();
}

} // namespace

void
emitPostmortemJson(std::ostream &os, const FlightRecorder &rec,
                   const PostmortemReport &r)
{
    JsonWriter w(os);
    w.beginObject();
    w.member("schema", "ptm-postmortem-v1");

    w.key("trigger");
    w.beginObject();
    w.member("kind", postmortemTriggerName(r.trigger));
    w.member("tick", std::uint64_t(r.tick));
    emitTx(w, "tx", r.subject);
    w.member("detail", r.detail);
    w.endObject();

    w.member("repro", rec.repro());
    w.member("generations", FlightRecorder::generations);
    w.member("chain_depth", r.chainDepth);

    w.key("nodes");
    w.beginArray();
    for (std::size_t i = 0; i < r.nodes.size(); ++i) {
        const PostmortemNode &n = r.nodes[i];
        w.beginObject();
        w.member("id", std::uint64_t(i));
        w.member("tx", std::uint64_t(n.tx));
        w.member("tick", std::uint64_t(n.tick));
        w.member("attempt", n.attempt);
        if (n.tick == 0)
            w.member("cause", "terminal");
        else
            w.member("cause", heatAbortCauseName(n.cause));
        emitAddr(w, "where", n.where);
        if (n.where == invalidAddr)
            w.member("page", std::int64_t(-1));
        else
            w.member("page", std::uint64_t(pageOf(n.where)));
        emitTx(w, "winner", n.winner);
        w.member("generation", n.generation);
        w.endObject();
    }
    w.endArray();

    w.key("edges");
    w.beginArray();
    for (const PostmortemEdge &e : r.edges) {
        w.beginObject();
        w.member("from", std::uint64_t(e.from));
        w.member("to", std::uint64_t(e.to));
        w.endObject();
    }
    w.endArray();

    w.key("records");
    w.beginArray();
    for (const FlightRecord &fr : r.records)
        emitRecord(w, fr);
    w.endArray();

    w.key("flightrec");
    w.beginObject();
    w.member("depth", std::uint64_t(rec.depth()));
    w.member("live", r.liveTxs);
    w.member("retired", r.retiredTxs);
    w.member("dropped_records", r.droppedRecords);
    w.endObject();

    w.endObject();
    os << "\n";
}

void
printPostmortem(std::ostream &os, const FlightRecorder &rec,
                const PostmortemReport &r)
{
    char buf[256];

    std::snprintf(buf, sizeof(buf),
                  "=== ptm post-mortem: %s @ tick %" PRIu64
                  " (tx %" PRIu64 ") ===",
                  postmortemTriggerName(r.trigger), std::uint64_t(r.tick),
                  std::uint64_t(r.subject));
    os << buf << "\n";
    os << "  " << r.detail << "\n";
    if (!rec.repro().empty())
        os << "  repro: " << rec.repro() << "\n";

    std::snprintf(buf, sizeof(buf),
                  "  abort causality (%zu nodes, %zu edges, depth %u):",
                  r.nodes.size(), r.edges.size(), r.chainDepth);
    os << buf << "\n";
    for (const PostmortemNode &n : r.nodes) {
        if (n.tick == 0) {
            std::snprintf(buf, sizeof(buf),
                          "    gen %u: tx %" PRIu64
                          " no recorded abort (terminal)",
                          n.generation, std::uint64_t(n.tx));
            os << buf << "\n";
            continue;
        }
        std::snprintf(buf, sizeof(buf),
                      "    gen %u: tx %" PRIu64 " aborted @ %" PRIu64
                      " attempt %u cause %s",
                      n.generation, std::uint64_t(n.tx),
                      std::uint64_t(n.tick), n.attempt,
                      heatAbortCauseName(n.cause));
        os << buf;
        if (n.where != invalidAddr) {
            std::snprintf(buf, sizeof(buf), " page %" PRIu64,
                          std::uint64_t(pageOf(n.where)));
            os << buf;
        }
        if (n.winner != invalidTxId) {
            std::snprintf(buf, sizeof(buf), " winner tx %" PRIu64,
                          std::uint64_t(n.winner));
            os << buf;
        }
        os << "\n";
    }

    os << "  records:\n";
    for (const FlightRecord &fr : r.records) {
        std::snprintf(buf, sizeof(buf),
                      "    tx %" PRIu64 ": thread %" PRIu64
                      " attempts %u aborts %u kills %" PRIu64
                      " lost %" PRIu64 " spt-miss %" PRIu64
                      " tav-miss %" PRIu64 " shadow %" PRIu64 "%s",
                      std::uint64_t(fr.id), std::uint64_t(fr.thread),
                      fr.attempts, fr.abortCount, fr.kills,
                      std::uint64_t(fr.lostTicks), fr.sptMisses,
                      fr.tavMisses, fr.shadowAllocs,
                      fr.committed ? " (committed)" : "");
        os << buf << "\n";
    }
    os << "=== end post-mortem ===\n";
}

} // namespace ptm
