/**
 * @file
 * Trace sinks: ptm-trace-v1 JSONL and the Chrome trace-event exporter.
 */

#include "harness/trace_io.hh"

#include <algorithm>
#include <map>

#include "harness/stats_io.hh"

namespace ptm
{

TraceCapture
captureTrace(const Tracer &t, std::string label, TimeseriesCapture ts)
{
    TraceCapture c;
    c.label = std::move(label);
    c.events = t.snapshot();
    c.recorded = t.recorded();
    c.dropped = t.dropped();
    c.timeseries = std::move(ts);
    return c;
}

void
emitTraceJsonl(std::ostream &os, const std::vector<TraceCapture> &caps)
{
    JsonWriter w(os, JsonWriter::Style::Compact);
    w.beginObject();
    w.member("schema", "ptm-trace-v1");
    w.member("git", gitDescribe());
    w.member("captures", caps.size());
    w.endObject();
    for (const auto &c : caps) {
        w.beginObject();
        w.member("type", "capture");
        w.member("label", c.label);
        w.member("recorded", c.recorded);
        w.member("dropped", c.dropped);
        w.endObject();
        // Event lines omit fields holding their default value.
        for (const TraceEvent &e : c.events) {
            w.beginObject();
            w.member("type", "ev");
            w.member("t", std::uint64_t(e.tick));
            w.member("ev", traceEventTypeName(e.type));
            w.member("cat", traceCatName(traceEventCat(e.type)));
            if (e.core != traceNoId)
                w.member("core", e.core);
            if (e.thread != traceNoId)
                w.member("th", e.thread);
            if (e.tx != invalidTxId)
                w.member("tx", e.tx);
            if (e.tx2 != invalidTxId)
                w.member("tx2", e.tx2);
            if (e.a0)
                w.member("a", e.a0);
            if (e.a1)
                w.member("b", e.a1);
            if (e.v != 0.0)
                w.member("v", e.v);
            if (e.a2)
                w.member("c", e.a2);
            w.endObject();
        }
    }
}

namespace
{

/**
 * One Chrome trace-event record, written once the records are sorted.
 * Members print in declaration order; unset ones are omitted, and
 * metadata ("M") records carry no ts.
 */
struct ChromeRec
{
    Tick ts = 0;
    int order = 1; //!< tie-break: B(0) before instants(1) before E(2)
    const char *ph = "";
    const char *bp = nullptr; //!< flow-finish binding point
    const char *s = nullptr;  //!< instant scope
    const char *cat = nullptr;
    std::string name = {};
    std::uint64_t id = 0; //!< flow id (flows count from 1)
    unsigned pid = 0;
    std::uint64_t tid = 0;
    /** "args": the string member (when named), then the numbers. */
    const char *strKey = nullptr;
    std::string str = {};
    std::vector<std::pair<const char *, std::uint64_t>> args = {};
};

void
emitRec(JsonWriter &w, const ChromeRec &r)
{
    w.beginObject();
    w.member("ph", r.ph);
    if (r.bp)
        w.member("bp", r.bp);
    if (r.s)
        w.member("s", r.s);
    if (r.cat)
        w.member("cat", r.cat);
    if (!r.name.empty())
        w.member("name", r.name);
    if (r.id)
        w.member("id", r.id);
    if (*r.ph != 'M')
        w.member("ts", std::uint64_t(r.ts));
    w.member("pid", r.pid);
    w.member("tid", r.tid);
    if (r.strKey || !r.args.empty()) {
        w.key("args");
        w.beginObject();
        if (r.strKey)
            w.member(r.strKey, r.str);
        for (const auto &[k, v] : r.args)
            w.member(k, v);
        w.endObject();
    }
    w.endObject();
}

/** Track id of an event without a thread: park it on a core lane. */
std::uint64_t
laneOf(const TraceEvent &e)
{
    if (e.thread != traceNoId)
        return e.thread;
    if (e.core != traceNoId)
        return 1000 + e.core;
    return 999;
}

/**
 * The registry counters drawn as "C" tracks, where registered.
 * "vts.live_shadow_pages" is shadow_allocs - shadow_frees: every
 * change of the VTS's live shadow-page count bumps one of the two, so
 * the difference is exact.
 */
const char *const counterTracks[] = {
    "tx.commits",          "tx.aborts",
    "mem.conflicts",       "mem.evictions",
    "os.context_switches", "os.page_faults",
    "vts.live_shadow_pages", "vts.shadow_allocs",
};

/** One "C" point per track at each interval end of @p ts. */
void
emitCounterTracks(std::vector<ChromeRec> &recs, unsigned pid,
                  const TimeseriesCapture &ts)
{
    const auto &names = ts.counterNames;
    auto index = [&](const std::string &path) {
        return std::size_t(std::find(names.begin(), names.end(), path) -
                           names.begin());
    };
    struct Track
    {
        const char *name;
        std::size_t ref;
        bool live; //!< value = shadow_allocs - ref (shadow_frees)
    };
    std::vector<Track> tracks;
    for (const char *path : counterTracks) {
        bool live = std::string(path) == "vts.live_shadow_pages";
        std::size_t i = index(live ? "vts.shadow_frees" : path);
        if (i < names.size())
            tracks.push_back({path, i, live});
    }
    const std::size_t allocs = index("vts.shadow_allocs");

    std::vector<std::uint64_t> sum(names.size(), 0);
    for (const TimeseriesInterval &iv : ts.intervals) {
        for (const auto &d : iv.counters)
            sum[d.ref] += d.delta;
        for (const Track &t : tracks) {
            std::uint64_t v =
                t.live ? sum[allocs] - sum[t.ref] : sum[t.ref];
            recs.push_back({.ts = iv.t1, .ph = "C", .name = t.name,
                            .pid = pid, .args = {{"value", v}}});
        }
    }
}

void
emitChromeCapture(std::vector<ChromeRec> &recs, unsigned pid,
                  const TraceCapture &c, std::uint64_t &next_flow)
{
    // Process metadata: one "process" per capture, named by its label.
    recs.push_back({.order = 0, .ph = "M", .name = "process_name",
                    .pid = pid, .strKey = "name", .str = c.label});

    // Transaction duration slices: pair TxBegin/TxRestart with the
    // TxCommit/TxAbort that closes the attempt. Attempts of one thread
    // never overlap, so B/E pairs nest trivially per track.
    struct Open
    {
        Tick tick = 0;
        std::uint64_t tid = 0;
        std::uint64_t attempt = 0;
    };
    std::map<TxId, Open> open;
    Tick last_tick = 0;

    auto slice = [&](TxId tx, const Open &o, Tick end,
                     const std::string &outcome, std::uint64_t cause) {
        recs.push_back({.ts = o.tick, .order = 0, .ph = "B", .cat = "tx",
                        .name = "tx " + std::to_string(tx), .pid = pid,
                        .tid = o.tid, .args = {{"attempt", o.attempt}}});
        ChromeRec end_rec{.ts = end, .order = 2, .ph = "E", .cat = "tx",
                          .pid = pid, .tid = o.tid, .strKey = "outcome",
                          .str = outcome};
        if (outcome == "abort")
            end_rec.args = {{"cause", cause}};
        recs.push_back(std::move(end_rec));
    };

    for (const auto &e : c.events) {
        last_tick = std::max(last_tick, e.tick);
        switch (e.type) {
          case TraceEventType::TxBegin:
          case TraceEventType::TxRestart: {
            auto it = open.find(e.tx);
            // A stale open attempt (its close was never recorded)
            // is truncated here to keep the slices balanced.
            if (it != open.end()) {
                slice(e.tx, it->second, e.tick, "truncated", 0);
                open.erase(it);
            }
            Open o;
            o.tick = e.tick;
            o.tid = laneOf(e);
            o.attempt = e.a0;
            open.emplace(e.tx, o);
            break;
          }
          case TraceEventType::TxCommit:
          case TraceEventType::TxAbort: {
            auto it = open.find(e.tx);
            // No matching begin (it rotated out of the ring): skip,
            // an unmatched E would unbalance the track.
            if (it == open.end())
                break;
            bool commit = e.type == TraceEventType::TxCommit;
            slice(e.tx, it->second, e.tick,
                  commit ? "commit" : "abort", e.a0);
            open.erase(it);
            break;
          }
          case TraceEventType::ConflictEdge: {
            std::uint64_t id = next_flow++;
            recs.push_back({.ts = e.tick, .ph = "s", .cat = "conflict",
                            .name = "conflict", .id = id, .pid = pid,
                            .tid = laneOf(e),
                            .args = {{"winner", e.tx},
                                     {"loser", e.tx2},
                                     {"block", e.a0}}});
            recs.push_back({.ts = e.tick, .ph = "f", .bp = "e",
                            .cat = "conflict", .name = "conflict",
                            .id = id, .pid = pid, .tid = e.a1});
            break;
          }
          default:
            // Everything else becomes a thread-scoped instant event.
            recs.push_back({.ts = e.tick, .ph = "i", .s = "t",
                            .cat = traceCatName(traceEventCat(e.type)),
                            .name = traceEventTypeName(e.type),
                            .pid = pid, .tid = laneOf(e),
                            .args = {{"a", e.a0}, {"b", e.a1}}});
            break;
        }
    }

    // Attempts still open at the end of the capture (the run was
    // truncated, or commit events were filtered out): close them at
    // the last tick so every B has its E.
    for (const auto &[tx, o] : open)
        slice(tx, o, std::max(last_tick, o.tick), "truncated", 0);

    emitCounterTracks(recs, pid, c.timeseries);
}

} // namespace

void
emitTraceChrome(std::ostream &os, const std::vector<TraceCapture> &caps)
{
    std::vector<ChromeRec> recs;
    std::uint64_t next_flow = 1;
    for (std::size_t i = 0; i < caps.size(); ++i)
        emitChromeCapture(recs, unsigned(i + 1), caps[i], next_flow);

    // Duration events must appear in nondecreasing ts order per track;
    // a stable sort with B-before-E tie-breaking keeps zero-length
    // slices balanced.
    std::stable_sort(recs.begin(), recs.end(),
                     [](const ChromeRec &a, const ChromeRec &b) {
                         if (a.ts != b.ts)
                             return a.ts < b.ts;
                         return a.order < b.order;
                     });

    JsonWriter w(os, JsonWriter::Style::Compact);
    w.beginObject();
    w.key("traceEvents");
    w.beginArray(true);
    for (const ChromeRec &r : recs)
        emitRec(w, r);
    w.endArray();
    w.member("displayTimeUnit", "ms");
    w.key("otherData");
    w.beginObject();
    w.member("schema", "ptm-trace-chrome");
    w.member("git", gitDescribe());
    w.endObject();
    w.endObject();
}

bool
writeTrace(const std::string &path, TraceFormat fmt,
           const std::vector<TraceCapture> &caps, std::string *err)
{
    return writeOutput(path, [&](std::ostream &os) {
        if (fmt == TraceFormat::Chrome)
            emitTraceChrome(os, caps);
        else
            emitTraceJsonl(os, caps);
    }, err);
}

} // namespace ptm
