/**
 * @file
 * Trace sinks: ptm-trace-v1 JSONL and the Chrome trace-event exporter.
 */

#include "harness/trace_io.hh"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

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

namespace
{

/** Format a double compactly; JSON has no NaN/Inf, map those to 0. */
std::string
num(double v)
{
    if (!(v == v) || v > 1e308 || v < -1e308)
        return "0";
    std::ostringstream ss;
    ss.precision(15);
    ss << v;
    return ss.str();
}

void
emitEventLine(std::ostream &os, const TraceEvent &e)
{
    os << "{\"type\":\"ev\",\"t\":" << e.tick << ",\"ev\":\""
       << traceEventTypeName(e.type) << "\",\"cat\":\""
       << traceCatName(traceEventCat(e.type)) << "\"";
    if (e.core != traceNoId)
        os << ",\"core\":" << e.core;
    if (e.thread != traceNoId)
        os << ",\"th\":" << e.thread;
    if (e.tx != invalidTxId)
        os << ",\"tx\":" << e.tx;
    if (e.tx2 != invalidTxId)
        os << ",\"tx2\":" << e.tx2;
    if (e.a0)
        os << ",\"a\":" << e.a0;
    if (e.a1)
        os << ",\"b\":" << e.a1;
    if (e.v != 0.0)
        os << ",\"v\":" << num(e.v);
    if (e.a2)
        os << ",\"c\":" << e.a2;
    os << "}\n";
}

} // namespace

void
emitTraceJsonl(std::ostream &os, const std::vector<TraceCapture> &caps)
{
    os << "{\"schema\":\"ptm-trace-v1\",\"git\":";
    jsonEscape(os, gitDescribe());
    os << ",\"captures\":" << caps.size() << "}\n";
    for (const auto &c : caps) {
        os << "{\"type\":\"capture\",\"label\":";
        jsonEscape(os, c.label);
        os << ",\"recorded\":" << c.recorded << ",\"dropped\":"
           << c.dropped << "}\n";
        for (const auto &e : c.events)
            emitEventLine(os, e);
    }
}

namespace
{

/** One Chrome trace-event record, pre-rendered except for ts order. */
struct ChromeRec
{
    double ts = 0;
    int order = 0; //!< tie-break: B(0) before instants(1) before E(2)
    std::string json;
};

/** "pid":N,"tid":N fragment. */
std::string
ptid(unsigned pid, std::uint64_t tid)
{
    std::ostringstream ss;
    ss << "\"pid\":" << pid << ",\"tid\":" << tid;
    return ss.str();
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
        std::string name;
        std::size_t ref;
        bool live; //!< value = shadow_allocs - ref (shadow_frees)
    };
    std::vector<Track> tracks;
    for (std::string path : counterTracks) {
        bool live = path == "vts.live_shadow_pages";
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
            ChromeRec r;
            r.ts = double(iv.t1);
            r.order = 1;
            std::ostringstream ss;
            ss << "{\"ph\":\"C\",\"name\":\"" << t.name
               << "\",\"ts\":" << num(double(iv.t1)) << ","
               << ptid(pid, 0) << ",\"args\":{\"value\":" << v << "}}";
            r.json = ss.str();
            recs.push_back(std::move(r));
        }
    }
}

void
emitChromeCapture(std::vector<ChromeRec> &recs, unsigned pid,
                  const TraceCapture &c, std::uint64_t &next_flow)
{
    // Process metadata: one "process" per capture, named by its label.
    {
        ChromeRec r;
        r.ts = 0;
        std::ostringstream ss;
        ss << "{\"ph\":\"M\",\"name\":\"process_name\"," << ptid(pid, 0)
           << ",\"args\":{\"name\":";
        jsonEscape(ss, c.label);
        ss << "}}";
        r.json = ss.str();
        recs.push_back(std::move(r));
    }

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
        ChromeRec b;
        b.ts = double(o.tick);
        b.order = 0;
        std::ostringstream sb;
        sb << "{\"ph\":\"B\",\"cat\":\"tx\",\"name\":\"tx " << tx
           << "\",\"ts\":" << num(double(o.tick)) << ","
           << ptid(pid, o.tid) << ",\"args\":{\"attempt\":" << o.attempt
           << "}}";
        b.json = sb.str();
        recs.push_back(std::move(b));

        ChromeRec e;
        e.ts = double(end);
        e.order = 2;
        std::ostringstream se;
        se << "{\"ph\":\"E\",\"cat\":\"tx\",\"ts\":" << num(double(end))
           << "," << ptid(pid, o.tid) << ",\"args\":{\"outcome\":\""
           << outcome << "\"";
        if (outcome == "abort")
            se << ",\"cause\":" << cause;
        se << "}}";
        e.json = se.str();
        recs.push_back(std::move(e));
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
            ChromeRec s;
            s.ts = double(e.tick);
            s.order = 1;
            std::ostringstream ss;
            ss << "{\"ph\":\"s\",\"cat\":\"conflict\",\"name\":"
               << "\"conflict\",\"id\":" << id << ",\"ts\":"
               << num(double(e.tick)) << "," << ptid(pid, laneOf(e))
               << ",\"args\":{\"winner\":" << e.tx << ",\"loser\":"
               << e.tx2 << ",\"block\":" << e.a0 << "}}";
            s.json = ss.str();
            recs.push_back(std::move(s));

            ChromeRec f;
            f.ts = double(e.tick);
            f.order = 1;
            std::ostringstream sf;
            sf << "{\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"conflict\","
               << "\"name\":\"conflict\",\"id\":" << id << ",\"ts\":"
               << num(double(e.tick)) << "," << ptid(pid, e.a1)
               << "}";
            f.json = sf.str();
            recs.push_back(std::move(f));
            break;
          }
          default: {
            // Everything else becomes a thread-scoped instant event.
            ChromeRec r;
            r.ts = double(e.tick);
            r.order = 1;
            std::ostringstream ss;
            ss << "{\"ph\":\"i\",\"s\":\"t\",\"cat\":\""
               << traceCatName(traceEventCat(e.type)) << "\","
               << "\"name\":\"" << traceEventTypeName(e.type)
               << "\",\"ts\":" << num(double(e.tick)) << ","
               << ptid(pid, laneOf(e)) << ",\"args\":{\"a\":" << e.a0
               << ",\"b\":" << e.a1 << "}}";
            r.json = ss.str();
            recs.push_back(std::move(r));
            break;
          }
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

    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < recs.size(); ++i) {
        if (i)
            os << ",";
        os << "\n" << recs[i].json;
    }
    os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"schema\":"
       << "\"ptm-trace-chrome\",\"git\":";
    jsonEscape(os, gitDescribe());
    os << "}}\n";
}

bool
writeTrace(const std::string &path, TraceFormat fmt,
           const std::vector<TraceCapture> &caps, std::string *err)
{
    auto emit = [&](std::ostream &os) {
        if (fmt == TraceFormat::Chrome)
            emitTraceChrome(os, caps);
        else
            emitTraceJsonl(os, caps);
    };
    if (path == "-") {
        emit(std::cout);
        return bool(std::cout);
    }
    std::ofstream f(path);
    if (!f) {
        if (err)
            *err = "cannot open " + path;
        return false;
    }
    emit(f);
    f.flush();
    if (!f) {
        if (err)
            *err = "write error on " + path;
        return false;
    }
    return true;
}

} // namespace ptm
