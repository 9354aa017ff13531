/**
 * @file
 * JSON statistics emission implementation.
 */

#include "harness/stats_io.hh"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>

namespace ptm
{

void
jsonEscape(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\r': os << "\\r"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
JsonWriter::indent()
{
    os_ << '\n';
    for (std::size_t i = 0; i < levels_.size(); ++i)
        os_ << "  ";
}

void
JsonWriter::separate()
{
    if (pending_key_) {
        pending_key_ = false;
        return;
    }
    if (levels_.empty())
        return;
    Level &l = levels_.back();
    if (l.haveValue)
        os_ << ',';
    l.haveValue = true;
    if (!compact_)
        indent();
    else if (l.lines)
        os_ << '\n';
}

void
JsonWriter::beginObject()
{
    separate();
    os_ << '{';
    levels_.push_back({});
}

void
JsonWriter::endObject()
{
    bool had = levels_.back().haveValue;
    levels_.pop_back();
    if (had && !compact_)
        indent();
    os_ << '}';
    if (levels_.empty())
        os_ << '\n';
}

void
JsonWriter::beginArray(bool lines)
{
    separate();
    os_ << '[';
    levels_.push_back({false, lines});
}

void
JsonWriter::endArray()
{
    bool lines = levels_.back().lines;
    levels_.pop_back();
    if (compact_ && lines)
        os_ << '\n';
    os_ << ']';
}

void
JsonWriter::key(const std::string &k)
{
    separate();
    jsonEscape(os_, k);
    os_ << (compact_ ? ":" : ": ");
    pending_key_ = true;
}

void
JsonWriter::value(const std::string &v)
{
    separate();
    jsonEscape(os_, v);
}

void
JsonWriter::value(double v)
{
    separate();
    if (!std::isfinite(v)) {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        os_ << "null";
        return;
    }
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        os_ << (long long)v;
        return;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    os_ << buf;
}

void
JsonWriter::value(std::uint64_t v)
{
    separate();
    os_ << v;
}

void
JsonWriter::value(std::int64_t v)
{
    separate();
    os_ << v;
}

void
JsonWriter::value(bool v)
{
    separate();
    os_ << (v ? "true" : "false");
}

void
JsonWriter::null()
{
    separate();
    os_ << "null";
}

bool
writeOutput(const std::string &path,
            const std::function<void(std::ostream &)> &emit,
            std::string *err)
{
    if (path == "-") {
        emit(std::cout);
        return bool(std::cout);
    }
    std::ofstream f(path);
    if (!f) {
        if (err)
            *err = "cannot open " + path + " for writing";
        return false;
    }
    emit(f);
    f.flush();
    if (!f) {
        if (err)
            *err = "write to " + path + " failed";
        return false;
    }
    return true;
}

std::ostream *
streamSink(const std::string &path)
{
    if (path.empty())
        return nullptr;
    if (path == "stderr")
        return &std::cerr;
    // One stream per file for the process lifetime: bench sweeps run
    // many Systems against one --timeseries file, and each run's
    // header record delimits its stream within the file.
    static std::map<std::string, std::unique_ptr<std::ofstream>> open;
    auto it = open.find(path);
    if (it == open.end()) {
        auto f = std::make_unique<std::ofstream>(path,
                                                 std::ios::trunc);
        it = open.emplace(path, std::move(f)).first;
    }
    return it->second.get();
}

const char *
gitDescribe()
{
#ifdef PTM_GIT_DESCRIBE
    return PTM_GIT_DESCRIBE;
#else
    return "unknown";
#endif
}

namespace
{

const char *
shadowFreeName(ShadowFreePolicy p)
{
    return p == ShadowFreePolicy::MergeOnSwap ? "merge-on-swap"
                                              : "lazy-migrate";
}

void
emitParams(JsonWriter &w, const SystemParams &p)
{
    w.key("params");
    w.beginObject();
    w.member("num_cores", p.numCores);
    w.member("l1_bytes", p.l1Bytes);
    w.member("l1_assoc", l1Assoc);
    w.member("l1_latency", std::uint64_t(l1Latency));
    w.member("l2_bytes", p.l2Bytes);
    w.member("l2_assoc", p.l2Assoc);
    w.member("l2_latency", std::uint64_t(l2Latency));
    w.member("bus_latency", std::uint64_t(busLatency));
    w.member("dram_latency", std::uint64_t(dramLatency));
    w.member("dram_pipeline", dramPipeline);
    w.member("tlb_entries", tlbEntries);
    w.member("phys_frames", p.physFrames);
    w.member("swap_enabled", p.swapEnabled);
    w.member("os_quantum", std::uint64_t(p.osQuantum));
    w.member("daemon_interval", std::uint64_t(p.daemonInterval));
    w.member("spt_cache_entries", p.sptCacheEntries);
    w.member("tav_cache_entries", p.tavCacheEntries);
    w.member("shadow_free", shadowFreeName(p.shadowFree));
    w.member("xf_entries", xfEntries);
    w.member("xadc_entries", p.xadcEntries);
    w.member("victim_cache_entries", p.victimCacheEntries);
    w.member("flush_on_context_switch", p.flushOnContextSwitch);
    w.member("max_ticks", std::uint64_t(p.maxTicks));
    // Durability params appear only when the persistence domain is
    // built, so volatile manifests stay byte-identical to the seed.
    if (p.persist.enabled()) {
        w.member("durability", "wal");
        w.member("wal_flush_latency",
                 std::uint64_t(p.persist.flushLatency));
        w.member("wal_bytes_per_cycle", p.persist.logBytesPerCycle);
        if (p.persist.crashAtTick)
            w.member("crash_at_tick",
                     std::uint64_t(p.persist.crashAtTick));
    }
    w.endObject();
}

void
emitStat(JsonWriter &w, const StatValue &v)
{
    w.beginObject();
    w.member("kind", statKindName(v.kind));
    switch (v.kind) {
      case StatKind::Counter:
      case StatKind::Scalar:
        w.member("value", v.value);
        break;
      case StatKind::Average:
        w.member("mean", v.value);
        w.member("samples", v.count);
        break;
      case StatKind::TimeWeighted:
        w.member("mean", v.value);
        break;
      case StatKind::Distribution:
        w.member("samples", v.dist.samples);
        w.member("sum", v.dist.sum);
        w.member("mean", v.dist.mean());
        w.member("min", v.dist.samples ? v.dist.min : 0.0);
        w.member("max", v.dist.samples ? v.dist.max : 0.0);
        w.member("p50", v.dist.percentile(50));
        w.member("p95", v.dist.percentile(95));
        w.member("p99", v.dist.percentile(99));
        w.member("bucket_lo", v.dist.lo);
        w.member("bucket_width", v.dist.width);
        w.member("underflow", v.dist.underflow);
        w.member("overflow", v.dist.overflow);
        w.key("counts");
        w.beginArray();
        for (std::uint64_t c : v.dist.counts)
            w.value(c);
        w.endArray();
        break;
    }
    w.endObject();
}

void
emitProfile(JsonWriter &w, const ProfSnapshot &prof,
            const HostProfile *host)
{
    w.key("profile");
    w.beginObject();
    w.member("elapsed_ticks", std::uint64_t(prof.elapsed));

    w.key("cores");
    w.beginArray();
    for (std::size_t c = 0; c < prof.cores.size(); ++c) {
        w.beginObject();
        w.member("total", prof.coreTotal(unsigned(c)));
        w.key("ticks");
        w.beginObject();
        for (std::size_t b = 0; b < profBuckets; ++b)
            w.member(profBucketName(ProfBucket(b)), prof.cores[c][b]);
        w.endObject();
        w.endObject();
    }
    w.endArray();

    w.key("supervisor");
    w.beginObject();
    for (std::size_t c = 0; c < profCharges; ++c)
        w.member(profChargeName(ProfCharge(c)), prof.charges[c]);
    w.endObject();

    if (host && host->enabled) {
        w.key("host");
        w.beginObject();
        w.member("sample_interval", host->sampleInterval);
        w.key("sites");
        w.beginArray();
        for (const auto &s : host->sites) {
            w.beginObject();
            w.member("name", s.name);
            w.member("events", s.events);
            w.member("sampled", s.sampled);
            w.member("sampled_ns", s.sampledNs);
            w.member("estimated_ns", s.estimatedNs(host->sampleInterval));
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }

    w.endObject();
}

} // namespace

void
emitHeatList(JsonWriter &w, const char *keyname,
             const std::vector<SpaceSavingTopK::Entry> &entries,
             std::size_t max)
{
    w.beginArray();
    for (const auto &e : entries) {
        if (max-- == 0)
            break;
        w.beginObject();
        if (e.key == invalidPage || e.key == invalidAddr)
            w.member(keyname, std::int64_t(-1));
        else
            w.member(keyname, e.key);
        w.member("count", e.count);
        w.member("err", e.error);
        w.endObject();
    }
    w.endArray();
}

namespace
{

void
emitHotPages(JsonWriter &w, const HeatmapSnapshot &heat)
{
    w.key("hot_pages");
    w.beginObject();
    w.member("k", heat.k);

    w.key("conflicts");
    w.beginObject();
    w.member("total", heat.conflictsTotal);
    w.key("pages");
    emitHeatList(w, "page", heat.conflictPages);
    w.key("blocks");
    emitHeatList(w, "block", heat.conflictBlocks);
    w.endObject();

    w.key("aborts");
    w.beginObject();
    for (unsigned c = 0; c < heatAbortCauses; ++c) {
        w.key(heatAbortCauseName(c));
        w.beginObject();
        w.member("total", heat.abortsTotal[c]);
        w.key("pages");
        emitHeatList(w, "page", heat.abortPages[c]);
        w.endObject();
    }
    w.endObject();

    auto section = [&](const char *name, std::uint64_t total,
                       const std::vector<SpaceSavingTopK::Entry> &top) {
        w.key(name);
        w.beginObject();
        w.member("total", total);
        w.key("pages");
        emitHeatList(w, "page", top);
        w.endObject();
    };
    section("spt_misses", heat.sptMissTotal, heat.sptMissPages);
    section("tav_misses", heat.tavMissTotal, heat.tavMissPages);
    section("shadow_allocs", heat.shadowAllocTotal,
            heat.shadowAllocPages);

    w.endObject();
}

void
emitForensics(JsonWriter &w, const ForensicsSnapshot &f)
{
    w.key("forensics");
    w.beginObject();
    w.member("depth", f.depth);
    w.member("generations", FlightRecorder::generations);
    w.member("armed", f.armed);
    w.member("live_records", f.liveTxs);
    w.member("retired_records", f.retiredTxs);
    w.member("dropped_records", f.droppedRecords);
    w.member("max_lost_ticks", std::uint64_t(f.maxLostTicks));
    if (f.maxLostTx == invalidTxId)
        w.member("max_lost_tx", std::int64_t(-1));
    else
        w.member("max_lost_tx", std::uint64_t(f.maxLostTx));
    w.member("deepest_chain", f.deepestChain);
    w.member("postmortems", f.postmortems);
    w.member("dropped_reports", f.droppedReports);
    w.key("top_killers");
    w.beginArray();
    for (const auto &k : f.topKillers) {
        w.beginObject();
        w.member("tx", std::uint64_t(k.tx));
        w.member("kills", k.kills);
        w.member("lost_ticks", std::uint64_t(k.lostTicks));
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

} // namespace

void
emitRunJson(std::ostream &os, const RunManifest &manifest,
            const StatSnapshot &snap, const ProfSnapshot *prof,
            const HostProfile *host, const HeatmapSnapshot *heat,
            const ForensicsSnapshot *forensics)
{
    JsonWriter w(os);
    w.beginObject();
    w.member("schema", "ptm-stats-v1");

    w.key("manifest");
    w.beginObject();
    w.member("tool", manifest.tool);
    w.member("workload", manifest.workload);
    if (manifest.params) {
        w.member("system", tmKindName(manifest.params->tmKind));
        w.member("granularity",
                 granularityName(manifest.params->granularity));
        w.member("seed", manifest.params->seed);
    }
    w.member("threads", manifest.threads);
    w.member("scale", std::int64_t(manifest.scale));
    w.key("workload_options");
    w.beginObject();
    for (const auto &[k, v] : manifest.workloadOptions)
        w.member(k, v);
    w.endObject();
    w.member("cycles", std::uint64_t(manifest.cycles));
    w.member("verified", manifest.verified);
    w.member("wall_seconds", manifest.wallSeconds);
    w.member("events_per_sec", manifest.eventsPerSec);
    w.member("sim_events_per_sec", manifest.simEventsPerSec);
    w.member("sim_ticks_per_wall_sec", manifest.simTicksPerWallSec);
    w.member("git", gitDescribe());
    if (manifest.params)
        emitParams(w, *manifest.params);
    w.endObject();

    w.key("groups");
    w.beginObject();
    for (const auto &g : snap.groups()) {
        w.key(g.name);
        w.beginObject();
        for (const auto &s : g.stats) {
            w.key(s.first);
            emitStat(w, s.second);
        }
        w.endObject();
    }
    w.endObject();

    if (prof && prof->enabled)
        emitProfile(w, *prof, host);

    if (heat && heat->enabled)
        emitHotPages(w, *heat);

    if (forensics && forensics->enabled)
        emitForensics(w, *forensics);

    w.endObject();
}

bool
writeRunJson(const std::string &path, const RunManifest &manifest,
             const StatSnapshot &snap, std::string *err,
             const ProfSnapshot *prof, const HostProfile *host,
             const HeatmapSnapshot *heat,
             const ForensicsSnapshot *forensics)
{
    return writeOutput(path, [&](std::ostream &os) {
        emitRunJson(os, manifest, snap, prof, host, heat, forensics);
    }, err);
}

bool
BenchRecorder::writeJson(const std::string &path) const
{
    if (path.empty())
        return true;

    return writeOutput(path, [this](std::ostream &os) {
        JsonWriter w(os);
        w.beginObject();
        w.member("schema", "ptm-bench-v1");
        w.member("bench", bench_);
        w.member("git", gitDescribe());
        w.key("rows");
        w.beginArray();
        for (const auto &row : rows_) {
            w.beginObject();
            for (const auto &[k, v] : row)
                std::visit([&](const auto &x) { w.member(k, x); }, v);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    });
}

void
emitTimeseriesHeader(std::ostream &os, const std::string &system,
                     std::uint64_t seed, unsigned cores, Tick interval)
{
    JsonWriter w(os, JsonWriter::Style::Compact);
    w.beginObject();
    w.member("schema", "ptm-timeseries-v1");
    w.member("type", "header");
    w.member("system", system);
    w.member("seed", seed);
    w.member("cores", cores);
    w.member("interval", std::uint64_t(interval));
    w.endObject();
}

void
emitTimeseriesInterval(std::ostream &os, const TimeseriesCapture &ts,
                       const TimeseriesInterval &iv,
                       const std::vector<SpaceSavingTopK::Entry> *hot)
{
    JsonWriter w(os, JsonWriter::Style::Compact);
    w.beginObject();
    w.member("type", "interval");
    w.member("n", iv.n);
    w.member("t0", std::uint64_t(iv.t0));
    w.member("t1", std::uint64_t(iv.t1));
    w.member("final", iv.final_);
    w.member("wall_seconds", iv.wallSeconds);
    w.member("events", iv.events);

    // Host-throughput gauges for this interval.
    double ticks = double(iv.t1 - iv.t0);
    double secs = iv.wallSeconds;
    w.member("events_per_sec", secs > 0 ? double(iv.events) / secs : 0.0);
    w.member("ticks_per_wall_sec", secs > 0 ? ticks / secs : 0.0);
    w.member("events_per_tick",
             ticks > 0 ? double(iv.events) / ticks : 0.0);

    w.key("d");
    w.beginObject();
    for (const auto &c : iv.counters)
        w.member(ts.counterNames[c.ref], c.delta);
    w.endObject();
    w.key("dist");
    w.beginObject();
    for (const auto &d : iv.dists) {
        w.key(ts.distNames[d.ref]);
        w.beginObject();
        w.member("samples", d.samples);
        w.member("sum", d.sum);
        w.endObject();
    }
    w.endObject();
    if (hot) {
        w.key("hot_pages");
        emitHeatList(w, "page", *hot, 8);
    }
    w.endObject();
}

} // namespace ptm
