/**
 * @file
 * JSON statistics emission implementation.
 */

#include "harness/stats_io.hh"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

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
    for (std::size_t i = 0; i < have_value_.size(); ++i)
        os_ << "  ";
}

void
JsonWriter::separate()
{
    if (pending_key_) {
        pending_key_ = false;
        return;
    }
    if (!have_value_.empty()) {
        if (have_value_.back())
            os_ << ',';
        have_value_.back() = true;
        indent();
    }
}

void
JsonWriter::beginObject()
{
    separate();
    os_ << '{';
    have_value_.push_back(false);
}

void
JsonWriter::endObject()
{
    bool had = have_value_.back();
    have_value_.pop_back();
    if (had)
        indent();
    os_ << '}';
    if (have_value_.empty())
        os_ << '\n';
}

void
JsonWriter::beginArray()
{
    separate();
    os_ << '[';
    have_value_.push_back(false);
}

void
JsonWriter::endArray()
{
    have_value_.pop_back();
    os_ << ']';
}

void
JsonWriter::key(const std::string &k)
{
    separate();
    jsonEscape(os_, k);
    os_ << ": ";
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
    w.member("l1_assoc", p.l1Assoc);
    w.member("l1_latency", std::uint64_t(p.l1Latency));
    w.member("l2_bytes", p.l2Bytes);
    w.member("l2_assoc", p.l2Assoc);
    w.member("l2_latency", std::uint64_t(p.l2Latency));
    w.member("bus_latency", std::uint64_t(p.busLatency));
    w.member("dram_latency", std::uint64_t(p.dramLatency));
    w.member("dram_pipeline", p.dramPipeline);
    w.member("tlb_entries", p.tlbEntries);
    w.member("phys_frames", p.physFrames);
    w.member("swap_enabled", p.swapEnabled);
    w.member("os_quantum", std::uint64_t(p.osQuantum));
    w.member("daemon_interval", std::uint64_t(p.daemonInterval));
    w.member("spt_cache_entries", p.sptCacheEntries);
    w.member("tav_cache_entries", p.tavCacheEntries);
    w.member("shadow_free", shadowFreeName(p.shadowFree));
    w.member("xf_entries", p.xfEntries);
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

/** One top-K list as [{"page":N|-1,"count":N,"err":N}, ...]. */
void
emitHeatList(JsonWriter &w, const char *keyname,
             const std::vector<SpaceSavingTopK::Entry> &entries)
{
    w.beginArray();
    for (const auto &e : entries) {
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
    w.member("generations", f.generations);
    w.member("armed", f.armed);
    w.member("live_records", f.liveRecords);
    w.member("retired_records", f.retiredRecords);
    w.member("dropped_records", f.droppedRecords);
    w.member("wasted_ticks_total", std::uint64_t(f.wastedTicksTotal));
    w.member("dropped_wasted_ticks",
             std::uint64_t(f.droppedWastedTicks));
    w.member("max_wasted_ticks", std::uint64_t(f.maxWastedTicks));
    if (f.maxWastedTx == invalidTxId)
        w.member("max_wasted_tx", std::int64_t(-1));
    else
        w.member("max_wasted_tx", std::uint64_t(f.maxWastedTx));
    w.member("deepest_chain", f.deepestChain);
    w.member("postmortems", f.postmortems);
    w.member("dropped_reports", f.droppedReports);
    w.key("top_killers");
    w.beginArray();
    for (const auto &k : f.topKillers) {
        w.beginObject();
        w.member("tx", std::uint64_t(k.tx));
        w.member("kills", k.kills);
        w.member("wasted_ticks", std::uint64_t(k.wastedTicks));
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
    if (path == "-") {
        emitRunJson(std::cout, manifest, snap, prof, host, heat,
                    forensics);
        return bool(std::cout);
    }
    std::ofstream f(path);
    if (!f) {
        if (err)
            *err = "cannot open " + path + " for writing";
        return false;
    }
    emitRunJson(f, manifest, snap, prof, host, heat, forensics);
    f.flush();
    if (!f) {
        if (err)
            *err = "write to " + path + " failed";
        return false;
    }
    return true;
}

BenchRecorder &
BenchRecorder::beginRow()
{
    rows_.emplace_back();
    return *this;
}

BenchRecorder &
BenchRecorder::field(const std::string &k, const std::string &v)
{
    Field f;
    f.key = k;
    f.kind = Field::Kind::Str;
    f.s = v;
    rows_.back().push_back(std::move(f));
    return *this;
}

BenchRecorder &
BenchRecorder::field(const std::string &k, const char *v)
{
    return field(k, std::string(v));
}

BenchRecorder &
BenchRecorder::field(const std::string &k, double v)
{
    Field f;
    f.key = k;
    f.kind = Field::Kind::Num;
    f.d = v;
    rows_.back().push_back(std::move(f));
    return *this;
}

BenchRecorder &
BenchRecorder::field(const std::string &k, std::uint64_t v)
{
    Field f;
    f.key = k;
    f.kind = Field::Kind::UInt;
    f.u = v;
    rows_.back().push_back(std::move(f));
    return *this;
}

BenchRecorder &
BenchRecorder::field(const std::string &k, unsigned v)
{
    return field(k, std::uint64_t(v));
}

BenchRecorder &
BenchRecorder::field(const std::string &k, bool v)
{
    Field f;
    f.key = k;
    f.kind = Field::Kind::Bool;
    f.b = v;
    rows_.back().push_back(std::move(f));
    return *this;
}

bool
BenchRecorder::writeJson(const std::string &path) const
{
    if (path.empty())
        return true;

    auto emit = [this](std::ostream &os) {
        JsonWriter w(os);
        w.beginObject();
        w.member("schema", "ptm-bench-v1");
        w.member("bench", bench_);
        w.member("git", gitDescribe());
        w.key("rows");
        w.beginArray();
        for (const auto &row : rows_) {
            w.beginObject();
            for (const auto &f : row) {
                switch (f.kind) {
                  case Field::Kind::Str: w.member(f.key, f.s); break;
                  case Field::Kind::Num: w.member(f.key, f.d); break;
                  case Field::Kind::UInt: w.member(f.key, f.u); break;
                  case Field::Kind::Bool: w.member(f.key, f.b); break;
                }
            }
            w.endObject();
        }
        w.endArray();
        w.endObject();
    };

    if (path == "-") {
        emit(std::cout);
        return bool(std::cout);
    }
    std::ofstream f(path);
    if (!f)
        return false;
    emit(f);
    f.flush();
    return bool(f);
}

} // namespace ptm
