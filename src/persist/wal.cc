/**
 * @file
 * Write-ahead redo log: capture, serialization, the modeled ordered
 * log device, crash-dump I/O and replay.
 */

#include "persist/wal.hh"

#include <algorithm>
#include <cstdio>
#include <map>

#include "sim/logging.hh"
#include "sim/profile.hh"

namespace ptm
{

namespace
{

/** Append little-endian scalars to a byte buffer. */
void
put32(std::vector<std::uint8_t> &b, std::uint32_t v)
{
    b.push_back(std::uint8_t(v));
    b.push_back(std::uint8_t(v >> 8));
    b.push_back(std::uint8_t(v >> 16));
    b.push_back(std::uint8_t(v >> 24));
}

void
put64(std::vector<std::uint8_t> &b, std::uint64_t v)
{
    put32(b, std::uint32_t(v));
    put32(b, std::uint32_t(v >> 32));
}

void
putStr(std::vector<std::uint8_t> &b, const std::string &s)
{
    put32(b, std::uint32_t(s.size()));
    b.insert(b.end(), s.begin(), s.end());
}

/** Bounds-checked little-endian reader over a byte buffer. */
struct ByteReader
{
    const std::uint8_t *data;
    std::size_t size;
    std::size_t off = 0;
    bool fail = false;

    bool
    need(std::size_t n)
    {
        if (fail || size - off < n) {
            fail = true;
            return false;
        }
        return true;
    }

    std::uint32_t
    get32()
    {
        if (!need(4))
            return 0;
        std::uint32_t v = std::uint32_t(data[off]) |
                          std::uint32_t(data[off + 1]) << 8 |
                          std::uint32_t(data[off + 2]) << 16 |
                          std::uint32_t(data[off + 3]) << 24;
        off += 4;
        return v;
    }

    std::uint64_t
    get64()
    {
        std::uint64_t lo = get32();
        return lo | std::uint64_t(get32()) << 32;
    }

    std::string
    getStr()
    {
        std::uint32_t n = get32();
        if (!need(n))
            return "";
        std::string s(reinterpret_cast<const char *>(data + off), n);
        off += n;
        return s;
    }
};

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, std::size_t n)
{
    static std::uint32_t table[256];
    static bool ready = false;
    if (!ready) {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            table[i] = c;
        }
        ready = true;
    }
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i)
        c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

// ------------------------------------------------------------ WalManager

WalManager::WalManager(const PersistParams &prm, TmKind kind)
    : prm_(prm), kind_(kind), retain_(!prm.walPath.empty())
{}

void
WalManager::noteStore(TxId tx, Addr vaddr, std::uint32_t value)
{
    pending_[tx].emplace_back(vaddr, value);
}

void
WalManager::discard(TxId tx)
{
    pending_.erase(tx);
}

Tick
WalManager::commitTx(TxId tx, std::uint32_t thread, Tick now)
{
    // Reduce the captured store stream to its write set: absolute redo
    // values, last store per word, serialized in address order so the
    // record bytes are deterministic.
    std::map<Addr, std::uint32_t> writes;
    auto it = pending_.find(tx);
    if (it != pending_.end()) {
        for (const auto &[a, v] : it->second)
            writes[a] = v;
        pending_.erase(it);
    }
    if (writes.empty())
        ++emptyCommits_;

    // Every commit is logged — read-only ones as empty records — so a
    // record's per-thread ordinal is the thread's transaction index in
    // program order, which is what recovery's oracle prefix needs.
    const std::uint64_t seq = next_seq_++;
    const std::uint32_t ordinal = ++ordinals_[thread];
    rec_.clear();
    put32(rec_, walRecordMagic);
    const std::uint32_t len =
        std::uint32_t(walRecordHeaderBytes +
                      writes.size() * walRecordWriteBytes +
                      walRecordCrcBytes);
    put32(rec_, len);
    put64(rec_, seq);
    put64(rec_, tx);
    put32(rec_, thread);
    put32(rec_, ordinal);
    put32(rec_, std::uint32_t(kind_));
    put32(rec_, std::uint32_t(writes.size()));
    for (const auto &[a, v] : writes) {
        put64(rec_, a);
        put32(rec_, v);
    }
    put32(rec_, crc32(rec_.data(), rec_.size()));
    if (retain_)
        log_.insert(log_.end(), rec_.begin(), rec_.end());
    const std::uint64_t bytes = rec_.size();
    const std::uint64_t off0 = logSize();

    // Ordered flush: the record drains behind any still-draining
    // predecessor (the log device is strictly ordered), costing the
    // fence latency plus the record's bytes over the device bandwidth.
    const Tick start = std::max(now, device_free_);
    const Tick drain =
        prm_.flushLatency +
        Tick((bytes + prm_.logBytesPerCycle - 1) / prm_.logBytesPerCycle);
    const Tick end = start + drain;
    device_free_ = end;
    appends_.push_back({off0, off0 + bytes, start, end});
    const Tick stall = end - now;

    ++commits_;
    words_ += writes.size();
    bytes_ += bytes;
    stallTicks_ += stall;
    commitWait_.sample(double(stall));
    if (prof_)
        prof_->charge(ProfCharge::LogFlush, drain);
    tracer_->record(TraceEventType::WalAppend, traceNoId, thread, tx,
                    invalidTxId, bytes, off0, double(seq));
    tracer_->record(TraceEventType::WalFlush, traceNoId, thread, tx,
                    invalidTxId, stall, end);
    return stall;
}

std::uint64_t
WalManager::durableBytesAt(Tick cut) const
{
    std::uint64_t durable = 0;
    for (const Append &a : appends_) {
        if (a.t1 <= cut) {
            durable = a.off1;
            continue;
        }
        if (a.t0 < cut) {
            // In-flight at the cut: the device persisted a
            // proportional prefix — the torn tail.
            std::uint64_t bytes = a.off1 - a.off0;
            durable = a.off0 + bytes * (cut - a.t0) / (a.t1 - a.t0);
        }
        break;
    }
    return durable;
}

void
WalManager::regStats(StatRegistry &reg)
{
    StatGroup &g = reg.addGroup("persist");
    g.addCounter("commits_persisted", &commits_,
                 "commits made durable through the redo log");
    g.addCounter("log_words", &words_,
                 "redo words appended to the log");
    g.addCounter("log_bytes", &bytes_,
                 "bytes appended to the log device");
    g.addCounter("empty_commits", &emptyCommits_,
                 "read-only commits logged with an empty redo set");
    g.addCounter("flush_stall_ticks", &stallTicks_,
                 "total core ticks stalled on ordered log flushes");
    g.addDistribution("commit_persist_wait", &commitWait_,
                      "per-commit stall for the ordered WAL flush");
}

// ------------------------------------------------------------- replay

WalReplay
replayWal(const std::uint8_t *data, std::size_t n)
{
    WalReplay r;
    std::size_t off = 0;
    auto corrupt = [&](const std::string &what) {
        r.error = what + " at log offset " + std::to_string(off);
    };
    auto torn = [&] {
        r.tornOffset = off;
        r.tornBytes = n - off;
    };

    while (off < n) {
        if (n - off < 8) {
            // Not even magic + length survive: a torn tail.
            torn();
            return r;
        }
        ByteReader hdr{data + off, n - off};
        std::uint32_t magic = hdr.get32();
        if (magic != walRecordMagic) {
            // Truncation only ever shortens the tail, so a wrong magic
            // on a readable header is corruption, not a torn record.
            corrupt("bad record magic");
            return r;
        }
        std::uint32_t len = hdr.get32();
        if (len < walRecordHeaderBytes + walRecordCrcBytes ||
            (len - walRecordHeaderBytes - walRecordCrcBytes) %
                    walRecordWriteBytes !=
                0) {
            corrupt("bad record length");
            return r;
        }
        if (n - off < len) {
            torn();
            return r;
        }

        WalRecord rec;
        rec.seq = hdr.get64();
        rec.tx = hdr.get64();
        rec.thread = hdr.get32();
        rec.ordinal = hdr.get32();
        rec.kind = hdr.get32();
        std::uint32_t nwrites = hdr.get32();
        if (len != walRecordHeaderBytes +
                       std::uint64_t(nwrites) * walRecordWriteBytes +
                       walRecordCrcBytes) {
            corrupt("record length disagrees with write count");
            return r;
        }
        std::uint32_t want =
            crc32(data + off, len - walRecordCrcBytes);
        ByteReader tail{data + off + len - walRecordCrcBytes,
                        walRecordCrcBytes};
        if (tail.get32() != want) {
            corrupt("bad record crc");
            return r;
        }
        if (rec.seq != r.records.size() + 1) {
            corrupt("bad commit sequence number");
            return r;
        }
        std::uint32_t expect_ord = r.perThread[rec.thread] + 1;
        if (rec.ordinal != expect_ord) {
            corrupt("bad per-thread commit ordinal");
            return r;
        }

        rec.writes.reserve(nwrites);
        for (std::uint32_t i = 0; i < nwrites; ++i) {
            Addr a = hdr.get64();
            std::uint32_t v = hdr.get32();
            rec.writes.emplace_back(a, v);
            r.image[a] = v;
        }
        r.perThread[rec.thread] = rec.ordinal;
        r.records.push_back(std::move(rec));
        off += len;
    }
    return r;
}

// ------------------------------------------------------------- dump I/O

bool
writeWalDump(const std::string &path, const WalDump &dump,
             std::string *err)
{
    std::vector<std::uint8_t> buf;
    buf.insert(buf.end(), walDumpMagic, walDumpMagic + 8);
    put32(buf, dump.version);
    put32(buf, dump.tmKind);
    put32(buf, dump.threads);
    put64(buf, dump.seed);
    put64(buf, dump.crashTick);
    put64(buf, dump.endTick);
    putStr(buf, dump.workload);
    put32(buf, std::uint32_t(dump.options.size()));
    for (const auto &[k, v] : dump.options) {
        putStr(buf, k);
        putStr(buf, v);
    }
    put32(buf, std::uint32_t(dump.checkpoint.size()));
    for (const WalRegion &reg : dump.checkpoint) {
        put64(buf, reg.vbase);
        put32(buf, std::uint32_t(reg.words.size()));
        std::size_t w0 = buf.size();
        for (std::uint32_t w : reg.words)
            put32(buf, w);
        put32(buf, crc32(buf.data() + w0, buf.size() - w0));
    }
    put64(buf, dump.logBytesTotal);
    put64(buf, std::uint64_t(dump.log.size()));
    buf.insert(buf.end(), dump.log.begin(), dump.log.end());

    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        if (err)
            *err = "cannot open " + path + " for writing";
        return false;
    }
    bool ok =
        std::fwrite(buf.data(), 1, buf.size(), f) == buf.size();
    ok = std::fclose(f) == 0 && ok;
    if (!ok && err)
        *err = "short write to " + path;
    return ok;
}

bool
readWalDump(const std::string &path, WalDump &out, std::string *err)
{
    auto fail = [&](const std::string &what) {
        if (err)
            *err = path + ": " + what;
        return false;
    };

    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return fail("cannot open for reading");
    std::vector<std::uint8_t> buf;
    std::uint8_t chunk[1 << 16];
    std::size_t got;
    while ((got = std::fread(chunk, 1, sizeof chunk, f)) > 0)
        buf.insert(buf.end(), chunk, chunk + got);
    std::fclose(f);

    ByteReader rd{buf.data(), buf.size()};
    if (!rd.need(8) ||
        !std::equal(walDumpMagic, walDumpMagic + 8, buf.data()))
        return fail("not a PTMWAL1 dump (bad magic)");
    rd.off = 8;
    out.version = rd.get32();
    if (!rd.fail && out.version != walDumpVersion)
        return fail("unsupported dump version " +
                    std::to_string(out.version));
    out.tmKind = rd.get32();
    out.threads = rd.get32();
    out.seed = rd.get64();
    out.crashTick = rd.get64();
    out.endTick = rd.get64();
    out.workload = rd.getStr();
    std::uint32_t nopts = rd.get32();
    out.options.clear();
    for (std::uint32_t i = 0; i < nopts && !rd.fail; ++i) {
        std::string k = rd.getStr();
        std::string v = rd.getStr();
        out.options.emplace_back(std::move(k), std::move(v));
    }
    std::uint32_t nregions = rd.get32();
    if (rd.fail)
        return fail("truncated dump header");
    out.checkpoint.clear();
    for (std::uint32_t i = 0; i < nregions; ++i) {
        WalRegion reg;
        reg.vbase = rd.get64();
        std::uint32_t nwords = rd.get32();
        if (!rd.need(std::size_t(nwords) * 4 + 4))
            return fail("truncated dump: checkpoint region " +
                        std::to_string(i) + " cut short");
        std::size_t w0 = rd.off;
        reg.words.reserve(nwords);
        for (std::uint32_t w = 0; w < nwords; ++w)
            reg.words.push_back(rd.get32());
        std::uint32_t want = crc32(buf.data() + w0, rd.off - w0);
        if (rd.get32() != want)
            return fail("checkpoint region " + std::to_string(i) +
                        " fails its crc");
        out.checkpoint.push_back(std::move(reg));
    }
    out.logBytesTotal = rd.get64();
    std::uint64_t durable = rd.get64();
    if (rd.fail)
        return fail("truncated dump: log lengths cut short");
    if (!rd.need(durable))
        return fail("truncated dump: log shorter than its header "
                    "claims");
    out.log.assign(buf.begin() + rd.off,
                   buf.begin() + rd.off + durable);
    return true;
}

} // namespace ptm
