/**
 * @file
 * Unit tests for the persistence domain (src/persist/wal): CRC32
 * known answers, record serialization round trips through WalManager,
 * truncation at EVERY byte offset of a multi-record log (each cut
 * must replay as a clean prefix or a reported torn tail — never a
 * silent partial image), corruption rejection with offset-bearing
 * diagnostics, ordered-flush drain accounting, the rule that a
 * manager keeps the log's bytes only when they will be dumped, and
 * dump file I/O including region-CRC verification and truncation
 * diagnostics.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "persist/wal.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

namespace ptm
{
namespace
{

/**
 * A durable configuration that requests a dump, so the manager keeps
 * the log's bytes for retainedLog(). WalManager never writes the
 * file itself; the path only asks for the bytes.
 */
PersistParams
walParams()
{
    PersistParams p;
    p.policy = Durability::Wal;
    p.walPath = "unwritten.wal";
    p.flushLatency = 300;
    p.logBytesPerCycle = 16;
    return p;
}

/** Build a three-record log: two write sets and a read-only commit. */
std::vector<std::uint8_t>
sampleLog(std::vector<std::size_t> *boundaries = nullptr)
{
    WalManager wal(walParams(), TmKind::SelectPtm);
    std::vector<std::size_t> ends;

    wal.noteStore(11, 0x1000, 5);
    wal.noteStore(11, 0x1008, 6);
    wal.commitTx(11, 0, 1000);
    ends.push_back(wal.logSize());

    wal.noteStore(12, 0x1000, 9);
    wal.commitTx(12, 1, 2000);
    ends.push_back(wal.logSize());

    wal.commitTx(13, 0, 3000); // read-only: empty redo set
    ends.push_back(wal.logSize());

    if (boundaries)
        *boundaries = ends;
    return wal.retainedLog();
}

TEST(WalCrc, KnownAnswer)
{
    // The standard CRC-32 check value (zlib polynomial).
    const char *msg = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t *>(msg), 9),
              0xCBF43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(WalRecord, RoundTripThroughManager)
{
    std::vector<std::size_t> ends;
    std::vector<std::uint8_t> log = sampleLog(&ends);
    ASSERT_EQ(ends.size(), 3u);
    EXPECT_EQ(ends[0],
              walRecordHeaderBytes + 2 * walRecordWriteBytes +
                  walRecordCrcBytes);
    EXPECT_EQ(ends[2] - ends[1],
              walRecordHeaderBytes + walRecordCrcBytes);

    WalReplay r = replayWal(log.data(), log.size());
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.tornBytes, 0u);
    ASSERT_EQ(r.records.size(), 3u);

    EXPECT_EQ(r.records[0].seq, 1u);
    EXPECT_EQ(r.records[0].tx, 11u);
    EXPECT_EQ(r.records[0].thread, 0u);
    EXPECT_EQ(r.records[0].ordinal, 1u);
    EXPECT_EQ(r.records[0].kind,
              std::uint32_t(TmKind::SelectPtm));
    ASSERT_EQ(r.records[0].writes.size(), 2u);
    EXPECT_EQ(r.records[0].writes[1].first, 0x1008u);
    EXPECT_EQ(r.records[0].writes[1].second, 6u);

    // Per-thread ordinals are program order within the thread.
    EXPECT_EQ(r.records[1].ordinal, 1u);
    EXPECT_EQ(r.records[2].ordinal, 2u);
    EXPECT_EQ(r.perThread.at(0), 2u);
    EXPECT_EQ(r.perThread.at(1), 1u);

    // Last writer wins in the replay image.
    EXPECT_EQ(r.image.at(0x1000), 9u);
    EXPECT_EQ(r.image.at(0x1008), 6u);
    EXPECT_EQ(r.records[2].writes.size(), 0u);
}

TEST(WalRecord, AbortedRedoSetNeverReachesLog)
{
    WalManager wal(walParams(), TmKind::SelectPtm);
    wal.noteStore(21, 0x2000, 7);
    wal.discard(21);
    wal.noteStore(22, 0x2008, 8);
    wal.commitTx(22, 0, 100);

    WalReplay r = replayWal(wal.retainedLog().data(),
                            wal.retainedLog().size());
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_EQ(r.records.size(), 1u);
    EXPECT_EQ(r.image.count(0x2000), 0u);
    EXPECT_EQ(r.image.at(0x2008), 8u);
}

// The satellite contract: a log truncated at ANY byte offset either
// replays as a clean record prefix or reports a torn tail — it never
// errors and never invents a record.
TEST(WalTruncation, EveryByteOffsetIsPrefixOrTorn)
{
    std::vector<std::size_t> ends;
    std::vector<std::uint8_t> log = sampleLog(&ends);

    for (std::size_t cut = 0; cut <= log.size(); ++cut) {
        WalReplay r = replayWal(log.data(), cut);
        ASSERT_TRUE(r.ok())
            << "cut at " << cut << " misread as corrupt: " << r.error;

        std::size_t complete = 0;
        while (complete < ends.size() && ends[complete] <= cut)
            ++complete;
        EXPECT_EQ(r.records.size(), complete) << "cut at " << cut;

        bool at_boundary = cut == 0 || (complete &&
                                        ends[complete - 1] == cut);
        EXPECT_EQ(r.tornBytes > 0, !at_boundary)
            << "cut at " << cut;
        if (!at_boundary) {
            std::size_t start = complete ? ends[complete - 1] : 0;
            EXPECT_EQ(r.tornOffset, start) << "cut at " << cut;
            EXPECT_EQ(r.tornBytes, cut - start) << "cut at " << cut;
        }
    }
}

TEST(WalCorruption, FlippedByteFailsCrcNamingOffset)
{
    std::vector<std::uint8_t> log = sampleLog();
    log[walRecordHeaderBytes + 2] ^= 0xFF; // inside record 1's writes
    WalReplay r = replayWal(log.data(), log.size());
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error.find("crc"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("offset 0"), std::string::npos) << r.error;
    EXPECT_TRUE(r.records.empty());
}

TEST(WalCorruption, BadMagicIsRejected)
{
    std::vector<std::uint8_t> log = sampleLog();
    log[0] ^= 0xFF;
    WalReplay r = replayWal(log.data(), log.size());
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error.find("magic"), std::string::npos) << r.error;
}

TEST(WalCorruption, ReorderedRecordsBreakTheSequence)
{
    std::vector<std::size_t> ends;
    std::vector<std::uint8_t> log = sampleLog(&ends);

    // Swap records 1 and 2 wholesale: each is internally consistent
    // (magic, length, CRC all hold) but the global sequence now
    // starts at 2 — replay must refuse rather than reorder.
    std::vector<std::uint8_t> swapped;
    swapped.insert(swapped.end(), log.begin() + ends[0],
                   log.begin() + ends[1]);
    swapped.insert(swapped.end(), log.begin(), log.begin() + ends[0]);
    WalReplay r = replayWal(swapped.data(), swapped.size());
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error.find("sequence"), std::string::npos) << r.error;
}

TEST(WalDrain, DurableBytesAreProportionalToTheFlush)
{
    PersistParams prm = walParams();
    prm.flushLatency = 100;
    prm.logBytesPerCycle = 1;
    WalManager wal(prm, TmKind::SelectPtm);

    wal.noteStore(31, 0x3000, 1);
    Tick stall = wal.commitTx(31, 0, 1000);
    std::uint64_t bytes = wal.logSize();
    // Drain window: [1000, 1000 + flushLatency + bytes/1B-per-cycle].
    EXPECT_EQ(stall, Tick(100 + bytes));

    EXPECT_EQ(wal.durableBytesAt(999), 0u);
    EXPECT_EQ(wal.durableBytesAt(1000), 0u);
    EXPECT_EQ(wal.durableBytesAt(1000 + 100 + bytes), bytes);
    std::uint64_t half = wal.durableBytesAt(1000 + (100 + bytes) / 2);
    EXPECT_GT(half, 0u);
    EXPECT_LT(half, bytes);

    // A second commit while the device is busy queues behind the
    // first append: its stall covers the residual drain too.
    wal.noteStore(32, 0x3008, 2);
    Tick stall2 = wal.commitTx(32, 0, 1001);
    EXPECT_GT(stall2, stall);
}

// Whether the manager keeps the log's bytes is invisible to
// everything it reports: stalls, stats, records and crash cuts all
// come from record sizes.
TEST(WalRetention, UndumpedLogKeepsOnlyItsSize)
{
    PersistParams bare = walParams();
    bare.walPath.clear();
    WalManager kept(walParams(), TmKind::SelectPtm);
    WalManager sized(bare, TmKind::SelectPtm);
    Tracer kept_trace, sized_trace;
    kept_trace.configure(traceCatAll, 64);
    sized_trace.configure(traceCatAll, 64);
    kept.setTracer(&kept_trace);
    sized.setTracer(&sized_trace);
    StatRegistry kept_stats, sized_stats;
    kept.regStats(kept_stats);
    sized.regStats(sized_stats);

    // Commits 100 ticks apart queue behind the busy device; every
    // fourth commit is read-only.
    std::vector<std::uint64_t> ends;
    for (TxId tx = 40; tx < 48; ++tx) {
        for (Addr w = 0; w < tx % 4; ++w) {
            kept.noteStore(tx, 0x4000 + 8 * w, std::uint32_t(tx + w));
            sized.noteStore(tx, 0x4000 + 8 * w, std::uint32_t(tx + w));
        }
        Tick now = 1000 + 100 * (tx - 40);
        std::uint32_t thread = std::uint32_t(tx % 2);
        EXPECT_EQ(kept.commitTx(tx, thread, now),
                  sized.commitTx(tx, thread, now))
            << "tx " << tx;
        ends.push_back(sized.logSize());
    }

    EXPECT_TRUE(sized.retainedLog().empty());
    EXPECT_EQ(kept.retainedLog().size(), kept.logSize());
    EXPECT_EQ(kept.logSize(), sized.logSize());
    for (const char *stat : {"persist.log_bytes", "persist.log_words",
                             "persist.flush_stall_ticks"})
        EXPECT_EQ(kept_stats.counterValue(stat),
                  sized_stats.counterValue(stat))
            << stat;
    EXPECT_EQ(sized_stats.counterValue("persist.log_bytes"),
              sized.logSize());

    std::vector<TraceEvent> a = kept_trace.snapshot();
    std::vector<TraceEvent> b = sized_trace.snapshot();
    ASSERT_EQ(a.size(), 2 * ends.size());
    ASSERT_EQ(a.size(), b.size());
    std::vector<Tick> drain_ends;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].type, b[i].type) << "record " << i;
        EXPECT_EQ(a[i].tx, b[i].tx) << "record " << i;
        EXPECT_EQ(a[i].thread, b[i].thread) << "record " << i;
        EXPECT_EQ(a[i].a0, b[i].a0) << "record " << i;
        EXPECT_EQ(a[i].a1, b[i].a1) << "record " << i;
        EXPECT_EQ(a[i].v, b[i].v) << "record " << i;
        if (b[i].type == TraceEventType::WalAppend)
            EXPECT_EQ(b[i].a1 + b[i].a0, ends[i / 2]) << "record " << i;
        else
            drain_ends.push_back(b[i].a1);
    }

    // Each append's drain ends exactly at its record's end offset,
    // and every tick of every drain window (its boundaries and
    // midpoints among them) cuts both logs at the same length.
    ASSERT_EQ(drain_ends.size(), ends.size());
    for (std::size_t i = 0; i < ends.size(); ++i)
        EXPECT_EQ(sized.durableBytesAt(drain_ends[i]), ends[i]);
    for (Tick cut = 0; cut <= drain_ends.back() + 1; ++cut)
        ASSERT_EQ(kept.durableBytesAt(cut), sized.durableBytesAt(cut))
            << "cut at " << cut;
}

TEST(WalDump, FileRoundTrip)
{
    WalDump d;
    d.tmKind = std::uint32_t(TmKind::CopyPtm);
    d.threads = 4;
    d.seed = 42;
    d.crashTick = 12345;
    d.endTick = 12345;
    d.workload = "kv";
    d.options = {{"keys", "64"}, {"zipf", "0.99"}};
    d.checkpoint.push_back({0x10000, {1, 2, 3, 0, 5}});
    d.checkpoint.push_back({0x20000, {7}});
    std::vector<std::uint8_t> log = sampleLog();
    d.log = log;
    d.logBytesTotal = log.size() + 33; // 33 bytes never drained

    std::string path =
        testing::TempDir() + "/test_persist_roundtrip.wal";
    std::string err;
    ASSERT_TRUE(writeWalDump(path, d, &err)) << err;

    WalDump in;
    ASSERT_TRUE(readWalDump(path, in, &err)) << err;
    EXPECT_EQ(in.version, walDumpVersion);
    EXPECT_EQ(in.tmKind, d.tmKind);
    EXPECT_EQ(in.threads, d.threads);
    EXPECT_EQ(in.seed, d.seed);
    EXPECT_EQ(in.crashTick, d.crashTick);
    EXPECT_EQ(in.workload, d.workload);
    EXPECT_EQ(in.options, d.options);
    ASSERT_EQ(in.checkpoint.size(), 2u);
    EXPECT_EQ(in.checkpoint[0].vbase, 0x10000u);
    EXPECT_EQ(in.checkpoint[0].words, d.checkpoint[0].words);
    EXPECT_EQ(in.logBytesTotal, d.logBytesTotal);
    EXPECT_EQ(in.log, log);
    std::remove(path.c_str());
}

TEST(WalDump, CorruptRegionWordFailsItsCrc)
{
    WalDump d;
    d.tmKind = std::uint32_t(TmKind::SelectPtm);
    d.threads = 1;
    d.workload = "kv";
    d.checkpoint.push_back({0x10000, {0xDEADBEEF, 0x12345678}});

    std::string path = testing::TempDir() + "/test_persist_crc.wal";
    std::string err;
    ASSERT_TRUE(writeWalDump(path, d, &err)) << err;

    // Flip one checkpoint word byte on disk; the region CRC is the
    // only witness, and readWalDump must refuse the dump.
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    // magic(8) + version/kind/threads(12) + seed/crash/end(24) +
    // workload(4+2) + nopts(4) + nregions(4) + vbase(8) + nwords(4)
    // lands on the first word's first byte.
    ASSERT_EQ(std::fseek(f, 8 + 12 + 24 + 6 + 4 + 4 + 8 + 4,
                         SEEK_SET),
              0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);

    WalDump in;
    EXPECT_FALSE(readWalDump(path, in, &err));
    EXPECT_NE(err.find("crc"), std::string::npos) << err;
    std::remove(path.c_str());
}

TEST(WalDump, TruncatedLogTailIsRefused)
{
    WalDump d;
    d.tmKind = std::uint32_t(TmKind::SelectPtm);
    d.threads = 1;
    d.workload = "kv";
    d.log = sampleLog();
    d.logBytesTotal = d.log.size();

    std::string path = testing::TempDir() + "/test_persist_trunc.wal";
    std::string err;
    ASSERT_TRUE(writeWalDump(path, d, &err)) << err;

    // Drop the file's last byte: the header still promises the full
    // durable length, so the dump itself is damaged — hard refusal.
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
    long n = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(truncate(path.c_str(), n - 1), 0);

    WalDump in;
    EXPECT_FALSE(readWalDump(path, in, &err));
    std::remove(path.c_str());
}

// A dump cut short is refused with a message naming the part that was
// cut: the fixed header, a checkpoint region, or the log.
TEST(WalDump, TruncationNamesWhatWasCut)
{
    WalDump d;
    d.tmKind = std::uint32_t(TmKind::SelectPtm);
    d.threads = 1;
    d.workload = "kv";
    d.checkpoint.push_back({0x10000, {1, 2, 3, 4}});
    d.checkpoint.push_back({0x20000, {5, 6}});
    d.log = sampleLog();
    d.logBytesTotal = d.log.size();

    std::string path = testing::TempDir() + "/test_persist_cut.wal";
    std::string err;
    ASSERT_TRUE(writeWalDump(path, d, &err)) << err;
    std::vector<std::uint8_t> whole;
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        int c;
        while ((c = std::fgetc(f)) != EOF)
            whole.push_back(std::uint8_t(c));
        std::fclose(f);
    }

    // magic(8) + version/kind/threads(12) + seed/crash/end(24) +
    // workload(4+2) + nopts(4) + nregions(4) = 58 header bytes; region
    // 0 is 12 + 4*4 + 4 = 32 bytes, region 1 is 12 + 2*4 + 4 = 24,
    // then the two u64 log lengths and the log.
    const std::size_t region0 = 58, region1 = 90, lengths = 114;
    ASSERT_EQ(whole.size(), lengths + 16 + d.log.size());
    const std::pair<std::size_t, const char *> cuts[] = {
        {10, "truncated dump header"},
        {20, "truncated dump header"},
        {region0 - 1, "truncated dump header"},
        {region0 + 4, "checkpoint region 0"},
        {region0 + 20, "checkpoint region 0"},
        {region1 - 1, "checkpoint region 0"},
        {region1 + 10, "checkpoint region 1"},
        {lengths + 8, "log lengths"},
        {whole.size() - 1, "log shorter than its header claims"},
    };
    for (const auto &[cut, want] : cuts) {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(whole.data(), 1, cut, f), cut);
        std::fclose(f);
        WalDump in;
        EXPECT_FALSE(readWalDump(path, in, &err)) << "cut at " << cut;
        EXPECT_NE(err.find(want), std::string::npos)
            << "cut at " << cut << ": " << err;
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace ptm
