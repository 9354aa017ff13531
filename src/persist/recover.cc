/**
 * @file
 * Crash-recovery driver implementation.
 */

#include "persist/recover.hh"

#include <cstdarg>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "persist/wal.hh"
#include "sim/logging.hh"
#include "workloads/workload.hh"

namespace ptm
{

namespace
{

void
recLine(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::printf("recover: ");
    std::vprintf(fmt, ap);
    std::printf("\n");
    va_end(ap);
}

/** Print the failure reason and the final verdict line; returns 1. */
int
recReject(const std::string &why)
{
    recLine("error: %s", why.c_str());
    recLine("verified no");
    return 1;
}

/** The word-store program of the loader system. */
TxCoro
loadImage(MemCtx m,
          std::shared_ptr<
              const std::vector<std::pair<Addr, std::uint32_t>>>
              stores)
{
    for (const auto &av : *stores)
        co_await m.store(av.first, av.second);
}

} // namespace

int
recoverRun(const std::string &path)
{
    using ull = unsigned long long;

    WalDump dump;
    std::string err;
    if (!readWalDump(path, dump, &err))
        return recReject(err);
    if (dump.tmKind > std::uint32_t(TmKind::VcVtm))
        return recReject(strprintf("dump names unknown TM kind %u",
                                   dump.tmKind));
    const TmKind kind = TmKind(dump.tmKind);

    recLine("dump %s", path.c_str());
    recLine("workload %s  system %s  threads %u  seed %llu",
            dump.workload.c_str(), tmKindName(kind), dump.threads,
            (ull)dump.seed);
    if (dump.crashTick)
        recLine("crash cut at tick %llu (run end tick %llu)",
                (ull)dump.crashTick, (ull)dump.endTick);
    else
        recLine("run completed at tick %llu", (ull)dump.endTick);
    recLine("log %llu durable bytes of %llu generated",
            (ull)dump.log.size(), (ull)dump.logBytesTotal);

    // --- 1. Replay the durable log prefix. -------------------------
    WalReplay replay = replayWal(dump.log.data(), dump.log.size());
    if (!replay.ok())
        return recReject(replay.error);
    if (replay.tornBytes) {
        // A torn tail is expected on a crash dump — the in-flight
        // append's drain never finished — but a completed run flushed
        // everything, so a tear there means the file itself is bad.
        if (!dump.crashTick)
            return recReject(strprintf(
                "completed-run dump has a torn record: %llu bytes at "
                "log offset %llu",
                (ull)replay.tornBytes, (ull)replay.tornOffset));
        recLine("torn tail: %llu bytes at log offset %llu discarded",
                (ull)replay.tornBytes, (ull)replay.tornOffset);
    }
    for (const WalRecord &r : replay.records) {
        if (r.kind != dump.tmKind)
            return recReject(strprintf(
                "record seq %llu names TM kind %u, dump %u",
                (ull)r.seq, r.kind, dump.tmKind));
        if (r.thread >= dump.threads)
            return recReject(strprintf(
                "record seq %llu names thread %u of %u",
                (ull)r.seq, r.thread, dump.threads));
    }

    std::vector<std::uint64_t> counts(dump.threads, 0);
    for (const auto &tc : replay.perThread)
        counts[tc.first] = tc.second;
    std::string clist;
    for (unsigned t = 0; t < dump.threads; ++t) {
        if (t)
            clist += ',';
        clist += std::to_string(counts[t]);
    }
    recLine("replayed %zu durable commits (per thread: %s)",
            replay.records.size(), clist.c_str());

    // --- 2. Rebuild the workload for its oracle. -------------------
    const WorkloadInfo *info = findWorkload(dump.workload);
    if (!info)
        return recReject(strprintf("dump names unknown workload '%s'",
                                   dump.workload.c_str()));
    WorkloadConfig cfg;
    cfg.threads = dump.threads;
    cfg.mode = syncModeFor(kind);
    cfg.seed = dump.seed;
    if (!resolveWorkloadOptions(*info, dump.options, cfg.options, &err))
        return recReject("dump workload options: " + err);
    std::unique_ptr<Workload> wl = info->factory(cfg);
    if (!wl->persistSupported())
        return recReject(strprintf(
            "workload %s has no committed-prefix oracle",
            dump.workload.c_str()));

    // --- 3. Load baseline + replayed image into a fresh system. ----
    // Every checkpoint word is stored (zeros included) so each page
    // the comparison will read is mapped; the replayed redo image is
    // applied on top in address order.
    auto stores = std::make_shared<
        std::vector<std::pair<Addr, std::uint32_t>>>();
    wl->persistCheckpoint(
        [&](Addr vbase, const std::vector<std::uint32_t> &words) {
            for (std::size_t i = 0; i < words.size(); ++i)
                stores->emplace_back(vbase + Addr(i) * 4, words[i]);
        });
    const std::size_t baseWords = stores->size();
    for (const auto &av : replay.image)
        stores->emplace_back(av.first, av.second);
    recLine("loading %zu baseline + %zu replayed words", baseWords,
            replay.image.size());

    SystemParams lp;
    lp.tmKind = kind;
    lp.numCores = 1;
    lp.seed = dump.seed;
    lp.audit.enabled = true;
    lp.maxTicks = 20ull * 1000 * 1000 * 1000;
    System sys(lp);
    ProcId proc = sys.createProcess();
    std::vector<Step> steps;
    steps.push_back(PlainStep{[stores](MemCtx m) -> TxCoro {
        return loadImage(m, stores);
    }});
    sys.addThread(proc, std::move(steps), "recover-loader");
    sys.run();

    std::size_t violations = sys.auditor().violations().size();
    if (sys.auditor().attached())
        recLine("audit %llu passes, %zu violations",
                (ull)sys.auditor().checksRun.value(), violations);
    for (const auto &v : sys.auditor().violations())
        recLine("audit-violation: %s (%s): %s", v.check.c_str(),
                v.where.c_str(), v.detail.c_str());

    // --- 4. Bit-exact compare against the committed-prefix oracle. -
    std::uint64_t compared = 0, mismatched = 0;
    Addr firstAddr = 0;
    std::uint32_t firstGot = 0, firstWant = 0;
    wl->persistExpected(counts, [&](Addr a, std::uint32_t want) {
        std::uint32_t got = sys.readWord32(proc, a);
        ++compared;
        if (got != want) {
            if (!mismatched) {
                firstAddr = a;
                firstGot = got;
                firstWant = want;
            }
            ++mismatched;
        }
    });
    recLine("image compare: %llu words, %llu mismatches",
            (ull)compared, (ull)mismatched);
    if (mismatched)
        recLine("first mismatch: vaddr 0x%llx got 0x%08x want 0x%08x",
                (ull)firstAddr, firstGot, firstWant);

    bool ok = violations == 0 && mismatched == 0;
    recLine("verified %s", ok ? "yes" : "no");
    return ok ? 0 : 1;
}

} // namespace ptm
