/**
 * @file
 * Quickstart: build a 4-core Select-PTM system, run a few concurrent
 * transactions whose combined footprint overflows the caches, and
 * inspect the statistics.
 *
 * Thread code is written as C++20 coroutines that co_await simulated
 * memory operations; a TxStep makes the body a transaction that the
 * simulated hardware executes speculatively, aborts on conflicts
 * (oldest transaction wins) and restarts from the coroutine factory —
 * the register-checkpoint restore of the modeled machine.
 *
 * Build & run:   ./build/examples/example_quickstart
 */

#include <cstdio>

#include "harness/system.hh"

using namespace ptm;

int
main()
{
    // The default SystemParams reproduce the machine of the PTM paper:
    // 4 cores, 16 KB L1 / 256 KB L2, snoopy MOESI bus, 200-cycle DRAM,
    // a 512-entry SPT cache and a 2048-entry TAV cache in the VTS.
    SystemParams params;
    params.tmKind = TmKind::SelectPtm;

    System sys(params);
    ProcId proc = sys.createProcess();

    constexpr Addr kCounter = 0x10000;
    constexpr Addr kArray = 0x200000;
    constexpr unsigned kIters = 50;
    constexpr unsigned kThreads = 4;

    for (unsigned t = 0; t < kThreads; ++t) {
        std::vector<Step> steps;
        for (unsigned i = 0; i < kIters; ++i) {
            TxStep tx;
            tx.body = [t](MemCtx m) -> TxCoro {
                // A shared counter increment: transactions of all four
                // threads conflict here and serialize safely.
                std::uint64_t v = co_await m.load(kCounter);
                co_await m.compute(25);
                co_await m.store(kCounter, std::uint32_t(v + 1));
                // Plus some private work on the thread's own pages.
                for (unsigned b = 0; b < 32; ++b)
                    co_await m.store(kArray + t * 0x10000 +
                                         b * blockBytes,
                                     v * 100 + b);
            };
            steps.push_back(std::move(tx));
        }
        sys.addThread(proc, std::move(steps), "worker");
    }

    Tick end = sys.run();
    StatSnapshot s = sys.snapshot();

    std::printf("simulated cycles : %llu\n",
                (unsigned long long)end);
    std::printf("commits          : %llu\n",
                (unsigned long long)s.counter("tx.commits"));
    std::printf("aborts           : %llu\n",
                (unsigned long long)s.counter("tx.aborts"));
    std::printf("conflicts        : %llu\n",
                (unsigned long long)s.counter("mem.conflicts"));
    std::printf("final counter    : %u (expected %u)\n",
                sys.readWord32(proc, kCounter), kThreads * kIters);

    return sys.readWord32(proc, kCounter) == kThreads * kIters ? 0 : 1;
}
