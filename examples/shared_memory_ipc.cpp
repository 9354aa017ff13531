/**
 * @file
 * Inter-process shared-memory transactions (section 3.5.3).
 *
 * PTM's structures (SPT entries, TAV lists) are indexed by *physical*
 * page, so two processes mapping the same physical page at different
 * virtual addresses still get correct conflict detection — a guarantee
 * VTM cannot give, because its XADT lives in each process's private
 * virtual address space.
 *
 * Two processes map one shared segment at different virtual bases and
 * run transactional increments on the same shared counters; the final
 * values prove atomicity across address spaces.
 *
 * Build & run:   ./build/examples/example_shared_memory_ipc
 */

#include <cstdio>

#include "harness/system.hh"

using namespace ptm;

int
main()
{
    SystemParams params;
    params.tmKind = TmKind::SelectPtm;
    System sys(params);

    ProcId a = sys.createProcess();
    ProcId b = sys.createProcess();

    // The same physical segment appears at 0x4000000 in process A and
    // at 0x9990000 in process B (the general mmap case).
    constexpr Addr base_a = 0x4000000;
    constexpr Addr base_b = 0x9990000;
    constexpr unsigned kPages = 4;
    sys.shareSegmentAt({{a, base_a}, {b, base_b}}, kPages);

    constexpr unsigned kCounters = 8;
    constexpr unsigned kIters = 60;

    auto worker = [&](ProcId proc, Addr base, unsigned salt) {
        std::vector<Step> steps;
        for (unsigned i = 0; i < kIters; ++i) {
            TxStep tx;
            tx.body = [base, salt](MemCtx m) -> TxCoro {
                for (unsigned c = 0; c < kCounters; ++c) {
                    Addr addr = base + c * 512;
                    std::uint64_t v = co_await m.load(addr);
                    co_await m.compute(10 + salt);
                    co_await m.store(addr, std::uint32_t(v + 1));
                }
            };
            steps.push_back(std::move(tx));
        }
        sys.addThread(proc, std::move(steps), "ipc");
    };

    // Two threads per process, all hammering the same physical
    // counters through their own page tables and TLBs.
    worker(a, base_a, 1);
    worker(a, base_a, 3);
    worker(b, base_b, 5);
    worker(b, base_b, 7);

    sys.run();
    StatSnapshot s = sys.snapshot();

    bool ok = true;
    for (unsigned c = 0; c < kCounters; ++c) {
        std::uint32_t va = sys.readWord32(a, base_a + c * 512);
        std::uint32_t vb = sys.readWord32(b, base_b + c * 512);
        std::printf("counter %u: process A sees %u, process B sees %u "
                    "(expected %u)\n",
                    c, va, vb, 4 * kIters);
        ok = ok && va == 4 * kIters && vb == 4 * kIters;
    }
    std::printf("\ncross-process conflicts arbitrated: %llu "
                "(aborts: %llu)\n",
                (unsigned long long)s.counter("mem.conflicts"),
                (unsigned long long)s.counter("tx.aborts"));
    std::printf("atomicity across address spaces: %s\n",
                ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
