/**
 * @file
 * Ordered transactions as thread-level speculation (section 2.2).
 *
 * "Ordered transactions are used by programmers when they do not know
 * if there is a potential loop-carried dependency in a loop that they
 * want to parallelize." This example parallelizes exactly such a loop:
 * a sparse pointer-chase update where a few iterations really do
 * depend on earlier ones. Each iteration becomes an ordered
 * transaction; independent iterations run concurrently, while the
 * hardware detects the true dependences, aborts the mis-speculated
 * iterations, and re-runs them in order — the sequential result is
 * guaranteed.
 *
 * Build & run:   ./build/examples/example_ordered_speculation
 */

#include <cstdio>
#include <vector>

#include "harness/system.hh"
#include "workloads/workload.hh" // mixHash

using namespace ptm;

namespace
{

constexpr unsigned kElems = 4096;
constexpr unsigned kIters = 96;
constexpr Addr kData = 0x1000000;

/** Iteration i updates element target(i); a few iterations read the
 *  element written by the previous iteration (a real dependency). */
unsigned
target(unsigned i)
{
    return mixHash(i * 977 + 5) % kElems;
}

bool
dependsOnPrev(unsigned i)
{
    return i % 7 == 3; // sparse, irregular loop-carried dependencies
}

} // namespace

int
main()
{
    SystemParams params;
    params.tmKind = TmKind::SelectPtm;
    System sys(params);
    ProcId proc = sys.createProcess();
    std::uint32_t scope = sys.createOrderedScope();

    // Host reference: the sequential execution of the loop.
    std::vector<std::uint32_t> ref(kElems, 0);
    for (unsigned i = 0; i < kIters; ++i) {
        std::uint32_t in =
            dependsOnPrev(i) && i ? ref[target(i - 1)] : i;
        ref[target(i)] += in * 3 + 1;
    }

    // Parallel version: iterations dealt round-robin to 4 threads as
    // ordered transactions with rank = iteration index.
    constexpr unsigned kThreads = 4;
    for (unsigned t = 0; t < kThreads; ++t) {
        std::vector<Step> steps;
        for (unsigned i = t; i < kIters; i += kThreads) {
            TxStep tx;
            tx.ordered = true;
            tx.scope = scope;
            tx.rank = i;
            tx.body = [i](MemCtx m) -> TxCoro {
                std::uint32_t in = i;
                if (dependsOnPrev(i) && i) {
                    in = std::uint32_t(co_await m.load(
                        kData + target(i - 1) * 4));
                }
                co_await m.compute(50); // iteration body work
                Addr addr = kData + target(i) * 4;
                std::uint32_t v =
                    std::uint32_t(co_await m.load(addr));
                co_await m.store(addr, v + in * 3 + 1);
            };
            steps.push_back(std::move(tx));
        }
        sys.addThread(proc, std::move(steps), "speculate");
    }

    sys.run();
    StatSnapshot s = sys.snapshot();

    bool ok = true;
    for (unsigned e = 0; e < kElems; ++e)
        if (sys.readWord32(proc, kData + e * 4) != ref[e])
            ok = false;

    std::printf("ordered transactions committed : %llu\n",
                (unsigned long long)s.counter("tx.commits"));
    std::printf("mis-speculations (aborts)      : %llu\n",
                (unsigned long long)s.counter("tx.aborts"));
    std::printf("sequential semantics preserved : %s\n",
                ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
