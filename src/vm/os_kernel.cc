/**
 * @file
 * OsKernel implementation.
 */

#include "vm/os_kernel.hh"

#include <algorithm>

#include "cpu/core.hh"
#include "sim/logging.hh"
#include "tx/tm_backend.hh"

namespace ptm
{

OsKernel::OsKernel(const SystemParams &params, EventQueue &eq,
                   PhysMem &phys, FrameAllocator &frames)
    : params_(params), eq_(eq), phys_(phys), frames_(frames),
      rng_(params.seed, 0x05)
{
    for (unsigned c = 0; c < params.numCores; ++c)
        tlbs_.push_back(std::make_unique<Tlb>(tlbEntries));
}

void
OsKernel::attach(MemSystem *mem, TmBackend *backend,
                 std::vector<Core *> cores)
{
    mem_ = mem;
    backend_ = backend;
    cores_ = std::move(cores);
}

void
OsKernel::regStats(StatRegistry &reg)
{
    StatGroup &g = reg.addGroup("os");
    g.addCounter("exceptions", &exceptions,
                 "software exceptions taken (Table 1)");
    g.addCounter("page_faults", &pageFaults,
                 "page faults handled by the OS");
    g.addCounter("swap_ins", &swapIns, "pages swapped in from disk");
    g.addCounter("swap_outs", &swapOuts, "pages swapped out to disk");
    g.addCounter("context_switches", &contextSwitches,
                 "thread context switches (Table 1)");
    g.addCounter("tlb_shootdowns", &tlbShootdowns,
                 "TLB shootdowns after unmapping a page");
    g.addScalar("pages", [this] { return double(uniquePages()); },
                "unique virtual pages touched (Table 1 'pages')");
    g.addScalar("pg_x_wr", [this] { return double(txWrittenPages()); },
                "pages transactionally written (Table 1 'pg-x-wr')");
    g.addScalar("tlb_hits", [this] {
        std::uint64_t n = 0;
        for (const auto &t : tlbs_)
            n += t->hits.value();
        return double(n);
    }, "TLB hits summed over all cores");
    g.addScalar("tlb_misses", [this] {
        std::uint64_t n = 0;
        for (const auto &t : tlbs_)
            n += t->misses.value();
        return double(n);
    }, "TLB misses summed over all cores");
}

ProcId
OsKernel::createProcess()
{
    ProcId id = ProcId(procs_.size());
    procs_.push_back(Process{id, {}});
    return id;
}

void
OsKernel::shareSegment(const std::vector<ProcId> &procs, Addr vbase,
                       unsigned pages)
{
    std::vector<std::pair<ProcId, Addr>> views;
    for (ProcId p : procs)
        views.emplace_back(p, vbase);
    shareSegmentAt(views, pages);
}

void
OsKernel::shareSegmentAt(
    const std::vector<std::pair<ProcId, Addr>> &views, unsigned pages)
{
    std::uint32_t seg_id = std::uint32_t(shared_.size());
    shared_.push_back(SharedSeg{});
    shared_.back().pages.resize(pages);
    for (const auto &[p, vbase] : views) {
        fatal_if(pageOffset(vbase) != 0,
                 "shared segment view must be page aligned");
        for (unsigned i = 0; i < pages; ++i) {
            PageMapping m;
            m.shareId = seg_id;
            m.sharePage = i;
            procs_.at(p).pageTable[pageOf(vbase) + i] = m;
        }
    }
}

XlatResult
OsKernel::translate(CoreId core, ProcId proc, Addr vaddr, bool write)
{
    (void)write;
    XlatResult r;
    PageNum vpage = pageOf(vaddr);

    PageNum frame = tlbs_[core]->lookup(proc, vpage);
    if (frame != invalidPage) {
        r.paddr = pageBase(frame) + pageOffset(vaddr);
        return r;
    }

    // Hardware page-table walk.
    r.latency += tlbWalkLatency;
    PageMapping &pte = procs_.at(proc).pageTable[vpage];
    PageMapping &m = resolve(pte);

    if (m.state != PageMapping::State::Resident) {
        Tick fault_lat = handleFault(proc, vpage, m);
        prof_->charge(ProfCharge::PageFault, fault_lat);
        r.latency += fault_lat;
        r.faulted = true;
    }

    // The TLB's only fill site: every page a TLB hit names is already
    // in the touched set.
    tlbs_[core]->insert(proc, vpage, m.frame);
    touched_pages_.insert(pageKey(proc, vaddr));
    r.paddr = pageBase(m.frame) + pageOffset(vaddr);
    return r;
}

Tick
OsKernel::handleFault(ProcId proc, PageNum vpage, PageMapping &m)
{
    ++exceptions;
    ++pageFaults;
    tracer_->record(TraceEventType::PageFault, traceNoId, traceNoId,
                    invalidTxId, invalidTxId, vpage, proc);
    Tick lat = pageFaultLatency;
    lat += reclaimFrames();

    if (m.state == PageMapping::State::Swapped) {
        // Swap the page (and, via the backend, its shadow) back in.
        ++swapIns;
        prof_->charge(ProfCharge::SwapIo, swapLatency);
        lat += swapLatency;
        m.frame = frames_.alloc();
        tracer_->record(TraceEventType::SwapIn, traceNoId, traceNoId,
                        invalidTxId, invalidTxId, m.swapSlot, m.frame);
        std::vector<std::uint8_t> *bytes = swap_data_.find(m.swapSlot);
        panic_if(!bytes, "missing swap data");
        for (unsigned b = 0; b < blocksPerPage; ++b)
            phys_.writeBlock(pageBase(m.frame) + b * blockBytes,
                             bytes->data() + b * blockBytes);
        if (backend_)
            backend_->pageSwapIn(m.swapSlot, m.frame);
        swap_data_.erase(m.swapSlot);
        m.state = PageMapping::State::Resident;
    } else {
        // First touch: allocate a zero frame.
        m.frame = frames_.alloc();
        m.state = PageMapping::State::Resident;
    }
    resident_fifo_.emplace_back(proc, vpage);
    return lat;
}

Tick
OsKernel::reclaimFrames()
{
    if (!params_.swapEnabled)
        return 0;
    Tick lat = 0;
    // Keep a small pool of free frames (shadow allocations draw from
    // the same pool and must not fail).
    while (frames_.available() < 16) {
        Tick one = swapOutOne();
        if (one == 0)
            break;
        lat += one;
    }
    return lat;
}

Tick
OsKernel::forceSwapOut()
{
    if (!params_.swapEnabled)
        return 0;
    return swapOutOne();
}

Tick
OsKernel::swapOutOne()
{
    // FIFO scan for a swappable victim: resident, not pinned by live
    // TAV state or an in-flight access (the paper's OS also only
    // chooses home pages; shadow pages are never independent victims,
    // section 3.5.1).
    for (std::size_t scan = 0; scan < resident_fifo_.size(); ++scan) {
        auto [proc, vpage] = resident_fifo_.front();
        resident_fifo_.pop_front();
        // at(): a FIFO entry's page was inserted when it faulted in, so
        // this lookup can never insert (see the pageTable invariant).
        PageMapping &m = resolve(procs_.at(proc).pageTable.at(vpage));
        if (m.state != PageMapping::State::Resident) {
            continue; // stale entry
        }
        if (pinned(m.frame) ||
            (backend_ && !backend_->swappable(m.frame))) {
            resident_fifo_.emplace_back(proc, vpage);
            continue;
        }

        // Flush cached blocks (may create overflow state for live
        // transactions -> re-check swappability afterwards).
        Tick lat = mem_ ? mem_->flushPage(m.frame) : 0;
        if (backend_ && !backend_->swappable(m.frame)) {
            resident_fifo_.emplace_back(proc, vpage);
            continue;
        }

        ++swapOuts;
        prof_->charge(ProfCharge::SwapIo, swapLatency);
        lat += swapLatency;
        std::uint64_t slot = next_swap_slot_++;
        tracer_->record(TraceEventType::SwapOut, traceNoId, traceNoId,
                        invalidTxId, invalidTxId, m.frame, slot);
        if (backend_)
            backend_->pageSwapOut(m.frame, slot);

        std::vector<std::uint8_t> bytes(pageBytes);
        for (unsigned b = 0; b < blocksPerPage; ++b)
            phys_.readBlock(pageBase(m.frame) + b * blockBytes,
                            bytes.data() + b * blockBytes);
        swap_data_[slot] = std::move(bytes);
        phys_.releaseFrame(m.frame);
        frames_.free(m.frame);

        m.state = PageMapping::State::Swapped;
        m.swapSlot = slot;
        m.frame = invalidPage;
        shootdown(proc, vpage);
        return lat;
    }
    return 0;
}

void
OsKernel::shootdown(ProcId proc, PageNum vpage)
{
    ++tlbShootdowns;
    for (auto &tlb : tlbs_)
        tlb->invalidate(proc, vpage);
    // Shared segments: every process maps the same frame; invalidate
    // their translations too (conservative: flush by (proc,vpage) of
    // the faulting process only — private pages; shared pages are not
    // swapped because their FIFO entry carries one owner).
    (void)proc;
}

void
OsKernel::admit(ThreadCtx *t)
{
    ++live_threads_;
    t->state = ThreadState::Ready;
    ready_.push_back(t);
}

void
OsKernel::makeReady(ThreadCtx *t)
{
    t->state = ThreadState::Ready;
    ready_.push_back(t);
}

ThreadCtx *
OsKernel::pickReady()
{
    if (ready_.empty())
        return nullptr;
    ThreadCtx *t = ready_.front();
    ready_.pop_front();
    return t;
}

void
OsKernel::threadExited(ThreadCtx *t)
{
    if (onThreadExit)
        onThreadExit(t);
    panic_if(live_threads_ == 0, "thread exit underflow");
    --live_threads_;
    last_exit_ = eq_.curTick();
    // A daemon preemption scheduled up to 1.5 daemonIntervals out
    // would otherwise keep advancing the queue clock long after the
    // workload ends, inflating the elapsed time the profiler (and any
    // time-weighted stat) closes against.
    if (live_threads_ == 0)
        daemon_timer_.cancel();
}

unsigned
OsKernel::createBarrier(unsigned count)
{
    barriers_.push_back(Barrier{count, {}});
    return unsigned(barriers_.size() - 1);
}

bool
OsKernel::barrierArrive(unsigned id, ThreadCtx *t,
                        std::vector<ThreadCtx *> &released)
{
    Barrier &b = barriers_.at(id);
    b.waiting.push_back(t);
    if (b.waiting.size() < b.count)
        return false;
    released = std::move(b.waiting);
    b.waiting.clear();
    return true;
}

void
OsKernel::kickIdleCores()
{
    for (Core *c : cores_)
        c->kick();
}

void
OsKernel::startTimers()
{
    if (params_.daemonInterval == 0 || cores_.empty())
        return;
    // Daemon preemptions model the background OS activity that makes
    // context-switch virtualization necessary (Table 1): a random core
    // is borrowed for daemonRunLength cycles at roughly
    // daemonInterval-cycle intervals.
    Tick jitter = params_.daemonInterval / 2 +
                  rng_.below(std::uint32_t(params_.daemonInterval));
    daemon_timer_ = eq_.scheduleIn(jitter, EventPriority::Os, [this] {
        if (live_threads_ == 0)
            return; // workload done: let the queue drain
        Core *victim = cores_[rng_.below(unsigned(cores_.size()))];
        victim->daemonPreempt(params_.daemonRunLength);
        ++exceptions; // the timer interrupt itself
        startTimers();
    });
}

} // namespace ptm
