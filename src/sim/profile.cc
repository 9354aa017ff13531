/**
 * @file
 * Cycle-accounting profiler implementation.
 */

#include "sim/profile.hh"

#include "sim/logging.hh"

namespace ptm
{

const char *
profBucketName(ProfBucket b)
{
    switch (b) {
      case ProfBucket::Idle:
        return "idle";
      case ProfBucket::NonTx:
        return "non_tx";
      case ProfBucket::TxExec:
        return "tx_exec";
      case ProfBucket::StallL1:
        return "stall_l1";
      case ProfBucket::StallL2:
        return "stall_l2";
      case ProfBucket::StallMem:
        return "stall_mem";
      case ProfBucket::StallXlat:
        return "stall_xlat";
      case ProfBucket::FaultSwap:
        return "fault_swap";
      case ProfBucket::TxBegin:
        return "tx_begin";
      case ProfBucket::TxCommit:
        return "tx_commit";
      case ProfBucket::TxAbort:
        return "tx_abort";
      case ProfBucket::CtxSwitch:
        return "ctx_switch";
      case ProfBucket::Barrier:
        return "barrier";
      case ProfBucket::TxPersist:
        return "tx_persist";
      case ProfBucket::NumBuckets:
        break;
    }
    return "?";
}

const char *
profChargeName(ProfCharge c)
{
    switch (c) {
      case ProfCharge::MetaLookup:
        return "meta_lookup";
      case ProfCharge::TavLookup:
        return "tav_lookup";
      case ProfCharge::CommitCleanup:
        return "commit_cleanup";
      case ProfCharge::AbortCleanup:
        return "abort_cleanup";
      case ProfCharge::OverflowSpill:
        return "overflow_spill";
      case ProfCharge::FalseStall:
        return "false_stall";
      case ProfCharge::PageFault:
        return "page_fault";
      case ProfCharge::SwapIo:
        return "swap_io";
      case ProfCharge::CommittedTxTicks:
        return "committed_tx_ticks";
      case ProfCharge::AbortedTxTicks:
        return "aborted_tx_ticks";
      case ProfCharge::LogFlush:
        return "log_flush";
      case ProfCharge::NumCharges:
        break;
    }
    return "?";
}

void
CycleProfiler::configure(unsigned cores)
{
    panic_if(cores == 0, "profiling zero cores");
    lanes_.assign(cores, Lane{});
    for (Lane &l : lanes_)
        l.stack.push_back(ProfBucket::Idle);
    charges_.fill(0);
    end_ = 0;
    enabled_ = true;
}

void
CycleProfiler::observe(const TraceEvent &e)
{
    charge(e.type == TraceEventType::TxCommit ? ProfCharge::CommittedTxTicks
                                              : ProfCharge::AbortedTxTicks,
           e.tick - e.a2);
}

CycleProfiler::Lane &
CycleProfiler::lane(unsigned core)
{
    panic_if(core >= lanes_.size(), "profiling unknown core %u", core);
    return lanes_[core];
}

void
CycleProfiler::accrue(Lane &l, Tick now)
{
    if (now > l.last) {
        l.buckets[unsigned(l.stack.back())] += now - l.last;
        l.last = now;
    }
}

void
CycleProfiler::doSet(unsigned core, ProfBucket b)
{
    Lane &l = lane(core);
    accrue(l, now());
    l.stack.back() = b;
}

void
CycleProfiler::doPush(unsigned core, ProfBucket b)
{
    Lane &l = lane(core);
    accrue(l, now());
    l.stack.push_back(b);
}

void
CycleProfiler::doPop(unsigned core)
{
    Lane &l = lane(core);
    accrue(l, now());
    panic_if(l.stack.size() <= 1,
             "phase pop would empty core %u's stack", core);
    l.stack.pop_back();
}

void
CycleProfiler::doSpan(unsigned core, ProfBucket b, Tick from, Tick to)
{
    Lane &l = lane(core);
    accrue(l, from);
    if (to == maxTick) {
        l.stack.push_back(b);
        return;
    }
    l.buckets[unsigned(b)] += to - from;
    l.last = to;
}

void
CycleProfiler::doCollapse(unsigned core, ProfBucket b)
{
    Lane &l = lane(core);
    accrue(l, now());
    l.stack.resize(1);
    l.stack.back() = b;
}

void
CycleProfiler::finish(Tick end)
{
    if (!enabled_)
        return;
    end_ = end;
    for (Lane &l : lanes_)
        accrue(l, end);
}

ProfSnapshot
CycleProfiler::snapshot() const
{
    ProfSnapshot s;
    s.enabled = enabled_;
    s.elapsed = end_;
    for (const Lane &l : lanes_)
        s.cores.push_back(l.buckets);
    s.charges = charges_;
    return s;
}

CycleProfiler &
CycleProfiler::nil()
{
    static CycleProfiler n;
    return n;
}

} // namespace ptm
