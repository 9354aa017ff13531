/**
 * @file
 * Bounded top-K contention attribution: *where* conflicts, aborts and
 * supervisor misses happen, not just how often.
 *
 * The heatmap keys every contention-related event by the page (and,
 * for conflicts, also the 64-byte block) it touched, and keeps the
 * hottest K keys per metric in space-saving counters (Metwally et
 * al.): a fixed-size summary whose stored counts always sum to the
 * exact number of recorded events, with a per-key overcount bound of
 * at most the smallest stored count at replacement time. That sum
 * preservation is what lets the per-page abort attribution reconcile
 * *exactly* against the tx manager's per-cause abort counters.
 *
 * Events with no attributable address (chaos-injected explicit
 * aborts) are recorded under the invalidPage sentinel so the totals
 * still balance.
 *
 * A disabled heatmap is never subscribed, so its record types cost
 * the observer path's single interest-mask branch.
 */

#ifndef PTM_PTM_HEATMAP_HH
#define PTM_PTM_HEATMAP_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/trace.hh"
#include "sim/types.hh"

namespace ptm
{

/**
 * A space-saving top-K frequency summary over uint64 keys.
 *
 * Invariants (pinned by tests/test_heatmap.cc):
 *  - the stored counts always sum to total() (every record() lands in
 *    exactly one stored entry);
 *  - below capacity every count is exact (error == 0);
 *  - over capacity, each entry overestimates its key's true frequency
 *    by at most its error field, which is bounded by total()/capacity;
 *  - eviction is deterministic: the victim is the entry with the
 *    smallest count, ties broken by the smallest key.
 */
class SpaceSavingTopK
{
  public:
    struct Entry
    {
        std::uint64_t key = 0;
        std::uint64_t count = 0;
        /** Overcount bound: count - error <= true frequency <= count. */
        std::uint64_t error = 0;
    };

    explicit SpaceSavingTopK(unsigned capacity);

    /** Record @p n occurrences of @p key. */
    void record(std::uint64_t key, std::uint64_t n = 1);

    /** Exact number of recorded occurrences (== sum of counts). */
    std::uint64_t total() const { return total_; }

    unsigned capacity() const { return capacity_; }

    /** Number of keys currently tracked (<= capacity). */
    std::size_t size() const { return entries_.size(); }

    /** Entries sorted by descending count, ascending key on ties. */
    std::vector<Entry> top() const;

  private:
    unsigned capacity_;
    std::vector<Entry> entries_;
    /** key -> index into entries_. */
    std::unordered_map<std::uint64_t, std::size_t> index_;
    std::uint64_t total_ = 0;
};

/** Number of AbortReason causes the heatmap attributes separately. */
constexpr unsigned heatAbortCauses = 4;

/** Stable schema name of abort cause @p cause ("conflict", ...). */
const char *heatAbortCauseName(unsigned cause);

/** By-value capture of a ContentionHeatmap for results / emission. */
struct HeatmapSnapshot
{
    bool enabled = false;
    unsigned k = 0;
    std::vector<SpaceSavingTopK::Entry> conflictPages;
    std::vector<SpaceSavingTopK::Entry> conflictBlocks;
    std::vector<SpaceSavingTopK::Entry> abortPages[heatAbortCauses];
    std::vector<SpaceSavingTopK::Entry> sptMissPages;
    std::vector<SpaceSavingTopK::Entry> tavMissPages;
    std::vector<SpaceSavingTopK::Entry> shadowAllocPages;
    std::uint64_t conflictsTotal = 0;
    std::uint64_t abortsTotal[heatAbortCauses] = {};
    std::uint64_t sptMissTotal = 0;
    std::uint64_t tavMissTotal = 0;
    std::uint64_t shadowAllocTotal = 0;
};

/**
 * The per-run contention heatmap: a subscriber on the observer path
 * (so the tx/ and ptm/vts layers need no heatmap header), consuming
 *
 *  - ConflictEdge — one recordConflict per winner->loser edge, keyed
 *    by the conflicting block address;
 *  - TxAbort — one recordAbort per abort, emitted next to the
 *    per-cause counters, so per-page sums match them exactly;
 *  - SptMiss / TavMiss / ShadowAlloc, keyed by the home page.
 */
class ContentionHeatmap : public TraceObserver
{
  public:
    explicit ContentionHeatmap(unsigned top_k);

    void observe(const TraceEvent &e) override;

    /** A winner->loser conflict edge at block address @p where. */
    void recordConflict(Addr where);

    /**
     * An abort of cause @p cause (unsigned(AbortReason)) attributed to
     * @p where; invalidAddr records under the invalidPage sentinel.
     */
    void recordAbort(unsigned cause, Addr where);

    unsigned topK() const { return k_; }

    HeatmapSnapshot snapshot() const;

    /** @name Per-metric summaries (tests / analysis) */
    /// @{
    const SpaceSavingTopK &conflictPages() const { return conflictPages_; }
    const SpaceSavingTopK &conflictBlocks() const
    {
        return conflictBlocks_;
    }
    const SpaceSavingTopK &abortPages(unsigned cause) const
    {
        return abortPages_[cause];
    }
    /// @}

  private:
    unsigned k_;
    SpaceSavingTopK conflictPages_;
    SpaceSavingTopK conflictBlocks_;
    SpaceSavingTopK abortPages_[heatAbortCauses];
    SpaceSavingTopK sptMiss_;
    SpaceSavingTopK tavMiss_;
    SpaceSavingTopK shadowAlloc_;
};

} // namespace ptm

#endif // PTM_PTM_HEATMAP_HH
