/**
 * @file
 * PTM invariant auditor.
 *
 * The paper states the structural invariants PTM's correctness rests
 * on but the simulator otherwise only exercises implicitly: selection
 * vectors must name the committed copy and imply a shadow page (§3.3,
 * §4.3), the SPT summary vectors must be the OR of the page's TAV
 * vectors (§4.2.2), TAV nodes must be doubly reachable — horizontally
 * from their page and vertically from their transaction (§4.2), shadow
 * pages must neither leak nor double-free (§3.5.2), and Swap Index
 * Table entries must describe fully quiesced pages (§3.5.1). The
 * PtmAuditor walks every structure and cross-checks them against each
 * other and the T-State table, at configurable intervals and at every
 * commit/abort boundary, so a chaos run that corrupts bookkeeping
 * fails loudly at the first inconsistent instant instead of silently
 * producing wrong memory images.
 *
 * The commit-atomicity oracle is the workload verifier that already
 * gates every run: workloads replay on a host sequential reference
 * model and diff final memory images (harness/experiment). The
 * auditor's structural checks make the *intermediate* states
 * observable; chaos sweeps require both to pass.
 *
 * Every violation carries the check name, the tick, and the reproducer
 * line (seed / chaos seed / plan) handed in by the System.
 */

#ifndef PTM_PTM_AUDIT_HH
#define PTM_PTM_AUDIT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace ptm
{

class Vts;
class TxManager;
struct CacheLine;
struct TavNode;

/** One detected invariant violation. */
struct AuditViolation
{
    /** Stable check identifier ("summary-agree", "arena-live", ...). */
    std::string check;
    /** Where the audit ran ("commit", "abort", "interval", "end"). */
    std::string where;
    Tick tick = 0;
    /** Human-readable specifics (page, transaction, counts). */
    std::string detail;
};

/**
 * Walks the VTS structures and verifies the invariant catalog. Attach
 * once after construction; checkAll() is re-entrant per event (it runs
 * between simulation events, so it observes quiescent states only).
 */
class PtmAuditor
{
  public:
    /** Wire the auditor to the backend it audits. */
    void
    attach(Vts *vts, TxManager *txmgr)
    {
        vts_ = vts;
        txmgr_ = txmgr;
    }

    /** True once attach() ran with a PTM backend. */
    bool attached() const { return vts_ != nullptr; }

    /** Calls its argument on every valid L2 line of the machine. */
    using LineWalk =
        std::function<void(const std::function<void(const CacheLine &)> &)>;

    /** Wire the caches the "line-marks" check walks (System wiring). */
    void attachCaches(LineWalk walk) { lines_ = std::move(walk); }

    /**
     * Reproducer line prefix ("--seed N --chaos-seed M ...") echoed
     * with every violation so a failing sweep run is replayable.
     */
    void setRepro(std::string repro) { repro_ = std::move(repro); }
    const std::string &repro() const { return repro_; }

    /**
     * Run the full invariant catalog.
     * @param where boundary label recorded in violations
     * @param now   current tick
     * @return number of *new* violations found by this pass
     */
    std::size_t checkAll(const char *where, Tick now);

    /** All violations found so far, in detection order. */
    const std::vector<AuditViolation> &violations() const
    {
        return violations_;
    }

    /**
     * Invoked on every *recorded* violation (System wires this to the
     * flight recorder's post-mortem trigger). Violations past the
     * recording cap only count; they do not re-fire the hook.
     */
    std::function<void(const AuditViolation &)> onViolation;

    /** @name Statistics (registered under "audit") */
    /// @{
    Counter checksRun;       //!< checkAll() passes executed
    Counter violationsFound; //!< total violations detected
    /// @}

    /** Register the audit statistics under the "audit" group. */
    void regStats(StatRegistry &reg);

  private:
    void report(const char *check, const char *where, Tick now,
                std::string detail);

    Vts *vts_ = nullptr;
    TxManager *txmgr_ = nullptr;
    LineWalk lines_;
    std::string repro_;
    std::vector<AuditViolation> violations_;
};

/**
 * Test-only corruption helpers: each seeds the one inconsistency its
 * negative test expects the matching auditor check to catch. Friend
 * of Vts and TxManager; never linked into the front ends' logic.
 */
struct AuditTestAccess
{
    /** Corrupt an SPT entry's home field ("spt-home"). */
    static void corruptHome(Vts &v, PageNum page);
    /** Alias an entry's shadow onto its home frame ("shadow-self"). */
    static void aliasShadow(Vts &v, PageNum page);
    /** Leak one shadow page in the count ("shadow-count"). */
    static void leakShadowCount(Vts &v);
    /** Point page @p b's shadow at page @p a's frame ("shadow-dup"). */
    static void dupShadow(Vts &v, PageNum a, PageNum b);
    /** Flip a spurious write-summary bit ("summary-agree"). */
    static void corruptSummary(Vts &v, PageNum page);
    /** Set a selection bit with no shadow page ("selection-shadow"
     *  under Select-PTM, "selection-copy" under Copy-PTM). */
    static void corruptSelection(Vts &v, PageNum page);
    /** Point a TAV node at the wrong home page ("node-home"). */
    static void corruptNodeHome(Vts &v, PageNum page);
    /** Retag a TAV node to a finished transaction ("node-state"). */
    static void corruptNodeTx(Vts &v, PageNum page, TxId bogus);
    /** Duplicate a transaction's node on one page ("node-dup"). */
    static void dupNode(Vts &v, PageNum page);
    /** Shrink a TAV node's vectors to zero bits ("node-vec"). */
    static void shrinkNodeVec(Vts &v, PageNum page);
    /** Drop the head of a vertical list ("vertical-agree"). */
    static void breakVerticalLink(Vts &v, TxId tx);
    /** Allocate an arena node linked nowhere ("arena-live"). */
    static void leakArenaNode(Vts &v);
    /** Skew the live-dirty gauge ("live-dirty"). */
    static void bumpLiveDirty(Vts &v);
    /** Skew the overflowed-transaction count ("overflow-live"). */
    static void bumpOverflowCount(Vts &v);
    /** Plant a non-quiesced Swap Index Table entry ("sit-clean"). */
    static void corruptSit(Vts &v, std::uint64_t slot);
    /** Orphan stashed swap shadow bytes ("swap-data"). */
    static void orphanSwapData(Vts &v, std::uint64_t slot);
    /** Skew the manager's live-transaction count ("live-count"). */
    static void bumpLiveCount(TxManager &m);
};

} // namespace ptm

#endif // PTM_PTM_AUDIT_HH
