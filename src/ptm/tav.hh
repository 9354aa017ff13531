/**
 * @file
 * Transaction Access Vector (TAV) lists and the Shadow Page Table —
 * the memory-resident PTM structures of Figure 1.
 *
 * Each TAV node records, for one (transaction, page) pair, the blocks
 * (or words, in wd:cache+mem mode) the transaction read or wrote after
 * they overflowed the caches. Nodes are linked two ways:
 *
 *  - horizontally: all transactions that overflowed state on a page
 *    (rooted at the page's SPT entry), used for conflict detection;
 *  - vertically: all pages a transaction overflowed on (rooted at the
 *    T-State table), walked on commit and abort.
 */

#ifndef PTM_PTM_TAV_HH
#define PTM_PTM_TAV_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/bitvec.hh"
#include "sim/types.hh"

namespace ptm
{

/** One TAV node: the overflow access vectors of one tx on one page. */
struct TavNode
{
    TxId tx = invalidTxId;
    /** Home physical page the vectors describe. */
    PageNum home = invalidPage;

    BitVec read;
    BitVec write;

    /** Horizontal link: next transaction's node for the same page. */
    TavNode *nextOnPage = nullptr;
    /** Vertical link: next page node of the same transaction. */
    TavNode *nextOfTx = nullptr;
};

/**
 * Slab allocator for TAV nodes.
 *
 * The simulator creates and frees a TAV node per (transaction, page)
 * overflow; at paper scale that is millions of nodes whose `new` /
 * `delete` churn dominates the overflow paths. The arena hands out
 * nodes from fixed-size chunks and recycles freed nodes through an
 * intrusive freelist (threaded through `nextOnPage`). Recycled nodes
 * keep their BitVec buffers, so steady-state allocation touches no
 * heap at all. Chunks are only released when the arena dies.
 */
class TavArena
{
  public:
    /** Pop a recycled node (fields reset, vectors cleared) or carve a
     *  fresh one from the current chunk. */
    TavNode *
    alloc()
    {
        if (!free_) {
            chunks_.push_back(
                std::make_unique<std::array<TavNode, chunkNodes>>());
            for (TavNode &n : *chunks_.back()) {
                n.nextOnPage = free_;
                free_ = &n;
            }
        }
        TavNode *n = free_;
        free_ = n->nextOnPage;
        n->nextOnPage = nullptr;
        ++live_;
        return n;
    }

    /** Return @p n to the freelist. The node's links must already be
     *  unhooked from its page and transaction lists. */
    void
    free(TavNode *n)
    {
        n->tx = invalidTxId;
        n->home = invalidPage;
        n->read.reset();  // keeps capacity for reuse
        n->write.reset();
        n->nextOfTx = nullptr;
        n->nextOnPage = free_;
        free_ = n;
        --live_;
    }

    /** Nodes currently handed out (tests/inspection). */
    std::size_t liveNodes() const { return live_; }
    /** Total nodes ever carved from chunks (tests/inspection). */
    std::size_t slabNodes() const { return chunks_.size() * chunkNodes; }

  private:
    static constexpr std::size_t chunkNodes = 64;

    std::vector<std::unique_ptr<std::array<TavNode, chunkNodes>>>
        chunks_;
    TavNode *free_ = nullptr;
    std::size_t live_ = 0;
};

/**
 * One Shadow Page Table entry (also the payload of a Swap Index Table
 * entry while the page is swapped out).
 *
 * The read/write summary vectors are the OR of the TAV vectors on the
 * page; hardware caches them in the SPT cache (section 4.2.2), and we
 * maintain them incrementally here as the single source of truth.
 */
struct SptEntry
{
    /** Home physical page (or swap slot while swapped out). */
    PageNum home = invalidPage;
    /** Allocated shadow page; invalidPage if none. */
    PageNum shadow = invalidPage;

    /**
     * Selection vector (Select-PTM): a set bit means the committed
     * version of the unit lives in the *shadow* page.
     */
    BitVec selection;
    /** OR of all TAV write vectors on the page. */
    BitVec writeSummary;
    /** OR of all TAV read vectors on the page. */
    BitVec readSummary;

    /** Head of the horizontal TAV list. */
    TavNode *tavHead = nullptr;

    /** Gauge bookkeeping: the page currently holds speculative
     *  overflow of a live (Running) transaction. */
    bool liveDirty = false;

    bool hasShadow() const { return shadow != invalidPage; }

    /** Find the TAV node of @p tx, or nullptr. */
    TavNode *
    findTav(TxId tx) const
    {
        for (TavNode *t = tavHead; t; t = t->nextOnPage)
            if (t->tx == tx)
                return t;
        return nullptr;
    }
};

} // namespace ptm

#endif // PTM_PTM_TAV_HH
