/**
 * @file
 * Public surface of the kv serving workload: request-stream
 * parameters, the deterministic op-program generator, and the B+-tree
 * page layout. Split from kv.cc so the unit tests can exercise
 * program generation, the Zipfian key mapping, and the node/page
 * layout without running the simulator.
 *
 * The store is a B+-tree over a dense power-of-two key space laid out
 * in simulated memory:
 *
 *  - a meta page (root pointer, depth, key count, magic);
 *  - inner nodes of 32 words (128 B): [level][15 separators]
 *    [16 child pointers], read-only after initialization;
 *  - leaves of 2 + 16*vwords words, 64-byte aligned: [occupancy]
 *    [next-leaf pointer][16 value slots]. Slot word 0 is the record
 *    tag (0 = absent, the insert path keeps tags odd), words 1..V-1
 *    are a payload derived from the tag.
 *
 * Every transaction walks root->leaf through loaded child pointers,
 * so hot inner pages are re-read by every operation while Zipfian
 * skew concentrates leaf traffic — the locality the SPT/TAV caches
 * are built for. Writes are key-partitioned by owner thread
 * (owner(k) = k mod threads), which keeps the final store contents
 * independent of commit interleaving: the host oracle replays each
 * thread's stream sequentially and compares the final memory image.
 *
 * Determinism contract: one normaliser per run; the streams are
 * generated once and shared by build and the oracles.
 */

#ifndef PTM_WORKLOADS_KV_HH
#define PTM_WORKLOADS_KV_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/types.hh"
#include "workloads/workload.hh"

namespace ptm::kv
{

/** Request-stream and store-shape parameters. */
struct Params
{
    unsigned threads = 4;
    std::uint64_t seed = 1;
    /** Key-space size; power of two in [32, 4194304]. */
    std::uint64_t keys = 1u << 17;
    /** Zipfian skew theta in [0, 1); 0 = uniform. */
    double zipf = 0.99;
    /** Operations per thread. */
    std::uint64_t ops = 12000;
    /** Operations grouped into one transaction. */
    std::uint64_t txOps = 32;
    /** 32-bit value words per record (1..16). */
    std::uint64_t vwords = 2;
    /** Keys visited per range scan. */
    std::uint64_t scanLen = 512;
    /** Op mix in percent; must sum to 100. */
    std::uint64_t lookupPct = 60;
    std::uint64_t scanPct = 15;
    std::uint64_t insertPct = 15;
    std::uint64_t deletePct = 10;
    /** Percent of keys present before the run. */
    std::uint64_t preloadPct = 50;
    /**
     * Test hook: when non-zero, the simulated program of thread 0
     * silently drops one insert (the host oracle still applies it),
     * seeding a lost update that verify() must catch.
     */
    std::uint64_t dropWrite = 0;
};

/**
 * Read and validate the kv option table from @p cfg (fatal on invalid
 * combinations). scale=0 maps to the tiny preset (keys=2048,
 * ops=1500, scan-len=8) for any of those options not set explicitly.
 */
Params paramsFromConfig(const WorkloadConfig &cfg);

enum class OpType : std::uint8_t
{
    Lookup,
    Scan,
    Insert,
    Delete,
};

/** One generated request. */
struct Op
{
    OpType type = OpType::Lookup;
    std::uint32_t key = 0;
    /** Scan length (OpType::Scan only). */
    std::uint32_t len = 0;

    bool
    isWrite() const
    {
        return type == OpType::Insert || type == OpType::Delete;
    }

    bool
    operator==(const Op &o) const
    {
        return type == o.type && key == o.key && len == o.len;
    }
};

/** One op program per thread, index = thread. */
using Programs = std::vector<std::vector<Op>>;

/**
 * Generate every thread's op program: bit-exact for given params.
 * One Zipfian normaliser serves all threads, and thread t draws its
 * stream from its own Pcg32. Keys are drawn Zipfian-by-rank and
 * scattered over the key space by a seeded bijection; write ops are
 * remapped to the drawing thread's own key partition.
 */
Programs generatePrograms(const Params &p);

/** The seeded rank -> key scatter bijection (power-of-two @p keys). */
std::uint32_t scatterKey(std::uint64_t rank, std::uint64_t keys,
                         std::uint64_t seed);

/** Record tag written by op @p opIndex of @p thread (odd, non-zero). */
std::uint32_t valueTag(std::uint64_t seed, unsigned thread,
                       std::uint64_t opIndex, std::uint32_t key);

/** Record tag of a preloaded key (odd, non-zero). */
std::uint32_t preloadTag(std::uint64_t seed, std::uint32_t key);

/** Whether @p key is present before the run starts. */
bool preloaded(const Params &p, std::uint32_t key);

/** Payload word @p w (1..vwords-1) of a record with @p tag. */
std::uint32_t payloadWord(std::uint32_t tag, unsigned w);

/**
 * The final store contents (index = key, value = tag, 0 = absent)
 * after every thread's program in @p programs ran — the sequential
 * oracle. Valid because writes are key-partitioned per thread.
 */
std::vector<std::uint32_t> expectedFinal(const Params &p,
                                         const Programs &programs);

/**
 * The store contents after each thread committed exactly its first
 * counts[t] transactions (counts[t] * txOps ops, clamped to the
 * program length) — the committed-prefix oracle durable recovery
 * verifies against. Same shape as expectedFinal (index = key, value =
 * tag, 0 = absent); counts entries missing for a thread mean zero
 * commits. Valid for ANY per-thread prefix because writes are
 * key-partitioned per thread.
 */
std::vector<std::uint32_t>
expectedAfterCommits(const Params &p, const Programs &programs,
                     const std::vector<std::uint64_t> &counts);

/**
 * Walk every defined word of the store image implied by @p tags
 * (index = key, value = tag, 0 = absent): the meta page, every inner
 * node, and per leaf the occupancy counter, next pointer, slot tags
 * (including absent ones), and payload words of present records.
 * verify() and crash recovery both compare through this one walker,
 * so "bit-exact" means the same thing in both.
 */
void forEachWord(const Params &p,
                 const std::vector<std::uint32_t> &tags,
                 const std::function<void(Addr, std::uint32_t)> &emit);

/**
 * Index (into thread 0's program) of the insert the drop-write hook
 * suppresses: the last insert whose key thread 0 never writes again,
 * so the suppression is guaranteed to surface in the final image.
 * Falls back to the last insert; SIZE_MAX if there is none.
 */
std::size_t chooseDropIndex(const std::vector<Op> &program);

/** B+-tree page layout over simulated memory (see file comment). */
class Layout
{
  public:
    static constexpr unsigned kLeafKeys = 16; //!< key slots per leaf
    static constexpr unsigned kFanout = 16;   //!< inner-node fanout
    static constexpr unsigned kInnerWords = 2 * kFanout;
    static constexpr Addr kMetaBase = 0x40000000;
    static constexpr Addr kInnerBase = 0x48000000;
    static constexpr Addr kLeafBase = 0x60000000;
    static constexpr Addr kLockAddr = 0x7f000000;
    static constexpr std::uint32_t kMagic = 0x6B766B76; // "kvkv"

    Layout(std::uint64_t keys, std::uint64_t vwords);

    std::uint64_t keys() const { return keys_; }
    std::uint64_t vwords() const { return vwords_; }
    std::uint64_t leaves() const { return level_count_[0]; }
    /** Inner levels above the leaves (level 0); root is level depth(). */
    unsigned depth() const { return unsigned(level_count_.size() - 1); }
    /** Inner nodes at @p level (1..depth). */
    std::uint64_t innerCount(unsigned level) const;
    std::uint64_t innerTotal() const;

    /** Leaf stride in words (64-byte aligned). */
    unsigned leafStrideWords() const { return leaf_stride_words_; }

    Addr metaAddr() const { return kMetaBase; }
    Addr rootAddr() const { return innerAddr(depth(), 0); }
    Addr leafAddr(std::uint64_t leaf) const;
    Addr leafOccAddr(std::uint64_t leaf) const { return leafAddr(leaf); }
    Addr leafNextAddr(std::uint64_t l) const { return leafAddr(l) + 4; }
    Addr innerAddr(unsigned level, std::uint64_t idx) const;

    std::uint64_t leafOf(std::uint64_t key) const { return key / kLeafKeys; }
    /** Address of slot word 0 of @p key. */
    Addr slotAddr(std::uint64_t key) const;

    /** First key covered by node (@p level, @p idx). */
    std::uint64_t firstKey(unsigned level, std::uint64_t idx) const;
    /**
     * Separator @p s (0..kFanout-2) of an inner node: the first key of
     * child s+1, or the key count (sentinel) when that child is absent.
     */
    std::uint64_t sepValue(unsigned level, std::uint64_t idx,
                           unsigned s) const;
    /** Child pointer @p c of an inner node; 0 when absent. */
    Addr childAddr(unsigned level, std::uint64_t idx, unsigned c) const;

  private:
    std::uint64_t keys_;
    std::uint64_t vwords_;
    unsigned leaf_stride_words_;
    /** [0] = leaf count, [i] = inner-node count at level i. */
    std::vector<std::uint64_t> level_count_;
    /** Node-index offset of each inner level in the inner region. */
    std::vector<std::uint64_t> level_offset_;
};

} // namespace ptm::kv

#endif // PTM_WORKLOADS_KV_HH
