/**
 * @file
 * kv serving workload: a transactional B+-tree keyed store driven by
 * pre-generated Zipfian request streams (see kv.hh for the layout and
 * determinism contract).
 *
 * Each thread replays its own deterministic op program — point
 * lookups, range scans, upserting inserts, and deletes — grouped
 * tx-ops operations per transaction. Every operation walks the tree
 * from the root through loaded child pointers (a genuine pointer
 * chase over simulated memory), so the handful of top-level inner
 * pages is read by every transaction in the system while the Zipfian
 * skew concentrates leaf and occupancy-counter writes on a hot set —
 * the access pattern the paper's SPT/TAV metadata caches target.
 *
 * Locks mode serializes each op group behind one global spinlock
 * (the coarse-grained baseline a serving tree would need without
 * fine-grained latching); Serial mode is the speedup baseline.
 */

#include <algorithm>
#include <set>

#include "locks/spinlock.hh"
#include "sim/logging.hh"
#include "workloads/kv.hh"
#include "workloads/zipfian.hh"

namespace ptm::kv
{

// ---------------------------------------------------------------- Layout

Layout::Layout(std::uint64_t keys, std::uint64_t vwords)
    : keys_(keys), vwords_(vwords)
{
    // These reach back to --wl-opt values, so fail like a CLI error.
    fatal_if(keys < 2 * kLeafKeys || keys > (1ull << 22) ||
                 (keys & (keys - 1)) != 0,
             "kv keys %llu must be a power of two in [32, 4194304]",
             (unsigned long long)keys);
    fatal_if(vwords < 1 || vwords > 16,
             "kv vwords %llu outside [1, 16]", (unsigned long long)vwords);
    unsigned words = 2 + kLeafKeys * unsigned(vwords);
    // Round leaves up to a 64-byte multiple so leaves never share a
    // cache block (any false sharing is then *within* one leaf).
    leaf_stride_words_ = (words + 15u) & ~15u;
    level_count_.push_back(keys / kLeafKeys);
    while (level_count_.back() > 1)
        level_count_.push_back(
            (level_count_.back() + kFanout - 1) / kFanout);
    level_offset_.assign(level_count_.size(), 0);
    std::uint64_t off = 0;
    for (std::size_t lvl = 1; lvl < level_count_.size(); ++lvl) {
        level_offset_[lvl] = off;
        off += level_count_[lvl];
    }
}

std::uint64_t
Layout::innerCount(unsigned level) const
{
    panic_if(level < 1 || level > depth(),
             "kv inner level %u outside [1, %u]", level, depth());
    return level_count_[level];
}

std::uint64_t
Layout::innerTotal() const
{
    return level_offset_.back() + level_count_.back();
}

Addr
Layout::leafAddr(std::uint64_t leaf) const
{
    return kLeafBase + leaf * leaf_stride_words_ * 4;
}

Addr
Layout::innerAddr(unsigned level, std::uint64_t idx) const
{
    return kInnerBase +
           (level_offset_[level] + idx) * kInnerWords * 4;
}

Addr
Layout::slotAddr(std::uint64_t key) const
{
    return leafAddr(key / kLeafKeys) +
           (2 + (key % kLeafKeys) * vwords_) * 4;
}

std::uint64_t
Layout::firstKey(unsigned level, std::uint64_t idx) const
{
    // A level-i node spans kLeafKeys * kFanout^i keys (kFanout = 2^4).
    return idx * (std::uint64_t(kLeafKeys) << (4 * level));
}

std::uint64_t
Layout::sepValue(unsigned level, std::uint64_t idx, unsigned s) const
{
    std::uint64_t child = idx * kFanout + s + 1;
    if (child >= level_count_[level - 1])
        return keys_; // sentinel: larger than every key
    return firstKey(level - 1, child);
}

Addr
Layout::childAddr(unsigned level, std::uint64_t idx, unsigned c) const
{
    std::uint64_t child = idx * kFanout + c;
    if (child >= level_count_[level - 1])
        return 0;
    return level == 1 ? leafAddr(child) : innerAddr(level - 1, child);
}

// ------------------------------------------------- deterministic streams

std::uint32_t
scatterKey(std::uint64_t rank, std::uint64_t keys, std::uint64_t seed)
{
    // Odd multiplier + seeded offset: a bijection on [0, 2^k).
    return std::uint32_t((rank * 0x9E3779B1ull +
                          mixHash(seed * 0x5851F42Dull)) &
                         (keys - 1));
}

std::uint32_t
valueTag(std::uint64_t seed, unsigned thread, std::uint64_t opIndex,
         std::uint32_t key)
{
    return mixHash(seed * 0x9E3779B97F4A7C15ull +
                   std::uint64_t(thread) * 0x100000001ull +
                   opIndex * 0x10001ull + key) |
           1u;
}

std::uint32_t
preloadTag(std::uint64_t seed, std::uint32_t key)
{
    return mixHash(std::uint64_t(key) * 0x517CC1B7ull ^
                   (seed + 0x2545F4914F6CDD1Dull)) |
           1u;
}

bool
preloaded(const Params &p, std::uint32_t key)
{
    return mixHash(key + p.seed * 0x9E3779B9ull) % 100 < p.preloadPct;
}

std::uint32_t
payloadWord(std::uint32_t tag, unsigned w)
{
    return mixHash(std::uint64_t(tag) ^
                   (std::uint64_t(w) * 2654435761ull));
}

Programs
generatePrograms(const Params &p)
{
    const Zipfian zipf(p.keys, p.zipf);
    Programs programs(p.threads);
    for (unsigned thread = 0; thread < p.threads; ++thread) {
        Pcg32 rng(p.seed + std::uint64_t(thread) * 1000003,
                  0xC0FFEEull + thread);
        std::vector<Op> &ops = programs[thread];
        ops.reserve(p.ops);
        for (std::uint64_t i = 0; i < p.ops; ++i) {
            Op op;
            unsigned roll = rng.below(100);
            if (roll < p.lookupPct) {
                op.type = OpType::Lookup;
            } else if (roll < p.lookupPct + p.scanPct) {
                op.type = OpType::Scan;
                op.len = std::uint32_t(p.scanLen);
            } else if (roll < p.lookupPct + p.scanPct + p.insertPct) {
                op.type = OpType::Insert;
            } else {
                op.type = OpType::Delete;
            }
            std::uint64_t rank = zipf.sample(rng);
            std::uint32_t key = scatterKey(rank, p.keys, p.seed);
            if (op.isWrite()) {
                // Remap to this thread's own partition (owner = key
                // mod threads): reads stay unrestricted, writes never
                // race another thread on the same key, so the final
                // contents are interleaving-independent.
                key = key - key % p.threads + thread;
                if (key >= p.keys)
                    key -= p.threads;
            }
            op.key = key;
            ops.push_back(op);
        }
    }
    return programs;
}

namespace
{

/** The store contents before the run (index = key, value = tag). */
std::vector<std::uint32_t>
preloadImage(const Params &p)
{
    std::vector<std::uint32_t> tags(p.keys, 0);
    for (std::uint32_t k = 0; k < p.keys; ++k)
        if (preloaded(p, k))
            tags[k] = preloadTag(p.seed, k);
    return tags;
}

} // namespace

std::vector<std::uint32_t>
expectedFinal(const Params &p, const Programs &programs)
{
    // Every transaction of every thread committed.
    std::vector<std::uint64_t> counts;
    for (const std::vector<Op> &prog : programs)
        counts.push_back((prog.size() + p.txOps - 1) / p.txOps);
    return expectedAfterCommits(p, programs, counts);
}

std::vector<std::uint32_t>
expectedAfterCommits(const Params &p, const Programs &programs,
                     const std::vector<std::uint64_t> &counts)
{
    std::vector<std::uint32_t> tags = preloadImage(p);
    for (unsigned t = 0; t < programs.size(); ++t) {
        const std::vector<Op> &prog = programs[t];
        std::uint64_t committed = t < counts.size() ? counts[t] : 0;
        std::uint64_t nops =
            std::min<std::uint64_t>(prog.size(), committed * p.txOps);
        for (std::size_t i = 0; i < nops; ++i) {
            const Op &op = prog[i];
            if (op.type == OpType::Insert)
                tags[op.key] = valueTag(p.seed, t, i, op.key);
            else if (op.type == OpType::Delete)
                tags[op.key] = 0;
        }
    }
    return tags;
}

void
forEachWord(const Params &p, const std::vector<std::uint32_t> &tags,
            const std::function<void(Addr, std::uint32_t)> &emit)
{
    Layout lay(p.keys, p.vwords);
    Addr meta = lay.metaAddr();
    emit(meta, std::uint32_t(lay.rootAddr()));
    emit(meta + 4, lay.depth());
    emit(meta + 8, std::uint32_t(p.keys));
    emit(meta + 12, Layout::kMagic);
    for (unsigned lvl = 1; lvl <= lay.depth(); ++lvl) {
        for (std::uint64_t j = 0; j < lay.innerCount(lvl); ++j) {
            Addr a = lay.innerAddr(lvl, j);
            emit(a, lvl);
            for (unsigned s = 0; s + 1 < Layout::kFanout; ++s)
                emit(a + (1 + s) * 4,
                     std::uint32_t(lay.sepValue(lvl, j, s)));
            for (unsigned c = 0; c < Layout::kFanout; ++c)
                emit(a + (Layout::kFanout + c) * 4,
                     std::uint32_t(lay.childAddr(lvl, j, c)));
        }
    }
    for (std::uint64_t l = 0; l < lay.leaves(); ++l) {
        std::uint32_t occ = 0;
        for (unsigned s = 0; s < Layout::kLeafKeys; ++s) {
            std::uint64_t k = l * Layout::kLeafKeys + s;
            std::uint32_t tag = tags[k];
            emit(lay.slotAddr(k), tag);
            if (tag == 0)
                continue;
            ++occ;
            for (unsigned w = 1; w < p.vwords; ++w)
                emit(lay.slotAddr(k) + w * 4, payloadWord(tag, w));
        }
        emit(lay.leafOccAddr(l), occ);
        emit(lay.leafNextAddr(l),
             std::uint32_t(l + 1 < lay.leaves() ? lay.leafAddr(l + 1)
                                                : 0));
    }
}

std::size_t
chooseDropIndex(const std::vector<Op> &program)
{
    std::size_t fallback = SIZE_MAX;
    std::set<std::uint32_t> written_later;
    for (std::size_t i = program.size(); i-- > 0;) {
        const Op &op = program[i];
        if (op.type == OpType::Insert) {
            if (fallback == SIZE_MAX)
                fallback = i;
            if (!written_later.count(op.key))
                return i;
        }
        if (op.isWrite())
            written_later.insert(op.key);
    }
    return fallback;
}

Params
paramsFromConfig(const WorkloadConfig &cfg)
{
    const WorkloadOptions &o = cfg.options;
    Params p;
    p.threads = cfg.threads;
    p.seed = cfg.seed;
    bool tiny = o.u64("scale") == 0;
    // scale=0 shrinks the store/stream for tests unless the user set
    // the sizes explicitly.
    p.keys = tiny && !o.explicitlySet("keys") ? 2048 : o.u64("keys");
    p.ops = tiny && !o.explicitlySet("ops") ? 1500 : o.u64("ops");
    p.scanLen =
        tiny && !o.explicitlySet("scan-len") ? 8 : o.u64("scan-len");
    p.zipf = o.real("zipf");
    p.txOps = o.u64("tx-ops");
    p.vwords = o.u64("vwords");
    p.lookupPct = o.u64("lookup-pct");
    p.scanPct = o.u64("scan-pct");
    p.insertPct = o.u64("insert-pct");
    p.deletePct = o.u64("delete-pct");
    p.preloadPct = o.u64("preload-pct");
    p.dropWrite = o.u64("drop-write");

    fatal_if(p.zipf < 0.0 || p.zipf >= 1.0,
             "kv zipf %f outside [0, 1)", p.zipf);
    fatal_if(p.ops == 0, "kv ops must be positive");
    fatal_if(p.txOps == 0, "kv tx-ops must be positive");
    fatal_if(p.scanLen == 0, "kv scan-len must be positive");
    fatal_if(p.lookupPct + p.scanPct + p.insertPct + p.deletePct != 100,
             "kv op mix %llu+%llu+%llu+%llu does not sum to 100",
             (unsigned long long)p.lookupPct,
             (unsigned long long)p.scanPct,
             (unsigned long long)p.insertPct,
             (unsigned long long)p.deletePct);
    fatal_if(p.preloadPct > 100, "kv preload-pct %llu exceeds 100",
             (unsigned long long)p.preloadPct);
    fatal_if(p.dropWrite != 0 && p.insertPct == 0,
             "kv drop-write needs a non-zero insert-pct");
    // Layout's constructor validates keys and vwords; check the
    // thread/partition fit here.
    fatal_if(p.threads == 0 ||
                 std::uint64_t(p.threads) > p.keys / Layout::kLeafKeys,
             "kv threads %u exceeds the leaf count of %llu keys",
             p.threads, (unsigned long long)p.keys);
    return p;
}

} // namespace ptm::kv

namespace ptm
{

using kv::Layout;
using kv::Op;
using kv::OpType;

class KvWorkload : public Workload
{
  public:
    explicit KvWorkload(const WorkloadConfig &cfg)
        : Workload(cfg), params_(kv::paramsFromConfig(cfg_)),
          layout_(params_.keys, params_.vwords),
          programs_(kv::generatePrograms(params_))
    {
        if (params_.dropWrite != 0)
            drop_idx_ = kv::chooseDropIndex(programs_[0]);
        // The scale=0 preset shrinks some non-explicit options; write
        // the effective values back so the stats manifest records the
        // configuration that actually ran, not the declared defaults.
        cfg_.options.set("keys", std::to_string(params_.keys), false);
        cfg_.options.set("ops", std::to_string(params_.ops), false);
        cfg_.options.set("scan-len", std::to_string(params_.scanLen),
                         false);
    }

    const char *name() const override { return "kv"; }

    void
    build(System &sys) override
    {
        proc_ = sys.createProcess();
        barrier_ = sys.createBarrier(cfg_.threads);
        const unsigned T = cfg_.threads;

        std::vector<std::vector<Step>> steps(T);
        for (unsigned t = 0; t < T; ++t) {
            steps[t].push_back(PlainStep{[this, t](MemCtx m) -> TxCoro {
                co_await init(m, t);
            }});
            pushBarrier(steps[t], barrier_);
        }

        for (unsigned t = 0; t < T; ++t) {
            const std::uint64_t n = programs_[t].size();
            for (std::uint64_t o0 = 0; o0 < n; o0 += params_.txOps) {
                std::uint64_t o1 = std::min(n, o0 + params_.txOps);
                auto body = [this, t, o0, o1](MemCtx m) -> TxCoro {
                    co_await runOps(m, t, o0, o1);
                };
                if (cfg_.mode == SyncMode::Locks) {
                    // Coarse global lock: the baseline a serving tree
                    // needs without fine-grained latching.
                    steps[t].push_back(PlainStep{
                        [this, body](MemCtx m) -> TxCoro {
                            co_await spinLock(m, Layout::kLockAddr);
                            co_await body(m);
                            co_await spinUnlock(m, Layout::kLockAddr);
                        }});
                } else {
                    steps[t].push_back(work(body));
                }
            }
        }

        for (unsigned t = 0; t < T; ++t)
            sys.addThread(proc_, std::move(steps[t]), "kv");
    }

    bool
    verify(System &sys) const override
    {
        // Meta page, inner nodes (static after initialization), leaf
        // slots/payloads, occupancy counters and the leaf chain — all
        // through the same walker crash recovery compares with.
        bool ok = true;
        kv::forEachWord(params_, kv::expectedFinal(params_, programs_),
                        [&](Addr a, std::uint32_t want) {
                            if (ok && sys.readWord32(proc_, a) != want)
                                ok = false;
                        });
        return ok;
    }

    bool persistSupported() const override { return true; }

    void
    persistCheckpoint(const PersistSink &emit) const override
    {
        // The pre-run baseline: exactly the image init() stores, as
        // three dense regions (structure padding words are zero, like
        // untouched simulated memory).
        const std::vector<std::uint32_t> tags = kv::preloadImage(params_);

        emit(layout_.metaAddr(),
             {std::uint32_t(layout_.rootAddr()), layout_.depth(),
              std::uint32_t(params_.keys), Layout::kMagic});

        std::vector<std::uint32_t> inner(
            layout_.innerTotal() * Layout::kInnerWords, 0);
        for (unsigned lvl = 1; lvl <= layout_.depth(); ++lvl)
            for (std::uint64_t j = 0; j < layout_.innerCount(lvl);
                 ++j) {
                std::size_t base =
                    std::size_t(layout_.innerAddr(lvl, j) -
                                Layout::kInnerBase) /
                    4;
                inner[base] = lvl;
                for (unsigned s = 0; s + 1 < Layout::kFanout; ++s)
                    inner[base + 1 + s] =
                        std::uint32_t(layout_.sepValue(lvl, j, s));
                for (unsigned c = 0; c < Layout::kFanout; ++c)
                    inner[base + Layout::kFanout + c] =
                        std::uint32_t(layout_.childAddr(lvl, j, c));
            }
        emit(Layout::kInnerBase, inner);

        const unsigned stride = layout_.leafStrideWords();
        const std::uint64_t V = params_.vwords;
        std::vector<std::uint32_t> leaves(layout_.leaves() * stride, 0);
        for (std::uint64_t l = 0; l < layout_.leaves(); ++l) {
            std::size_t base = std::size_t(l) * stride;
            std::uint32_t occ = 0;
            for (unsigned s = 0; s < Layout::kLeafKeys; ++s) {
                std::uint64_t k = l * Layout::kLeafKeys + s;
                if (tags[k] == 0)
                    continue;
                ++occ;
                leaves[base + 2 + s * V] = tags[k];
                for (unsigned w = 1; w < V; ++w)
                    leaves[base + 2 + s * V + w] =
                        kv::payloadWord(tags[k], w);
            }
            leaves[base] = occ;
            leaves[base + 1] = std::uint32_t(
                l + 1 < layout_.leaves() ? layout_.leafAddr(l + 1)
                                         : 0);
        }
        emit(Layout::kLeafBase, leaves);
    }

    void
    persistExpected(const std::vector<std::uint64_t> &counts,
                    const std::function<void(Addr, std::uint32_t)>
                        &emit) const override
    {
        kv::forEachWord(params_,
                        kv::expectedAfterCommits(params_, programs_, counts),
                        emit);
    }

  private:
    /** Initialize this thread's stripe of the store (plain step). */
    TxCoro
    init(MemCtx m, unsigned t)
    {
        const unsigned T = cfg_.threads;
        if (t == 0) {
            Addr meta = layout_.metaAddr();
            co_await m.store(meta, std::uint32_t(layout_.rootAddr()));
            co_await m.store(meta + 4, layout_.depth());
            co_await m.store(meta + 8, std::uint32_t(params_.keys));
            co_await m.store(meta + 12, Layout::kMagic);
        }
        // Inner nodes, striped by global node index.
        std::uint64_t g = 0;
        for (unsigned lvl = 1; lvl <= layout_.depth(); ++lvl) {
            for (std::uint64_t j = 0; j < layout_.innerCount(lvl);
                 ++j, ++g) {
                if (g % T != t)
                    continue;
                Addr a = layout_.innerAddr(lvl, j);
                co_await m.store(a, lvl);
                for (unsigned s = 0; s + 1 < Layout::kFanout; ++s)
                    co_await m.store(
                        a + (1 + s) * 4,
                        std::uint32_t(layout_.sepValue(lvl, j, s)));
                for (unsigned c = 0; c < Layout::kFanout; ++c)
                    co_await m.store(
                        a + (Layout::kFanout + c) * 4,
                        std::uint32_t(layout_.childAddr(lvl, j, c)));
            }
        }
        // Leaves: occupancy, next pointer, preloaded records.
        for (std::uint64_t l = t; l < layout_.leaves(); l += T) {
            std::uint32_t occ = 0;
            for (unsigned s = 0; s < Layout::kLeafKeys; ++s) {
                std::uint32_t k =
                    std::uint32_t(l * Layout::kLeafKeys + s);
                if (!kv::preloaded(params_, k))
                    continue;
                ++occ;
                std::uint32_t tag = kv::preloadTag(params_.seed, k);
                Addr slot = layout_.slotAddr(k);
                co_await m.store(slot, tag);
                for (unsigned w = 1; w < params_.vwords; ++w)
                    co_await m.store(slot + w * 4,
                                     kv::payloadWord(tag, w));
            }
            co_await m.store(layout_.leafOccAddr(l), occ);
            co_await m.store(
                layout_.leafNextAddr(l),
                std::uint32_t(l + 1 < layout_.leaves()
                                  ? layout_.leafAddr(l + 1)
                                  : 0));
        }
    }

    /** Execute ops [o0, o1) of thread @p t (one transaction body). */
    TxCoro
    runOps(MemCtx m, unsigned t, std::uint64_t o0, std::uint64_t o1)
    {
        const std::uint64_t V = params_.vwords;
        for (std::uint64_t i = o0; i < o1; ++i) {
            const Op &op = programs_[t][i];
            const bool drop = t == 0 && i == drop_idx_;

            // Root-to-leaf walk through loaded child pointers: a
            // binary search over the 15 separators, then the chase.
            std::uint32_t root =
                std::uint32_t(co_await m.load(layout_.metaAddr()));
            std::uint32_t depth = std::uint32_t(
                co_await m.load(layout_.metaAddr() + 4));
            Addr node = root;
            const std::uint32_t key = op.key;
            for (std::uint32_t lvl = depth; lvl >= 1; --lvl) {
                unsigned lo = 0, hi = Layout::kFanout - 1;
                while (lo < hi) {
                    unsigned mid = (lo + hi) / 2;
                    std::uint32_t sep = std::uint32_t(
                        co_await m.load(node + (1 + mid) * 4));
                    if (key < sep)
                        hi = mid;
                    else
                        lo = mid + 1;
                }
                node = std::uint32_t(co_await m.load(
                    node + (Layout::kFanout + lo) * 4));
            }
            Addr slot =
                node + (2 + (key % Layout::kLeafKeys) * V) * 4;

            switch (op.type) {
              case OpType::Lookup: {
                std::uint32_t tag =
                    std::uint32_t(co_await m.load(slot));
                if (tag != 0)
                    for (unsigned w = 1; w < V; ++w)
                        co_await m.load(slot + w * 4);
                break;
              }
              case OpType::Scan: {
                // Read slot word 0 of op.len consecutive keys,
                // hopping leaves through the next pointers.
                Addr leaf = node;
                std::uint64_t k = key;
                for (std::uint32_t j = 0;
                     j < op.len && k < params_.keys; ++j, ++k) {
                    if (j != 0 && k % Layout::kLeafKeys == 0) {
                        leaf = std::uint32_t(
                            co_await m.load(leaf + 4));
                        if (leaf == 0)
                            break;
                    }
                    co_await m.load(
                        leaf +
                        (2 + (k % Layout::kLeafKeys) * V) * 4);
                }
                break;
              }
              case OpType::Insert: {
                std::uint32_t old =
                    std::uint32_t(co_await m.load(slot));
                if (drop)
                    break; // lost-update hook: reads done, writes gone
                std::uint32_t tag =
                    kv::valueTag(params_.seed, t, i, key);
                co_await m.store(slot, tag);
                for (unsigned w = 1; w < V; ++w)
                    co_await m.store(slot + w * 4,
                                     kv::payloadWord(tag, w));
                if (old == 0) {
                    std::uint32_t occ =
                        std::uint32_t(co_await m.load(node));
                    co_await m.store(node, occ + 1);
                }
                break;
              }
              case OpType::Delete: {
                std::uint32_t old =
                    std::uint32_t(co_await m.load(slot));
                if (old == 0 || drop)
                    break;
                co_await m.store(slot, 0);
                std::uint32_t occ =
                    std::uint32_t(co_await m.load(node));
                co_await m.store(node, occ - 1);
                break;
              }
            }
        }
    }

    kv::Params params_;
    Layout layout_;
    kv::Programs programs_;
    std::size_t drop_idx_ = SIZE_MAX;
    ProcId proc_ = 0;
    unsigned barrier_ = 0;
};

WorkloadInfo
kvWorkload()
{
    return {"kv",
            "transactional B+-tree KV store under Zipfian request streams",
            {scaleOption(),
             {"keys", WorkloadOption::Kind::U64, "131072",
              "key-space size (power of two, 32..4194304)"},
             {"zipf", WorkloadOption::Kind::Real, "0.99",
              "Zipfian skew theta in [0, 1); 0 = uniform"},
             {"ops", WorkloadOption::Kind::U64, "12000",
              "operations per thread"},
             {"tx-ops", WorkloadOption::Kind::U64, "32",
              "operations per transaction"},
             {"vwords", WorkloadOption::Kind::U64, "2",
              "32-bit value words per record (1..16)"},
             {"scan-len", WorkloadOption::Kind::U64, "512",
              "keys visited per range scan"},
             {"lookup-pct", WorkloadOption::Kind::U64, "60",
              "percent of ops that are point lookups"},
             {"scan-pct", WorkloadOption::Kind::U64, "15",
              "percent of ops that are range scans"},
             {"insert-pct", WorkloadOption::Kind::U64, "15",
              "percent of ops that are upserting inserts"},
             {"delete-pct", WorkloadOption::Kind::U64, "10",
              "percent of ops that are deletes"},
             {"preload-pct", WorkloadOption::Kind::U64, "50",
              "percent of keys present before the run"},
             {"drop-write", WorkloadOption::Kind::U64, "0",
              "test hook: drop one insert of thread 0 (lost update)"}},
            [](const WorkloadConfig &cfg) -> std::unique_ptr<Workload> {
                return std::make_unique<KvWorkload>(cfg);
            },
            /*paperKernel=*/false};
}

} // namespace ptm
