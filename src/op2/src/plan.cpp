#include <op2/plan.hpp>

#include <op2/context.hpp>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <tuple>
#include <unordered_map>

namespace op2 {

namespace {

/// One indirect argument class of a loop: the (map, slot, stride) triple
/// that identifies a staged gather table, plus whether any use of it
/// mutates (OP_INC/OP_RW/OP_WRITE), which is what forces colouring.
struct stage_ref {
    op_map map;
    int idx = 0;
    std::size_t stride = 0;
    bool mutating = false;
};

/// Distinct indirect argument classes of `args`, sorted by
/// (map id, slot, stride) with mutating flags merged. One sort + linear
/// merge instead of the old O(n^2) dedup scan, and computed exactly once
/// per plan_get lookup.
std::vector<stage_ref> collect_stage_refs(std::span<op_arg const> args) {
    std::vector<stage_ref> refs;
    refs.reserve(args.size());
    for (auto const& a : args) {
        if (!a.is_indirect()) {
            continue;
        }
        std::size_t const stride =
            a.dat.elem_bytes() * static_cast<std::size_t>(a.dat.dim());
        refs.push_back({a.map, a.idx, stride, is_mutating(a.acc)});
    }
    std::sort(refs.begin(), refs.end(),
              [](stage_ref const& x, stage_ref const& y) {
                  return std::make_tuple(x.map.id(), x.idx, x.stride) <
                         std::make_tuple(y.map.id(), y.idx, y.stride);
              });
    std::size_t out = 0;
    for (std::size_t i = 0; i < refs.size(); ++i) {
        if (out > 0 && refs[out - 1].map == refs[i].map &&
            refs[out - 1].idx == refs[i].idx &&
            refs[out - 1].stride == refs[i].stride) {
            refs[out - 1].mutating |= refs[i].mutating;
        } else {
            refs[out++] = refs[i];
        }
    }
    refs.resize(out);
    return refs;
}

/// Every plan-affecting input is part of the key: the set, every
/// plan_desc field (part_size, partition granularity and index) and the
/// indirect argument classes. See the key-collision regression tests in
/// test_plan.cpp.
///
/// The issuing runtime_context's id is part of the key too. Entity ids
/// are process-unique, so two jobs' same-shaped sets already hash apart
/// — the ctx field exists so a retired job's entries can be *found* and
/// purged (plan_cache_purge) without touching other jobs' plans, and as
/// defense in depth should entity ids ever be recycled.
struct plan_key {
    std::uint64_t set_id = 0;
    std::uint64_t ctx = 0;
    std::size_t part_size = 0;
    std::size_t npartitions = 1;
    std::size_t partition = 0;
    // (map id, slot, stride, mutating) per indirect argument class.
    std::vector<std::tuple<std::uint64_t, int, std::size_t, bool>> refs;

    bool operator==(plan_key const& o) const {
        return set_id == o.set_id && ctx == o.ctx &&
               part_size == o.part_size && npartitions == o.npartitions &&
               partition == o.partition && refs == o.refs;
    }
};

struct plan_key_hash {
    std::size_t operator()(plan_key const& k) const noexcept {
        std::uint64_t h = 0x9e3779b97f4a7c15ull;
        auto mix = [&h](std::uint64_t v) {
            h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
        };
        mix(k.set_id);
        mix(k.ctx);
        mix(k.part_size);
        mix(k.npartitions);
        mix(k.partition);
        for (auto const& [id, idx, stride, mut] : k.refs) {
            mix(id);
            mix(static_cast<std::uint64_t>(idx));
            mix(stride);
            mix(mut ? 1 : 0);
        }
        return static_cast<std::size_t>(h);
    }
};

plan_key make_key(op_set const& set, plan_desc const& desc,
                  std::vector<stage_ref> const& refs) {
    plan_key key;
    key.set_id = set.id();
    key.ctx = current_context()->id();
    key.part_size = desc.part_size;
    key.npartitions = desc.npartitions;
    key.partition = desc.partition;
    key.refs.reserve(refs.size());
    for (auto const& r : refs) {
        key.refs.emplace_back(r.map.id(), r.idx, r.stride, r.mutating);
    }
    return key;
}

/// The shared plan store: an unordered map sharded over independently
/// locked stripes; it owns the plans (stable addresses for the lifetime
/// of the cache). Workers rarely reach it — see local_cache below.
constexpr std::size_t kCacheShards = 16;

struct cache_shard {
    std::shared_mutex mtx;
    std::unordered_map<plan_key, std::unique_ptr<op_plan>, plan_key_hash> map;
};

cache_shard g_shards[kCacheShards];

/// Version counter bumped by plan_cache_clear(): per-worker caches hold
/// raw plan pointers into the shared store, so a clear must invalidate
/// them before the store frees the plans.
std::atomic<std::uint64_t> g_cache_version{1};

cache_shard& shard_for(std::size_t hash) {
    return g_shards[hash & (kCacheShards - 1)];
}

/// The per-worker plan shard: a thread-local key -> plan pointer map.
/// Steady-state lookups (every loop issue after warm-up) resolve here
/// with no lock and no shared cache line touched beyond one relaxed
/// version load, which is what removes cross-worker plan-cache
/// contention when many workers issue loops concurrently. All threads
/// still share one plan per configuration through the backing store.
struct local_cache {
    std::uint64_t version = 0;
    std::unordered_map<plan_key, op_plan const*, plan_key_hash> map;
};

local_cache& local_shard() {
    thread_local local_cache cache;
    auto const v = g_cache_version.load(std::memory_order_acquire);
    if (cache.version != v) {
        cache.map.clear();
        cache.version = v;
    }
    return cache;
}

/// One block to colour: an absolute element range [lo, hi) of the
/// iteration set, plus the owning plan's block id when the block belongs
/// to the partition being built (SIZE_MAX for other partitions' blocks,
/// which participate in conflict detection but whose colours are not
/// recorded).
struct color_span {
    std::size_t lo = 0;
    std::size_t hi = 0;
    std::size_t mine = SIZE_MAX;
};

/// The greedy mask sweep at the heart of the colouring (see
/// color_blocks): for every target element a 64-bit mask of the colours
/// already claimed by spans touching it; each span ORs its targets'
/// masks and takes the lowest free colour. One sweep handles 64
/// colours; the pathological >64-colour case takes another sweep for
/// the next 64.
std::vector<int> sweep_colors(std::vector<color_span> const& spans,
                              std::vector<stage_ref> const& color_refs) {
    // One mask array per distinct target set (conflicts are per target
    // element, regardless of which map reached it).
    std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> masks;
    for (auto const& r : color_refs) {
        masks.try_emplace(r.map.to().id(),
                          std::vector<std::uint64_t>(r.map.to().size(), 0));
    }

    std::vector<int> span_color(spans.size(), -1);
    std::size_t remaining = spans.size();
    int base = 0;
    while (remaining > 0) {
        for (auto& [id, m] : masks) {
            std::fill(m.begin(), m.end(), std::uint64_t{0});
        }
        for (std::size_t s = 0; s < spans.size(); ++s) {
            if (span_color[s] != -1) {
                continue;
            }
            std::uint64_t used = 0;
            for (auto const& r : color_refs) {
                auto const& m = masks.at(r.map.to().id());
                for (std::size_t e = spans[s].lo; e < spans[s].hi; ++e) {
                    used |= m[static_cast<std::size_t>(r.map(e, r.idx))];
                }
            }
            if (used == ~std::uint64_t{0}) {
                continue;  // all 64 colours of this sweep taken: next sweep
            }
            int const c = std::countr_one(used);
            span_color[s] = base + c;
            std::uint64_t const bit = std::uint64_t{1} << c;
            for (auto const& r : color_refs) {
                auto& m = masks.at(r.map.to().id());
                for (std::size_t e = spans[s].lo; e < spans[s].hi; ++e) {
                    m[static_cast<std::size_t>(r.map(e, r.idx))] |= bit;
                }
            }
            --remaining;
        }
        base += 64;
    }
    return span_color;
}

/// Memo of the global sweep shared by the partition plans of one
/// configuration. The sweep's input is fully determined by (set,
/// part_size, npartitions, mutating indirect classes) — the partition
/// index does not affect colouring — so the first partition plan built
/// computes it once and the other P-1 reuse the result instead of each
/// re-walking the whole set. Entries are dropped by
/// plan_cache_clear() along with the plans that reference them.
struct color_memo {
    std::mutex mtx;
    std::unordered_map<plan_key, std::shared_ptr<std::vector<int> const>,
                       plan_key_hash>
        map;
};
color_memo g_color_memo;

std::shared_ptr<std::vector<int> const> sweep_colors_cached(
    op_plan const& plan, op_set const& set,
    std::vector<color_span> const& spans,
    std::vector<stage_ref> const& color_refs) {
    // Key normalised to the memo's granularity — partition 0, mutating
    // classes only — so there is one entry per configuration whose
    // colouring actually differs.
    plan_key key = make_key(set, plan_desc{plan.part_size, plan.npartitions},
                            color_refs);
    {
        std::lock_guard<std::mutex> lk(g_color_memo.mtx);
        if (auto it = g_color_memo.map.find(key);
            it != g_color_memo.map.end()) {
            return it->second;
        }
    }
    // Compute outside the lock: the sweep is deterministic, so two
    // racing builders produce identical vectors and the first insert
    // wins.
    auto computed = std::make_shared<std::vector<int> const>(
        sweep_colors(spans, color_refs));
    std::lock_guard<std::mutex> lk(g_color_memo.mtx);
    auto [it, inserted] =
        g_color_memo.map.try_emplace(std::move(key), std::move(computed));
    return it->second;
}

/// Single-pass block-conflict colouring. For every target element we keep
/// a 64-bit mask of the colours already claimed by blocks touching it;
/// a block ORs the masks of all its targets and takes the lowest free
/// colour. One sweep over the set colours up to 64 colours (the old
/// greedy scheme re-scanned the whole set once per colour); in the
/// pathological >64-colour case another sweep handles the next 64.
///
/// Whole-set plans colour their own blocks. Partition plans colour the
/// *whole loop* — every partition's blocks, walked in deterministic
/// (partition, block) order — and record only their own partition's
/// colours. Every partition plan of one configuration therefore derives
/// the same global assignment, which gives the colour labels a
/// cross-partition guarantee: two same-coloured blocks never mutate the
/// same target element, *no matter which partitions they belong to*.
/// That invariant is what makes the dataflow backend's loop-local
/// same-colour non-conflict exemption sound (per-partition colouring
/// would let the single blocks of two boundary-straddling partitions
/// both claim colour 0 while INC-ing the same boundary element).
void color_blocks(op_plan& plan, std::vector<stage_ref> const& color_refs,
                  op_set const& set) {
    plan.colored = true;

    // The spans to colour, in the deterministic global walk order.
    std::vector<color_span> spans;
    if (plan.npartitions > 1) {
        auto const part = set.partition(plan.npartitions);
        for (std::size_t p = 0; p < plan.npartitions; ++p) {
            std::size_t const base = part->begin(p);
            std::size_t const n = part->size_of(p);
            std::size_t const nb =
                n == 0 ? 0 : (n + plan.part_size - 1) / plan.part_size;
            for (std::size_t b = 0; b < nb; ++b) {
                std::size_t const off = b * plan.part_size;
                spans.push_back({base + off,
                                 base + off + std::min(plan.part_size, n - off),
                                 p == plan.partition ? b : SIZE_MAX});
            }
        }
    } else {
        spans.reserve(plan.nblocks);
        for (std::size_t b = 0; b < plan.nblocks; ++b) {
            spans.push_back({plan.offset[b], plan.offset[b] + plan.nelems[b],
                             b});
        }
    }

    std::vector<int> local_colors;
    std::shared_ptr<std::vector<int> const> shared_colors;
    if (plan.npartitions > 1) {
        shared_colors = sweep_colors_cached(plan, set, spans, color_refs);
    } else {
        local_colors = sweep_colors(spans, color_refs);
    }
    std::vector<int> const& span_color =
        shared_colors ? *shared_colors : local_colors;

    std::vector<int> block_color(plan.nblocks, -1);
    int max_color = -1;  // max colour among *this plan's* blocks
    for (std::size_t s = 0; s < spans.size(); ++s) {
        if (spans[s].mine != SIZE_MAX) {
            block_color[spans[s].mine] = span_color[s];
            max_color = std::max(max_color, span_color[s]);
        }
    }

    // Partition plans may own a sparse subset of the global colours
    // (colour classes with no block here stay empty in color_offset);
    // the issue path skips empty colours when creating sub-nodes.
    plan.ncolors = static_cast<std::size_t>(max_color + 1);
    plan.color_offset.assign(plan.ncolors + 1, 0);
    for (std::size_t b = 0; b < plan.nblocks; ++b) {
        ++plan.color_offset[static_cast<std::size_t>(block_color[b]) + 1];
    }
    for (std::size_t c = 0; c < plan.ncolors; ++c) {
        plan.color_offset[c + 1] += plan.color_offset[c];
    }
    plan.blkmap.resize(plan.nblocks);
    std::vector<std::size_t> cursor(plan.color_offset.begin(),
                                    plan.color_offset.end() - 1);
    for (std::size_t b = 0; b < plan.nblocks; ++b) {
        plan.blkmap[cursor[static_cast<std::size_t>(block_color[b])]++] = b;
    }
}

/// Build the staged gather tables: off[e] = map[(base+e)*dim+idx] *
/// stride, the per-element byte offset the executor's inner loop reads
/// directly. Tables are indexed relative to the plan's elem_base; the
/// offsets themselves are absolute bytes into the target dat.
void build_stages(op_plan& plan, std::vector<stage_ref> const& refs) {
    plan.stages.reserve(refs.size());
    for (auto const& r : refs) {
        // 32-bit offsets halve the table's cache footprint; dats beyond
        // 4 GiB simply fall back to per-element map resolution.
        if (r.map.to().size() * r.stride >
            std::numeric_limits<std::uint32_t>::max()) {
            continue;
        }
        plan_stage st;
        st.map_id = r.map.id();
        st.idx = r.idx;
        st.stride = r.stride;
        st.off.resize(plan.set_size);
        int const* table = r.map.table().data() +
                           plan.elem_base * static_cast<std::size_t>(
                                                r.map.dim());
        auto const mapdim = static_cast<std::size_t>(r.map.dim());
        auto const idx = static_cast<std::size_t>(r.idx);
        for (std::size_t e = 0; e < plan.set_size; ++e) {
            st.off[e] = static_cast<std::uint32_t>(
                static_cast<std::size_t>(table[e * mapdim + idx]) * r.stride);
        }
        plan.stages.push_back(std::move(st));
    }
}

/// Compute the map-derived partition footprints: which partitions of
/// each indirect target set the plan's element range reaches. One entry
/// per distinct (map, slot); strides are irrelevant to reachability.
void build_footprints(op_plan& plan, std::vector<stage_ref> const& refs) {
    for (auto const& r : refs) {
        if (plan.find_footprint(r.map.id(), r.idx) != nullptr) {
            continue;
        }
        auto const tpart = r.map.to().partition(plan.npartitions);
        std::vector<bool> touched(plan.npartitions, false);
        for (std::size_t e = 0; e < plan.set_size; ++e) {
            auto const t = static_cast<std::size_t>(
                r.map(plan.elem_base + e, r.idx));
            touched[tpart->find(t)] = true;
        }
        plan_footprint fp;
        fp.map_id = r.map.id();
        fp.idx = r.idx;
        for (std::size_t p = 0; p < plan.npartitions; ++p) {
            if (touched[p]) {
                fp.parts.push_back(static_cast<std::uint32_t>(p));
            }
        }
        plan.footprints.push_back(std::move(fp));
    }
}

op_plan plan_build_impl(op_set const& set, plan_desc const& desc,
                        std::vector<stage_ref> const& refs) {
    op_plan plan;
    plan.part_size = desc.part_size;
    plan.npartitions = desc.npartitions;
    plan.partition = desc.partition;
    if (desc.npartitions > 1) {
        auto const part = set.partition(desc.npartitions);
        plan.elem_base = part->begin(desc.partition);
        plan.set_size = part->size_of(desc.partition);
    } else {
        plan.elem_base = 0;
        plan.set_size = set.size();
    }
    std::size_t const part_size = desc.part_size;
    std::size_t const n = plan.set_size;
    plan.nblocks = (n + part_size - 1) / part_size;
    plan.offset.resize(plan.nblocks);
    plan.nelems.resize(plan.nblocks);
    for (std::size_t b = 0; b < plan.nblocks; ++b) {
        plan.offset[b] = b * part_size;
        plan.nelems[b] = std::min(part_size, n - plan.offset[b]);
    }

    build_stages(plan, refs);
    if (desc.npartitions > 1) {
        build_footprints(plan, refs);
    }

    std::vector<stage_ref> color_refs;
    for (auto const& r : refs) {
        if (r.mutating) {
            color_refs.push_back(r);
        }
    }
    // Partition plans with mutating indirect args always take the
    // colouring path, even with a single block: the block's colour must
    // come from the *global* sweep so it stays comparable with the other
    // partitions' colours (a lone block is trivially colour 0 locally,
    // but may conflict with another partition's colour-0 block).
    bool const trivial =
        color_refs.empty() || plan.nblocks == 0 ||
        (plan.nblocks <= 1 && desc.npartitions == 1);
    if (trivial) {
        plan.colored = false;
        plan.ncolors = plan.nblocks == 0 ? 0 : 1;
        plan.blkmap.resize(plan.nblocks);
        for (std::size_t b = 0; b < plan.nblocks; ++b) {
            plan.blkmap[b] = b;
        }
        plan.color_offset = {0, plan.nblocks};
        if (plan.nblocks == 0) {
            plan.color_offset = {0};
        }
        return plan;
    }

    color_blocks(plan, color_refs, set);
    return plan;
}

/// Validate + normalise a caller-supplied desc (part_size 0 and
/// default_part_size are the same configuration and must share one
/// cache entry; partition bounds must be sane).
plan_desc normalise(plan_desc desc) {
    if (desc.part_size == 0) {
        desc.part_size = default_part_size;
    }
    if (desc.npartitions == 0) {
        desc.npartitions = 1;
    }
    if (desc.partition >= desc.npartitions) {
        throw std::invalid_argument("plan: partition index out of range");
    }
    return desc;
}

}  // namespace

op_plan plan_build(op_set const& set, std::span<op_arg const> args,
                   plan_desc const& desc) {
    if (!set.valid()) {
        throw std::invalid_argument("plan_build: invalid set");
    }
    return plan_build_impl(set, normalise(desc), collect_stage_refs(args));
}

op_plan plan_build(op_set const& set, std::span<op_arg const> args,
                   std::size_t part_size) {
    return plan_build(set, args, plan_desc{part_size});
}

op_plan const& plan_get(op_set const& set, std::span<op_arg const> args,
                        plan_desc const& desc0) {
    if (!set.valid()) {
        throw std::invalid_argument("plan_get: invalid set");
    }
    plan_desc const desc = normalise(desc0);
    auto const refs = collect_stage_refs(args);
    plan_key key = make_key(set, desc, refs);

    // Per-worker shard first: no locks, no shared state.
    local_cache& local = local_shard();
    if (auto it = local.map.find(key); it != local.map.end()) {
        return *it->second;
    }

    std::size_t const hash = plan_key_hash{}(key);
    cache_shard& shard = shard_for(hash);
    {
        std::shared_lock<std::shared_mutex> rd(shard.mtx);
        auto it = shard.map.find(key);
        if (it != shard.map.end()) {
            local.map.emplace(std::move(key), it->second.get());
            return *it->second;
        }
    }
    auto plan = std::make_unique<op_plan>(plan_build_impl(set, desc, refs));
    op_plan const* stored = nullptr;
    {
        std::unique_lock<std::shared_mutex> wr(shard.mtx);
        // try_emplace keeps the first insertion if another thread raced us.
        auto [it, inserted] = shard.map.try_emplace(key, std::move(plan));
        stored = it->second.get();
    }
    local.map.emplace(std::move(key), stored);
    return *stored;
}

op_plan const& plan_get(op_set const& set, std::span<op_arg const> args,
                        std::size_t part_size) {
    return plan_get(set, args, plan_desc{part_size});
}

void plan_cache_clear() {
    // Invalidate the per-worker pointer maps *before* freeing the plans
    // they point into; each thread flushes its map on its next lookup.
    g_cache_version.fetch_add(1, std::memory_order_acq_rel);
    for (auto& shard : g_shards) {
        std::unique_lock<std::shared_mutex> wr(shard.mtx);
        shard.map.clear();
    }
    {
        std::lock_guard<std::mutex> lk(g_color_memo.mtx);
        g_color_memo.map.clear();
    }
}

std::size_t plan_cache_size() {
    std::size_t n = 0;
    for (auto& shard : g_shards) {
        std::shared_lock<std::shared_mutex> rd(shard.mtx);
        n += shard.map.size();
    }
    return n;
}

std::size_t plan_cache_size(std::uint64_t ctx_id) {
    std::size_t n = 0;
    for (auto& shard : g_shards) {
        std::shared_lock<std::shared_mutex> rd(shard.mtx);
        for (auto const& [key, plan] : shard.map) {
            if (key.ctx == ctx_id) {
                ++n;
            }
        }
    }
    return n;
}

void plan_cache_purge(std::uint64_t ctx_id) {
    // Same ordering discipline as plan_cache_clear: invalidate the
    // per-worker pointer maps before freeing any plan they may point
    // into. A purge drops *every* thread's local map, not just entries
    // of the purged context — coarse, but purges happen at job
    // retirement, not on the issue path.
    g_cache_version.fetch_add(1, std::memory_order_acq_rel);
    for (auto& shard : g_shards) {
        std::unique_lock<std::shared_mutex> wr(shard.mtx);
        std::erase_if(shard.map,
                      [&](auto const& kv) { return kv.first.ctx == ctx_id; });
    }
    {
        std::lock_guard<std::mutex> lk(g_color_memo.mtx);
        std::erase_if(g_color_memo.map,
                      [&](auto const& kv) { return kv.first.ctx == ctx_id; });
    }
}

}  // namespace op2
