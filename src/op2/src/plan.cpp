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
/// plan_desc field and the indirect argument classes. See the
/// key-collision regression tests in test_plan.cpp.
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
    // (map id, slot, stride, mutating) per indirect argument class.
    std::vector<std::tuple<std::uint64_t, int, std::size_t, bool>> refs;

    bool operator==(plan_key const& o) const {
        return set_id == o.set_id && ctx == o.ctx &&
               part_size == o.part_size && refs == o.refs;
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

/// Version counter bumped by every purge (purge_if): per-worker caches
/// hold raw plan pointers into the shared store, so a purge must
/// invalidate them before the store frees the plans.
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

/// Single-pass block-conflict colouring. For every target element we keep
/// a 64-bit mask of the colours already claimed by blocks touching it;
/// a block ORs the masks of all its targets and takes the lowest free
/// colour. One sweep over the set colours up to 64 colours (the old
/// greedy scheme re-scanned the whole set once per colour); in the
/// pathological >64-colour case another sweep handles the next 64.
void color_blocks(op_plan& plan, std::vector<stage_ref> const& color_refs) {
    plan.colored = true;

    // One mask array per distinct target set (conflicts are per target
    // element, regardless of which map reached it).
    std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> masks;
    for (auto const& r : color_refs) {
        masks.try_emplace(r.map.to().id(),
                          std::vector<std::uint64_t>(r.map.to().size(), 0));
    }

    std::vector<int> block_color(plan.nblocks, -1);
    std::size_t remaining = plan.nblocks;
    int base = 0;
    while (remaining > 0) {
        for (auto& [id, m] : masks) {
            std::fill(m.begin(), m.end(), std::uint64_t{0});
        }
        for (std::size_t b = 0; b < plan.nblocks; ++b) {
            if (block_color[b] != -1) {
                continue;
            }
            std::size_t const lo = plan.offset[b];
            std::size_t const hi = lo + plan.nelems[b];
            std::uint64_t used = 0;
            for (auto const& r : color_refs) {
                auto const& m = masks.at(r.map.to().id());
                for (std::size_t e = lo; e < hi; ++e) {
                    used |= m[static_cast<std::size_t>(r.map(e, r.idx))];
                }
            }
            if (used == ~std::uint64_t{0}) {
                continue;  // all 64 colours of this sweep taken: next sweep
            }
            int const c = std::countr_one(used);
            block_color[b] = base + c;
            std::uint64_t const bit = std::uint64_t{1} << c;
            for (auto const& r : color_refs) {
                auto& m = masks.at(r.map.to().id());
                for (std::size_t e = lo; e < hi; ++e) {
                    m[static_cast<std::size_t>(r.map(e, r.idx))] |= bit;
                }
            }
            --remaining;
        }
        base += 64;
    }

    int const max_color =
        *std::max_element(block_color.begin(), block_color.end());
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

/// Build the staged gather tables: off[e] = map[e*dim+idx] * stride,
/// the per-element byte offset the executor's inner loop reads directly.
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
        int const* table = r.map.table().data();
        auto const mapdim = static_cast<std::size_t>(r.map.dim());
        auto const idx = static_cast<std::size_t>(r.idx);
        for (std::size_t e = 0; e < plan.set_size; ++e) {
            st.off[e] = static_cast<std::uint32_t>(
                static_cast<std::size_t>(table[e * mapdim + idx]) * r.stride);
        }
        plan.stages.push_back(std::move(st));
    }
}

op_plan plan_build_impl(op_set const& set, plan_desc const& desc,
                        std::vector<stage_ref> const& refs) {
    op_plan plan;
    plan.part_size = desc.part_size;
    plan.set_size = set.size();
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

    std::vector<stage_ref> color_refs;
    for (auto const& r : refs) {
        if (r.mutating) {
            color_refs.push_back(r);
        }
    }
    if (color_refs.empty() || plan.nblocks <= 1) {
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

    color_blocks(plan, color_refs);
    return plan;
}

/// One footprint in compressed rows: `visit(s, mark)` calls mark(q) for
/// every partition q slice s reaches (repeats allowed); each slice's row
/// comes out deduplicated and sorted.
template <typename Visit>
slice_footprint build_footprint(std::size_t nslices, std::size_t nparts,
                                Visit&& visit) {
    slice_footprint fp;
    fp.offset.reserve(nslices + 1);
    fp.offset.push_back(0);
    std::vector<std::size_t> stamp(nparts, SIZE_MAX);
    for (std::size_t s = 0; s < nslices; ++s) {
        auto const row = fp.parts.size();
        visit(s, [&](std::size_t q) {
            if (stamp[q] != s) {
                stamp[q] = s;
                fp.parts.push_back(static_cast<std::uint32_t>(q));
            }
        });
        std::sort(fp.parts.begin() + static_cast<std::ptrdiff_t>(row),
                  fp.parts.end());
        fp.offset.push_back(static_cast<std::uint32_t>(fp.parts.size()));
    }
    return fp;
}

/// Cut every colour's blocks into `nparts` near-equal runs and derive
/// each run's footprints: the iteration partitions its blocks overlap
/// and, per distinct (map, slot), the target partitions its map rows
/// reach.
plan_slicing build_slicing(op_plan const& plan, op_set const& set,
                           std::vector<stage_ref> const& refs,
                           std::size_t nparts) {
    plan_slicing sl;
    sl.nparts = nparts;
    sl.cut.reserve(plan.ncolors * nparts + 1);
    for (std::size_t c = 0; c < plan.ncolors; ++c) {
        std::size_t const lo = plan.color_offset[c];
        std::size_t const m = plan.color_offset[c + 1] - lo;
        for (std::size_t k = 0; k < nparts; ++k) {
            // Rounded up, so a colour with fewer blocks than slices fills
            // its low slices (and their workers) first.
            sl.cut.push_back(lo + (m * k + nparts - 1) / nparts);
        }
    }
    sl.cut.push_back(plan.nblocks);
    std::size_t const nslices = sl.nslices();

    auto const ipart = set.partition(nparts);
    sl.direct = build_footprint(nslices, nparts, [&](std::size_t s,
                                                     auto&& mark) {
        for (std::size_t b : plan.blocks_of_slice(sl, s)) {
            std::size_t const last =
                ipart->find(plan.offset[b] + plan.nelems[b] - 1);
            for (std::size_t q = ipart->find(plan.offset[b]); q <= last; ++q) {
                mark(q);
            }
        }
    });
    for (auto const& r : refs) {
        if (sl.find(r.map.id(), r.idx) != nullptr) {
            continue;  // strides do not change reachability
        }
        auto const tpart = r.map.to().partition(nparts);
        slice_footprint fp = build_footprint(
            nslices, nparts, [&](std::size_t s, auto&& mark) {
                for (std::size_t b : plan.blocks_of_slice(sl, s)) {
                    for (std::size_t e = plan.offset[b];
                         e < plan.offset[b] + plan.nelems[b]; ++e) {
                        mark(tpart->find(
                            static_cast<std::size_t>(r.map(e, r.idx))));
                    }
                }
            });
        fp.map_id = r.map.id();
        fp.idx = r.idx;
        sl.indirect.push_back(std::move(fp));
    }
    return sl;
}

/// Drop every cached plan matching `pred`. Invalidates the per-worker
/// pointer maps before freeing any plan they may point into; this drops
/// *every* thread's local map, not just the matching entries — coarse,
/// but purges run at job retirement and set death, not on the issue
/// path.
template <typename Pred>
void purge_if(Pred&& pred) {
    g_cache_version.fetch_add(1, std::memory_order_acq_rel);
    for (auto& shard : g_shards) {
        std::unique_lock<std::shared_mutex> wr(shard.mtx);
        std::erase_if(shard.map,
                      [&](auto const& kv) { return pred(kv.first); });
    }
}

/// Normalise a caller-supplied desc: part_size 0 and default_part_size
/// are the same configuration and must share one cache entry.
plan_desc normalise(plan_desc desc) {
    if (desc.part_size == 0) {
        desc.part_size = default_part_size;
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

plan_slicing const& plan_slices(op_plan const& plan, op_set const& set,
                                std::span<op_arg const> args,
                                std::size_t nparts) {
    nparts = std::max<std::size_t>(nparts, 1);
    auto const find = [nparts](plan_slicing const* s) {
        while (s != nullptr && s->nparts != nparts) {
            s = s->next;
        }
        return s;
    };
    detail::slicing_list& list = *plan.slicings;
    plan_slicing const* head = list.head.load(std::memory_order_acquire);
    if (plan_slicing const* s = find(head)) {
        return *s;
    }
    auto built = std::make_unique<plan_slicing>(
        build_slicing(plan, set, collect_stage_refs(args), nparts));
    for (;;) {
        built->next = head;
        if (list.head.compare_exchange_weak(head, built.get(),
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
            return *built.release();
        }
        // Another thread pushed first: it may have built this very count.
        if (plan_slicing const* s = find(head)) {
            return *s;
        }
    }
}

void plan_cache_clear() {
    purge_if([](plan_key const&) { return true; });
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
    purge_if([ctx_id](plan_key const& k) { return k.ctx == ctx_id; });
}

void plan_cache_drop_set(std::uint64_t set_id) {
    purge_if([set_id](plan_key const& k) { return k.set_id == set_id; });
}

}  // namespace op2
