#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include <op2/arg.hpp>
#include <op2/set.hpp>

namespace op2 {

/// Block size used when the caller passes part_size == 0 ("pick for me").
/// plan_get normalises before keying the cache, so 0 and this value hit
/// the same cached plan.
inline constexpr std::size_t default_part_size = 128;

/// Pre-resolved gather table for one indirect argument class of a loop:
/// for every element of the iteration set, the byte offset of its target
/// datum inside the dat's storage. The executor's inner loop reads
/// `base + off[i]` instead of `base + map[i*mapdim+idx]*stride`, which
/// removes one indexed load and one multiply per argument per element and
/// turns the map traversal into a stream the hardware prefetcher likes.
/// Tables are identified by (map, slot, stride); several op_args of one
/// loop may share a table.
struct plan_stage {
    std::uint64_t map_id = 0;
    int idx = 0;
    std::size_t stride = 0;          // bytes per target-set element
    std::vector<std::uint32_t> off;  // [set_size] byte offsets into the dat
};

/// The partitions each slice of a plan_slicing reaches, as compressed
/// rows: slice s's sorted partition ids are parts[offset[s] ..
/// offset[s + 1]). For the iteration set (direct args) they are the
/// iteration partitions the slice's blocks fall in; for an indirect
/// (map, slot) class, the partitions of the map's target set its rows
/// reach. The dataflow backend turns them into per-partition dependency
/// requests: a sub-node edges on exactly the dat partitions it can
/// touch, nothing more.
struct slice_footprint {
    std::uint64_t map_id = 0;  // 0 for the iteration set's own footprint
    int idx = 0;
    std::vector<std::uint32_t> offset;  // [nslices + 1] ranges into parts
    std::vector<std::uint32_t> parts;

    [[nodiscard]] std::span<std::uint32_t const> of(std::size_t s) const {
        return {parts.data() + offset[s], offset[s + 1] - offset[s]};
    }
};

/// A plan's colour classes cut for dataflow issue at `nparts`: each
/// colour's block list is split into `nparts` near-equal runs (sizes
/// differ by at most one block), so slice s = colour * nparts + k covers
/// blkmap[cut[s], cut[s + 1]). Slices of one colour never conflict (the
/// plan's colouring), so they can all run at once; `nparts` also sets
/// the granularity of the dats' dependency records the footprints name.
/// The dataflow backend cuts at the global pool's worker count. Built
/// once per (plan, nparts) by plan_slices and kept with the plan: a
/// process that re-creates its pool at another size gets a second
/// slicing of the same plan.
struct plan_slicing {
    std::size_t nparts = 1;
    std::vector<std::size_t> cut;  // [ncolors * nparts + 1] into blkmap
    slice_footprint direct;        // iteration partitions per slice
    std::vector<slice_footprint> indirect;  // one per (map, slot) class
    plan_slicing const* next = nullptr;     // the owning plan's list link

    [[nodiscard]] std::size_t nslices() const noexcept {
        return cut.size() - 1;
    }

    /// The footprint of indirect class (map, slot), or nullptr.
    [[nodiscard]] slice_footprint const* find(std::uint64_t map_id,
                                              int idx) const noexcept {
        for (auto const& f : indirect) {
            if (f.map_id == map_id && f.idx == idx) {
                return &f;
            }
        }
        return nullptr;
    }
};

namespace detail {
/// A plan's slicings, one per partition count: a grow-only list that
/// lookups walk with acquire loads and inserts extend by CAS on the
/// head, so a warm lookup takes no lock.
struct slicing_list {
    std::atomic<plan_slicing const*> head{nullptr};

    slicing_list() = default;
    slicing_list(slicing_list const&) = delete;
    slicing_list& operator=(slicing_list const&) = delete;
    ~slicing_list() {
        for (plan_slicing const* s = head.load(); s != nullptr;) {
            plan_slicing const* const n = s->next;
            delete s;
            s = n;
        }
    }
};
}  // namespace detail

/// Identifies one plan configuration. Everything in here affects the
/// built plan's contents, so everything in here is part of the cache
/// key (see the key-collision regression tests in test_plan.cpp).
struct plan_desc {
    /// Block (mini-partition) size; 0 normalises to default_part_size.
    std::size_t part_size = default_part_size;

    constexpr plan_desc() noexcept = default;
    constexpr explicit plan_desc(std::size_t part_size_) noexcept
      : part_size(part_size_) {}
    /// The older four-value form (part_size, staged, npartitions,
    /// partition). Plans always cover the whole set with staged tables
    /// now, so only part_size is kept; the form stays for callers that
    /// still pass it (the perfbench harness).
    constexpr explicit plan_desc(std::size_t part_size_, bool /*staged*/,
                                 std::size_t /*npartitions*/,
                                 std::size_t /*partition*/) noexcept
      : plan_desc(part_size_) {}
};

/// An execution plan for one (set, args, part_size) combination:
/// the iteration set partitioned into contiguous blocks, the blocks
/// coloured so that no two blocks of the same colour touch the same
/// target element through any mutating indirect argument, and one staged
/// gather table per indirect argument class. Blocks of one colour can run
/// concurrently without atomics; colours execute in sequence. This
/// reproduces the blockId/offset_b/nelem structure of the OP2-generated
/// loop in Fig. 4 of the paper, plus OP2's staging (loc-map) tables.
/// Every backend runs the same plan: staged sweeps it colour by colour,
/// hpx_dataflow issues it as colour slices (plan_slicing).
struct op_plan {
    std::size_t set_size = 0;
    std::size_t part_size = 0;
    std::size_t nblocks = 0;

    std::vector<std::size_t> offset;  // [nblocks] first element of block
    std::vector<std::size_t> nelems;  // [nblocks] elements in block

    std::size_t ncolors = 0;
    std::vector<std::size_t> color_offset;  // [ncolors+1] ranges into blkmap
    std::vector<std::size_t> blkmap;        // [nblocks] block ids, by colour

    /// True when any argument required conflict colouring.
    bool colored = false;

    /// Staged gather tables, one per distinct (map, slot, stride) among
    /// the loop's indirect args. A table can be absent when the target
    /// dat is too large for 32-bit byte offsets; the executor then falls
    /// back to per-element map resolution for that argument.
    std::vector<plan_stage> stages;

    /// Slicings built for this plan (plan_slices).
    std::unique_ptr<detail::slicing_list> slicings =
        std::make_unique<detail::slicing_list>();

    /// Blocks of colour c (ids into offset/nelems).
    [[nodiscard]] std::span<std::size_t const> blocks_of_color(
        std::size_t c) const {
        return {blkmap.data() + color_offset[c],
                color_offset[c + 1] - color_offset[c]};
    }

    /// Blocks of slice s of `sl` (ids into offset/nelems).
    [[nodiscard]] std::span<std::size_t const> blocks_of_slice(
        plan_slicing const& sl, std::size_t s) const {
        return {blkmap.data() + sl.cut[s], sl.cut[s + 1] - sl.cut[s]};
    }

    /// The staged table for (map, slot, stride), or nullptr when absent.
    [[nodiscard]] plan_stage const* find_stage(std::uint64_t map_id, int idx,
                                               std::size_t stride) const
        noexcept {
        for (auto const& s : stages) {
            if (s.map_id == map_id && s.idx == idx && s.stride == stride) {
                return &s;
            }
        }
        return nullptr;
    }
};

/// Build (or fetch from the process-wide cache) the plan for executing
/// `args` over `set` under `desc`. Plans are cached by (set, every
/// plan_desc field, indirect argument classes), like op_plan_get in OP2. The cache is two-level: a
/// per-worker (thread-local) pointer map answers repeat lookups with no
/// locking or atomics at all — concurrent loops on different workers
/// never contend — backed by a sharded shared store that owns the plans,
/// so every worker resolves one configuration to the same op_plan.
op_plan const& plan_get(op_set const& set, std::span<op_arg const> args,
                        plan_desc const& desc);

op_plan const& plan_get(op_set const& set, std::span<op_arg const> args,
                        std::size_t part_size);

/// Build a plan without consulting the cache (exposed for tests).
op_plan plan_build(op_set const& set, std::span<op_arg const> args,
                   plan_desc const& desc);

op_plan plan_build(op_set const& set, std::span<op_arg const> args,
                   std::size_t part_size);

/// The colour slicing of `plan` (built for `args` over `set`) at
/// `nparts`, built on first use and kept with the plan: every later
/// lookup at the same count walks a short lock-free list. nparts == 0
/// is treated as 1.
plan_slicing const& plan_slices(op_plan const& plan, op_set const& set,
                                std::span<op_arg const> args,
                                std::size_t nparts);

/// Drop all cached plans (tests / reinitialisation).
void plan_cache_clear();

/// Number of plans currently cached.
std::size_t plan_cache_size();

/// Number of plans cached under one runtime_context (plan keys carry
/// the issuing context's id — see op2/context.hpp).
std::size_t plan_cache_size(std::uint64_t ctx_id);

/// Drop the plans cached under one runtime_context, leaving every other
/// context's plans in place. The service layer calls this at job
/// retirement so a long-lived process doesn't accumulate dead jobs'
/// plans.
void plan_cache_purge(std::uint64_t ctx_id);

/// Drop every plan cached for iteration set `set_id`. Runs when the
/// set's last handle goes (set_impl's destructor), so a program that
/// declares and drops meshes does not keep their plans for the life of
/// the process.
void plan_cache_drop_set(std::uint64_t set_id);

}  // namespace op2
