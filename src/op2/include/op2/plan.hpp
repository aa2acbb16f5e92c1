#pragma once

#include <cstddef>
#include <cstdint>
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

/// Which partitions of an indirect argument's *target* set this plan's
/// element range reaches through (map, slot) — the map-derived partition
/// footprint. The dataflow backend turns these into per-partition
/// dependency requests: a sub-node executing this plan edges on exactly
/// the dat partitions it can touch, nothing more. Only present on plans
/// built at partition granularity (npartitions > 1).
struct plan_footprint {
    std::uint64_t map_id = 0;
    int idx = 0;
    std::vector<std::uint32_t> parts;  // sorted target-partition ids
};

/// Identifies one plan configuration. Everything in here affects the
/// built plan's contents, so everything in here is part of the cache
/// key (see the key-collision regression tests in test_plan.cpp).
struct plan_desc {
    /// Block (mini-partition) size; 0 normalises to default_part_size.
    std::size_t part_size = default_part_size;
    /// Partition granularity of the iteration set and every indirect
    /// target set (1 = whole-set plan).
    std::size_t npartitions = 1;
    /// Which partition this plan covers (< npartitions).
    std::size_t partition = 0;

    constexpr plan_desc() noexcept = default;
    constexpr explicit plan_desc(std::size_t part_size_,
                                 std::size_t npartitions_ = 1,
                                 std::size_t partition_ = 0) noexcept
      : part_size(part_size_),
        npartitions(npartitions_),
        partition(partition_) {}
    /// The older four-value form, whose second value selected whether
    /// staged gather tables were built. Tables are always built now, so
    /// the flag is ignored; the form stays for callers that still pass
    /// it (the perfbench harness).
    constexpr explicit plan_desc(std::size_t part_size_, bool /*staged*/,
                                 std::size_t npartitions_,
                                 std::size_t partition_) noexcept
      : plan_desc(part_size_, npartitions_, partition_) {}
};

/// An execution plan for one (set, args, part_size) combination:
/// the iteration set partitioned into contiguous blocks, the blocks
/// coloured so that no two blocks of the same colour touch the same
/// target element through any mutating indirect argument, and one staged
/// gather table per indirect argument class. Blocks of one colour can run
/// concurrently without atomics; colours execute in sequence. This
/// reproduces the blockId/offset_b/nelem structure of the OP2-generated
/// loop in Fig. 4 of the paper, plus OP2's staging (loc-map) tables.
struct op_plan {
    /// Elements covered by this plan. Whole-set plans cover [0, set
    /// size); partition plans cover [elem_base, elem_base + set_size) of
    /// the set, with every block offset and gather table indexed
    /// *relative* to elem_base (the executor re-bases its direct
    /// pointers and map rows once per loop, so the hot path is
    /// unchanged).
    std::size_t set_size = 0;   // elements covered (partition size)
    std::size_t elem_base = 0;  // absolute index of the first element
    std::size_t part_size = 0;
    std::size_t nblocks = 0;

    /// Partition context the plan was built for.
    std::size_t npartitions = 1;
    std::size_t partition = 0;

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

    /// Map-derived partition footprints, one per distinct (map, slot)
    /// among the loop's indirect args. Empty on whole-set plans.
    std::vector<plan_footprint> footprints;

    /// Blocks of colour c (ids into offset/nelems).
    [[nodiscard]] std::span<std::size_t const> blocks_of_color(
        std::size_t c) const {
        return {blkmap.data() + color_offset[c],
                color_offset[c + 1] - color_offset[c]};
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

    /// The target-partition footprint of (map, slot), or nullptr when
    /// absent (whole-set plans carry none).
    [[nodiscard]] plan_footprint const* find_footprint(std::uint64_t map_id,
                                                       int idx) const
        noexcept {
        for (auto const& f : footprints) {
            if (f.map_id == map_id && f.idx == idx) {
                return &f;
            }
        }
        return nullptr;
    }
};

/// Build (or fetch from the process-wide cache) the plan for executing
/// `args` over `set` (or over one partition of it) under `desc`. Plans
/// are cached by (set, every plan_desc field, indirect argument
/// classes), like op_plan_get in OP2. The cache is two-level: a
/// per-worker (thread-local) pointer map answers repeat lookups with no
/// locking or atomics at all — concurrent loops on different workers
/// never contend — backed by a sharded shared store that owns the plans,
/// so every worker resolves one configuration to the same op_plan.
op_plan const& plan_get(op_set const& set, std::span<op_arg const> args,
                        plan_desc const& desc);

/// Whole-set convenience overload (partition granularity 1).
op_plan const& plan_get(op_set const& set, std::span<op_arg const> args,
                        std::size_t part_size);

/// Build a plan without consulting the cache (exposed for tests).
op_plan plan_build(op_set const& set, std::span<op_arg const> args,
                   plan_desc const& desc);

op_plan plan_build(op_set const& set, std::span<op_arg const> args,
                   std::size_t part_size);

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

}  // namespace op2
