#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <hpxlite/config.hpp>
#include <op2/arg.hpp>
#include <op2/kernel_traits.hpp>
#include <op2/loop_options.hpp>
#include <op2/plan.hpp>
#include <op2/set.hpp>

namespace op2::detail {

inline void prefetch_ro(void const* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p, 0, 3);
#else
    (void)p;
#endif
}

/// Pre-resolved per-argument state for the hot loop.
struct arg_ctx {
    std::byte* base = nullptr;   // dat storage (null for globals)
    std::size_t stride = 0;      // bytes per set element (dim * elem)
    int const* map = nullptr;    // mapping table (null for direct)
    int mapdim = 0;
    int idx = 0;
    // staged gather table from the plan (indirect args; null -> fall back
    // to per-element map resolution)
    std::uint32_t const* stage = nullptr;
    bool gbl = false;
    // prefetch geometry
    std::size_t pf_dist_bytes = 0;    // direct: lookahead in bytes
    std::size_t pf_stride_elems = 1;  // direct: one prefetch per this many
    std::size_t pf_ahead_elems = 0;   // indirect: map-ahead in elements
};

/// Backend-agnostic loop body: owns the kernel, the resolved argument
/// contexts and the per-block global-reduction scratch. The backends
/// differ only in *how* they distribute blocks over workers, which they
/// inject through the `bulk` callable of execute().
///
/// run_block dispatches between three paths chosen once per loop (not
/// per element):
///  * all-direct: every pointer advances by a constant stride, so the
///    element loop is pure pointer bumps — no per-element, per-argument
///    mode branches and no `base + i*stride` recompute;
///  * staged: indirect pointers come from the plan's pre-resolved byte-
///    offset tables (`base + off[i]`, no map load + multiply), direct
///    pointers bump, and — the paper's headline prefetch technique,
///    extended from direct to indirect operands — while executing element
///    i the loop issues a software prefetch for the *target* of element
///    i + distance through the same table (map-ahead prefetching);
///  * mapped: the fallback for a loop with an indirect argument the plan
///    could not stage (target dat beyond 32-bit byte offsets), which
///    resolves that argument through the map per element.
/// The seq backend's run_sequential is the reference every path is
/// tested against.
template <typename Kernel, std::size_t N>
class loop_executor {
public:
    loop_executor(op_set set, std::array<op_arg, N> args, Kernel kernel,
                  loop_options opts)
      : set_(std::move(set)),
        args_(std::move(args)),
        kernel_(std::in_place, std::move(kernel)),
        opts_(opts) {
        static_assert(N == kernel_arity_v<Kernel>,
                      "op_par_loop: argument count does not match kernel");
    }

    /// Re-point a pooled executor at a fresh issue (exec::backend.hpp's
    /// cross-issue group pool): new set/arg handles, kernel and options.
    /// The grow-only reduction scratch keeps its capacity — only the
    /// contents are re-seeded, by the next seed_scratch() — which is
    /// what turns the per-issue scratch allocation into a one-time
    /// warm-up cost. The kernel is re-emplaced because lambdas are
    /// copy-constructible but not assignable.
    void rebind(op_set set, std::array<op_arg, N> args, Kernel const& kernel,
                loop_options const& opts) {
        set_ = std::move(set);
        args_ = std::move(args);
        kernel_.emplace(kernel);
        opts_ = opts;
    }

    /// Check every argument against the iteration set. Throws
    /// std::invalid_argument with the loop name on mismatch.
    void validate(char const* name) const {
        for (auto const& a : args_) {
            if (a.is_gbl()) {
                continue;
            }
            if (a.is_direct()) {
                if (!(a.dat.set() == set_)) {
                    throw std::invalid_argument(
                        std::string("op_par_loop '") + name +
                        "': direct dat '" + a.dat.name() +
                        "' not defined on the iteration set");
                }
            } else {
                if (!(a.map.from() == set_)) {
                    throw std::invalid_argument(
                        std::string("op_par_loop '") + name + "': map '" +
                        a.map.name() + "' does not start at the iteration set");
                }
            }
        }
    }

    [[nodiscard]] std::span<op_arg const> args() const { return args_; }
    [[nodiscard]] op_set const& set() const { return set_; }
    [[nodiscard]] loop_options const& options() const { return opts_; }

    /// Drop the set/arg handles (dat/map shared ownership) once the loop
    /// has executed. The dataflow backend's node outlives its run inside
    /// dat dep_records; keeping the handles there would cycle
    /// dat -> node -> dat and pin both forever.
    void release_handles() noexcept {
        for (auto& a : args_) {
            a = op_arg{};
        }
        set_ = op_set{};
    }

    /// Run the loop over `plan`, delegating the per-colour block sweep to
    /// `bulk(blocks)` (which must execute run_block(b) for every b in
    /// `blocks` and only return once all finished). Handles reduction
    /// scratch setup and the final combine.
    template <typename Bulk>
    void execute(op_plan const& plan, Bulk&& bulk) {
        setup(plan);
        seed_scratch(plan.blkmap);
        for (std::size_t c = 0; c < plan.ncolors; ++c) {
            bulk(plan.blocks_of_color(c));
        }
        combine();
    }

    /// Bind argument contexts and stage tables to `plan` and size the
    /// per-block reduction scratch, without executing anything. The
    /// dataflow backend calls this once at issue time and then runs
    /// slices of the plan from many workers at once; execute() remains
    /// the one-shot form for the synchronous backends. The scratch is
    /// grow-only, so repeated setups over one plan allocate nothing.
    void setup(op_plan const& plan) {
        prepare_ctx();
        bind_plan(plan);
        reduces_ = false;
        for (std::size_t j = 0; j < N; ++j) {
            op_arg const& a = args_[j];
            reduction_[j] = a.is_gbl() && a.acc != op_access::OP_READ;
            if (!reduction_[j]) {
                continue;
            }
            reduces_ = true;
            std::size_t const bytes = gbl_bytes(j) * nblocks_;
            if (scratch_[j].size() < bytes) {
                scratch_[j].resize(bytes);
            }
        }
    }

    /// True when some argument reduces through per-block scratch.
    /// Valid after setup().
    [[nodiscard]] bool reduces() const noexcept { return reduces_; }

    /// Seed the reduction partials of `blocks`: OP_INC to zero, MIN/MAX
    /// from the user's current value. Must run after the loop's
    /// dependencies resolved and before those blocks run (an earlier
    /// loop reducing into the same variable may still be updating it at
    /// issue time); concurrent callers must seed disjoint blocks.
    void seed_scratch(std::span<std::size_t const> blocks) {
        for (std::size_t j = 0; j < N; ++j) {
            if (!reduction_[j]) {
                continue;
            }
            op_arg const& a = args_[j];
            for (std::size_t blk : blocks) {
                std::byte* p = scratch_[j].data() + blk * gbl_bytes(j);
                if (a.acc == op_access::OP_INC) {
                    a.gbl_zero_fn(p, a.dim);
                } else {
                    a.gbl.init(p, a.gbl_data, a.dim);
                }
            }
        }
    }

    /// Fold the per-block reduction partials into the user's globals, in
    /// block order. Must run exactly once, after every block executed;
    /// the fixed order makes every backend's result bitwise-identical.
    void combine() {
        for (std::size_t j = 0; j < N; ++j) {
            if (!reduction_[j]) {
                continue;
            }
            op_arg& a = args_[j];
            for (std::size_t blk = 0; blk < nblocks_; ++blk) {
                a.gbl.combine(a.gbl_data,
                              scratch_[j].data() + blk * gbl_bytes(j), a.dim,
                              a.acc);
            }
        }
    }

    /// Execute one block of the plan (called from bulk).
    void run_block(op_plan const& plan, std::size_t blk) {
        if (all_direct_) {
            opts_.prefetch ? run_block_direct<true>(plan, blk)
                           : run_block_direct<false>(plan, blk);
        } else if (all_indirect_staged_) {
            opts_.prefetch ? run_block_staged<true>(plan, blk)
                           : run_block_staged<false>(plan, blk);
        } else {
            run_block_mapped(plan, blk);
        }
    }

    /// Sequential reference execution — no plan, no privatisation; global
    /// args use the user's pointer directly, like stock OP2's seq backend.
    void run_sequential() {
        std::byte* ptrs[N];
        prepare_ctx();
        std::size_t const n = set_.size();
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < N; ++j) {
                arg_ctx const& c = ctx_[j];
                if (c.gbl) {
                    ptrs[j] = args_[j].gbl_data;
                } else if (c.map != nullptr) {
                    ptrs[j] =
                        c.base +
                        static_cast<std::size_t>(
                            c.map[i * static_cast<std::size_t>(c.mapdim) +
                                  static_cast<std::size_t>(c.idx)]) *
                            c.stride;
                } else {
                    ptrs[j] = c.base + i * c.stride;
                }
            }
            invoke_kernel(*kernel_, ptrs);
        }
    }

private:
    /// All-direct fast path: every pointer advances by a constant stride
    /// (0 for globals), so the element loop carries no address arithmetic
    /// beyond the bumps and no branches besides the loop condition.
    template <bool Prefetch>
    void run_block_direct(op_plan const& plan, std::size_t blk) {
        std::byte* ptrs[N];
        std::size_t step[N];
        std::size_t const b = plan.offset[blk];
        std::size_t const e = b + plan.nelems[blk];

        std::byte* gblp[N];
        resolve_gbl_ptrs(blk, gblp);
        for (std::size_t j = 0; j < N; ++j) {
            arg_ctx const& c = ctx_[j];
            if (c.gbl) {
                ptrs[j] = gblp[j];
                step[j] = 0;
            } else {
                ptrs[j] = c.base + b * c.stride;
                step[j] = c.stride;
            }
        }
        for (std::size_t i = b; i < e; ++i) {
            if constexpr (Prefetch) {
                issue_direct_prefetch(i);
            }
            invoke_kernel(*kernel_, ptrs);
            for (std::size_t j = 0; j < N; ++j) {
                ptrs[j] += step[j];
            }
        }
    }

    /// Staged path for loops whose every indirect argument has a gather
    /// table (the overwhelmingly common case). All per-argument state
    /// lives in local arrays whose address never escapes, so the
    /// compiler keeps bases/tables in registers across the (inlined)
    /// kernel call; per element a staged argument costs one 32-bit table
    /// load and an add, and the only branches are on loop-invariant
    /// `stg[j] != nullptr`, unrolled at compile time over j.
    template <bool Prefetch>
    void run_block_staged(op_plan const& plan, std::size_t blk) {
        std::byte* ptrs[N];
        std::byte* base[N];
        std::uint32_t const* stg[N];
        std::size_t step[N];
        std::size_t pf_ahead[N];
        std::size_t const b = plan.offset[blk];
        std::size_t const e = b + plan.nelems[blk];
        std::size_t const n = plan.set_size;

        std::byte* gblp[N];
        resolve_gbl_ptrs(blk, gblp);
        for (std::size_t j = 0; j < N; ++j) {
            arg_ctx const& c = ctx_[j];
            base[j] = c.base;
            stg[j] = c.stage;
            pf_ahead[j] = c.pf_ahead_elems;
            if (c.gbl) {
                ptrs[j] = gblp[j];
                step[j] = 0;
            } else if (c.map == nullptr) {
                ptrs[j] = c.base + b * c.stride;
                step[j] = c.stride;
            } else {
                ptrs[j] = nullptr;  // resolved per element below
                step[j] = 0;
            }
        }
        for (std::size_t i = b; i < e; ++i) {
            for (std::size_t j = 0; j < N; ++j) {
                if (stg[j] != nullptr) {
                    ptrs[j] = base[j] + stg[j][i];
                    if constexpr (Prefetch) {
                        // Map-ahead: prefetch the indirect operand of the
                        // element `pf_ahead` elements on, through the same
                        // staged table (crossing into the next block is
                        // fine — those are valid set elements).
                        std::size_t const a = i + pf_ahead[j];
                        if (a < n) {
                            prefetch_ro(base[j] + stg[j][a]);
                        }
                    }
                }
            }
            if constexpr (Prefetch) {
                issue_direct_prefetch(i);
            }
            invoke_kernel(*kernel_, ptrs);
            for (std::size_t j = 0; j < N; ++j) {
                ptrs[j] += step[j];
            }
        }
    }

    /// Mixed fallback for the rare loop with an un-staged indirect
    /// argument (target dat beyond 32-bit offsets): staged tables where
    /// available, per-element map resolution where not.
    void run_block_mapped(op_plan const& plan, std::size_t blk) {
        std::byte* ptrs[N];
        std::size_t step[N];
        std::size_t const b = plan.offset[blk];
        std::size_t const e = b + plan.nelems[blk];

        std::byte* gblp[N];
        resolve_gbl_ptrs(blk, gblp);
        for (std::size_t j = 0; j < N; ++j) {
            arg_ctx const& c = ctx_[j];
            if (c.gbl) {
                ptrs[j] = gblp[j];
                step[j] = 0;
            } else if (c.map == nullptr) {
                ptrs[j] = c.base + b * c.stride;
                step[j] = c.stride;
            } else {
                ptrs[j] = nullptr;
                step[j] = 0;
            }
        }
        for (std::size_t i = b; i < e; ++i) {
            for (std::size_t j = 0; j < N; ++j) {
                arg_ctx const& c = ctx_[j];
                if (c.stage != nullptr) {
                    ptrs[j] = c.base + c.stage[i];
                } else if (c.map != nullptr) {
                    ptrs[j] =
                        c.base +
                        static_cast<std::size_t>(
                            c.map[i * static_cast<std::size_t>(c.mapdim) +
                                  static_cast<std::size_t>(c.idx)]) *
                            c.stride;
                }
            }
            invoke_kernel(*kernel_, ptrs);
            for (std::size_t j = 0; j < N; ++j) {
                ptrs[j] += step[j];
            }
        }
    }

    void issue_direct_prefetch(std::size_t i) {
        for (std::size_t j = 0; j < N; ++j) {
            arg_ctx const& c = ctx_[j];
            if (c.pf_dist_bytes != 0 && i % c.pf_stride_elems == 0) {
                std::size_t const t = i * c.stride + c.pf_dist_bytes;
                if (t < dat_bytes_[j]) {
                    prefetch_ro(c.base + t);
                }
            }
        }
    }

    void resolve_gbl_ptrs(std::size_t blk, std::byte* (&gblp)[N]) {
        for (std::size_t j = 0; j < N; ++j) {
            if (ctx_[j].gbl) {
                gblp[j] = reduction_[j]
                              ? scratch_[j].data() + blk * gbl_bytes(j)
                              : args_[j].gbl_data;
            } else {
                gblp[j] = nullptr;
            }
        }
    }

    /// Bytes of one block's partial of reduction argument j.
    [[nodiscard]] std::size_t gbl_bytes(std::size_t j) const noexcept {
        return args_[j].gbl_elem_bytes *
               static_cast<std::size_t>(args_[j].dim);
    }

    void prepare_ctx() {
        all_direct_ = true;
        for (std::size_t j = 0; j < N; ++j) {
            op_arg& a = args_[j];
            arg_ctx c;
            if (a.is_gbl()) {
                c.gbl = true;
            } else {
                c.base = a.dat.raw();
                c.stride = a.dat.elem_bytes() *
                           static_cast<std::size_t>(a.dat.dim());
                dat_bytes_[j] = a.dat.set().size() * c.stride;
                if (a.is_indirect()) {
                    all_direct_ = false;
                    c.map = a.map.table().data();
                    c.mapdim = a.map.dim();
                    c.idx = a.idx;
                    if (opts_.prefetch) {
                        // Map-ahead distance in elements, derived from the
                        // paper's cache-line distance factor.
                        c.pf_ahead_elems = std::max<std::size_t>(
                            1, opts_.prefetch_distance_factor *
                                   hpxlite::cache_line_size /
                                   std::max<std::size_t>(1, c.stride));
                    }
                } else if (opts_.prefetch) {
                    // One prefetch per cache line; lookahead expressed in
                    // cache lines (the paper's distance factor).
                    std::size_t const epl = std::max<std::size_t>(
                        1, hpxlite::cache_line_size / std::max<std::size_t>(
                                                          1, c.stride));
                    c.pf_stride_elems = epl;
                    c.pf_dist_bytes = opts_.prefetch_distance_factor *
                                      hpxlite::cache_line_size;
                }
            }
            ctx_[j] = c;
        }
    }

    void bind_plan(op_plan const& plan) {
        // Bind each indirect argument to its staged table in the plan.
        all_indirect_staged_ = true;
        for (std::size_t j = 0; j < N; ++j) {
            arg_ctx& c = ctx_[j];
            if (c.map == nullptr) {
                continue;
            }
            if (plan_stage const* st =
                    plan.find_stage(args_[j].map.id(), c.idx, c.stride)) {
                c.stage = st->off.data();
            } else {
                all_indirect_staged_ = false;
            }
        }
        nblocks_ = plan.nblocks;
    }

    op_set set_;
    std::array<op_arg, N> args_;
    // optional so a pooled executor can re-emplace a (non-assignable)
    // lambda on rebind; engaged for the executor's whole lifetime.
    std::optional<Kernel> kernel_;
    loop_options opts_;

    arg_ctx ctx_[N] = {};
    std::size_t dat_bytes_[N] = {};
    std::array<std::vector<std::byte>, N> scratch_;
    bool reduction_[N] = {};  // arg j reduces through scratch_[j]
    std::size_t nblocks_ = 0;
    bool reduces_ = false;  // some reduction_[j] is set
    bool all_direct_ = true;
    bool all_indirect_staged_ = false;
};

}  // namespace op2::detail
