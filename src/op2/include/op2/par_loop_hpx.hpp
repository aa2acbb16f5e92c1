#pragma once

#include <utility>

#include <op2/exec/backend.hpp>
#include <op2/loop_options.hpp>

namespace op2 {

/// HPX dataflow backend (the paper's contribution, Section IV): the loop
/// is *issued*, not executed — it enters the epoch graph as one
/// intrusive sub-node per (colour, slice) of its plan (one slice per
/// worker of the global pool per colour, slice k hinted to worker k)
/// and each sub-node runs as soon as the dat *partitions* it touches are
/// ready. Independent loops — and independent parts of *dependent*
/// loops — interleave automatically; there is no global barrier, and —
/// unlike PR 1's
/// future chains — no future/shared-state allocation per dat per loop.
/// Thin wrapper over the exec layer (opts.backend = hpx_dataflow).
///
/// Reduction results (op_arg_gbl) are only valid after the returned
/// handle becomes ready.
template <typename Kernel, typename... Args>
exec::loop_handle op_par_loop_hpx(loop_options const& opts, char const* name,
                                  op_set set, Kernel kernel, Args... args) {
    loop_options o = opts;
    o.backend = exec::backend_kind::hpx_dataflow;
    return exec::run_loop(o, name, std::move(set), std::move(kernel),
                          std::move(args)...);
}

}  // namespace op2
