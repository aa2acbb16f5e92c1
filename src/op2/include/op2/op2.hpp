// Umbrella header for the op2hpx OP2 reimplementation: the unstructured-
// mesh DSL (sets / maps / dats / parallel loops) with a pluggable
// backend layer (op2/exec) — sequential, staged fork-join ("OpenMP-
// style", global barrier per loop) and HPX dataflow (asynchronous,
// epoch-chained). See ARCHITECTURE.md.
#pragma once

#include <op2/access.hpp>
#include <op2/arg.hpp>
#include <op2/context.hpp>
#include <op2/dat.hpp>
#include <op2/exec/backend.hpp>
#include <op2/exec/checkpoint.hpp>
#include <op2/exec/watchdog.hpp>
#include <op2/fault.hpp>
#include <op2/loop_options.hpp>
#include <op2/map.hpp>
#include <op2/memory.hpp>
#include <op2/par_loop.hpp>
#include <op2/par_loop_hpx.hpp>
#include <op2/plan.hpp>
#include <op2/runtime.hpp>
#include <op2/service.hpp>
#include <op2/set.hpp>
#include <op2/timing.hpp>

namespace op2 {

/// Unified entry point: dispatch on the globally configured backend
/// through the exec layer. With backend::hpx the loop is only *issued*;
/// use op_fence()/op_fence_all() or op_fetch_data() before consuming
/// results.
template <typename Kernel, typename... Args>
void op_par_loop(char const* name, op_set set, Kernel kernel, Args... args) {
    auto const& cfg = global_config();
    loop_options opts = cfg.opts;
    opts.backend = to_exec_backend(cfg.be);
    (void)exec::run_loop(opts, name, std::move(set), std::move(kernel),
                         std::move(args)...);
}

}  // namespace op2
