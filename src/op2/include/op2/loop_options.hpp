#pragma once

#include <cstddef>

#include <hpxlite/execution/chunkers.hpp>
#include <op2/exec/backend_kind.hpp>

namespace op2 {

/// Per-loop execution knobs shared by the parallel backends.
struct loop_options {
    /// Backend the exec layer dispatches this loop to (op2/exec/backend.hpp).
    /// The legacy op_par_loop_seq / _fork_join / _hpx entry points pin
    /// this field to seq / staged / hpx_dataflow respectively.
    exec::backend_kind backend = exec::backend_kind::staged;

    /// Block (mini-partition) size used by the plan. OP2 calls this the
    /// partition size; the paper's Fig. 4 `nelem` is at most this.
    std::size_t part_size = 128;

    /// Chunk-size policy applied when distributing *blocks* over worker
    /// threads (static / dynamic / auto / persistent_auto — Section IV-B
    /// of the paper).
    hpxlite::execution::chunker chunk = hpxlite::execution::static_chunk_size{0};

    /// Enable the prefetching iterator behaviour of Section V for the
    /// loop's directly-accessed dats: while executing element i, issue a
    /// software prefetch for element i + distance of every direct dat.
    bool prefetch = false;

    /// Prefetch lookahead in cache lines (the paper's
    /// prefetch_distance_factor; ~15 is the Airfoil sweet spot).
    std::size_t prefetch_distance_factor = 15;
};

}  // namespace op2
