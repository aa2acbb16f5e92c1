#pragma once

#include <cstddef>

#include <hpxlite/execution/chunkers.hpp>
#include <hpxlite/threads/thread_pool.hpp>
#include <op2/exec/backend_kind.hpp>

namespace op2 {

/// Sentinel for loop_options::partitions: resolve the partition count
/// *and* placement through the online tuner (op2/tune.hpp) — explore
/// the candidate ladder once per (loop site, shape), then exploit the
/// measured argmin. OP2HPX_AUTOTUNE=1 applies the same resolution to
/// every defaulted (partitions == 0) hpx_dataflow loop.
inline constexpr std::size_t auto_tune = static_cast<std::size_t>(-1);

/// Where the hpx_dataflow backend places a partition's sub-nodes.
enum class placement_kind {
    /// Pin partition p's (partition, colour) sub-nodes to worker
    /// p % pool_size via the pool's affinity inboxes, so a partition's
    /// working set keeps hitting the same core's cache across the loops
    /// of a chain. Stealing remains the fallback: a busy worker's pinned
    /// work migrates rather than stalling, so skewed partitions cost
    /// locality, never progress.
    affinity,
    /// No hint: sub-nodes land on the issuing thread's queue and drift
    /// to whichever worker pops or steals them first (the pre-placement
    /// behaviour, kept as the bench baseline and differential oracle).
    any,
};

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

    /// Execution-granularity of the hpx_dataflow backend: the iteration
    /// set is split into this many contiguous partitions and the loop is
    /// issued as one graph sub-node per (partition, colour) plus a join,
    /// so independent partitions of *dependent* loops overlap in the
    /// epoch graph. 0 means "one per pool worker"; 1 is one partition,
    /// whose colours run one sub-node at a time. Plans are built and
    /// cached per partition. op2::auto_tune delegates the count (and
    /// placement) to the online tuner. The seq and staged backends
    /// ignore this field: they are synchronous, so there is no graph to
    /// scope.
    std::size_t partitions = 0;

    /// Sub-node placement policy of the hpx_dataflow backend (ignored by
    /// the synchronous backends).
    placement_kind placement = placement_kind::affinity;

    /// Bounded retry budget for checkpoint-recovering drivers (the
    /// fault-tolerance layer): how many times an epoch that failed —
    /// an injected fault, a throwing kernel, a quarantined read — may
    /// be rolled back to the last exec::checkpoint and re-issued
    /// before the failure is allowed to propagate. The loop layers
    /// themselves never retry (a loop is not idempotent mid-flight);
    /// this knob rides here so drivers (airfoil's --retries) share one
    /// configuration surface.
    std::size_t retries = 0;

    /// Pool override; nullptr uses the global hpxlite pool.
    hpxlite::threads::thread_pool* pool = nullptr;
};

}  // namespace op2
