#pragma once

#include <cstdint>

namespace psim {

/// Cost/capacity model of a shared-memory node. Defaults are calibrated
/// for the paper's testbed: 2x Intel Xeon E5-2630 (2x8 cores, 2.4 GHz,
/// hyper-threading enabled => 32 hardware threads).
///
/// Two effects dominate the measured curves:
///  * SMT: beyond `cores` threads, sibling hyper-threads share a core;
///    the pair's combined throughput is `smt_throughput` (< 2), so each
///    thread slows to smt_throughput/2.
///  * Scheduling jitter: per-(worker, loop) multiplicative speed noise
///    (OS preemption, turbo, cache/NUMA interference). Barrier-style
///    execution pays the *slowest* worker at every join; fine-grained
///    task scheduling pays roughly the *mean*. This asymmetry is the
///    mechanistic source of the dataflow gains in Figs. 15-17.
struct machine_model {
    int cores = 16;
    int smt = 2;
    double smt_throughput = 1.35;  ///< combined throughput of 2 HT siblings

    // Parallel-region (fork/join) costs, microseconds.
    double fork_base_us = 4.0;          ///< enter #pragma omp parallel
    double fork_per_thread_us = 0.35;   ///< per woken thread
    double barrier_base_us = 1.5;       ///< join/barrier fixed part
    double barrier_log_us = 0.9;        ///< * log2(threads)

    // Task-based (dataflow) costs, microseconds. Calibrated against the
    // epoch-based intrusive engine (bench_dataflow_chain: ~0.69 us per
    // dependent-chain loop end to end, ~2.3x below the PR 1 future-chain
    // machinery these constants used to mirror: one when_all vector +
    // continuation shared-state + shared_future per dat per loop).
    // task_spawn_us also dropped: chunk tasks ride intrusive task_nodes
    // through the Chase-Lev deques, no per-task allocation.
    double task_spawn_us = 0.35;        ///< create+schedule one chunk task
    double issue_overhead_us = 0.5;     ///< per loop instance (epoch admin)

    // Per-(worker, loop-instance) speed jitter (relative std-dev).
    double jitter_sigma = 0.055;         ///< threads <= cores
    double jitter_sigma_smt = 0.13;     ///< threads > cores (HT interference)

    /// Deterministic base speed of every worker when `threads` are active.
    [[nodiscard]] double base_speed(int threads) const noexcept;

    /// Jitter std-dev applicable at this thread count.
    [[nodiscard]] double jitter(int threads) const noexcept;

    /// Fork + join cost of one parallel region with `threads` workers.
    [[nodiscard]] double fork_cost_us(int threads) const noexcept;
    [[nodiscard]] double barrier_cost_us(int threads) const noexcept;

    [[nodiscard]] int max_threads() const noexcept { return cores * smt; }
};

}  // namespace psim
