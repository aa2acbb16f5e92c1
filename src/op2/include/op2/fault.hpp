#pragma once

// Deterministic fault injection for the execution stack.
//
// Robustness claims ("a failed sub-node quarantines exactly the
// partitions it touched", "airfoil recovers from its last checkpoint")
// are untestable without a way to *make* precisely-addressed things
// fail. This layer provides that: a seeded, site-addressed fault plan,
// armed per process through fault::arm() or the OP2HPX_FAULT_PLAN
// environment variable, with injection points at every tier:
//
//  * kernel sites — keyed on loop name x slice x colour: the
//    exec backends call fault::on_kernel(...) right before running a
//    (sub-)node's kernel sweep, and a matching site throws
//    fault::injected_fault exactly once (the engine's quarantine and
//    error-inheritance paths then take over, same as a real kernel
//    exception);
//  * allocation — the K-th memory::aligned_buffer allocation fails
//    (dat declaration, checkpoint snapshots, executor scratch);
//  * scheduler — the K-th thread-pool task is delayed by a fixed
//    amount, dropped (discarded without running — the same path pool
//    teardown uses, surfacing "dataflow loop discarded at shutdown"),
//    or, in jitter mode, probabilistically delayed with a seeded RNG
//    (the benign scheduling-fuzz mode the CI fault leg runs tier-1
//    under).
//
// Plan grammar — ';'-separated directives, all optional:
//
//    seed=N                 RNG seed for jitter (default 1)
//    kernel=NAME@P.C[#K]    throw in loop NAME, slice P of colour C
//                           (P and/or C may be '*'), on the K-th
//                           matching hit (default 1); fires once. A
//                           hit is one kernel sweep: one per loop on
//                           the synchronous backends, one per
//                           non-empty (colour, slice) sub-node on the
//                           dataflow backend
//    alloc=K                K-th aligned_buffer allocation throws
//    delay=K:US             K-th pool task sleeps US microseconds first
//    drop=K                 K-th pool task is discarded, never run
//    jitter=RATE:MAXUS      each pool task sleeps a seeded-random
//                           [0, MAXUS] us with probability RATE
//
// Example: OP2HPX_FAULT_PLAN='seed=7;kernel=res_calc@*.*#3;alloc=12'
//
// Cost when disarmed: every hook is a single relaxed atomic load
// (armed() below) — nothing on the hot path allocates, branches
// further, or takes a lock.

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>

namespace op2::fault {

/// The exception every armed site throws. Derived from runtime_error so
/// all existing failure-propagation machinery (error inheritance,
/// quarantine, retry policies) treats it like a real kernel failure.
class injected_fault : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

namespace detail {
/// Constant-initialised fast-path flag; set only by arm()/disarm().
inline std::atomic<bool> g_armed{false};

void on_kernel_slow(char const* loop, std::size_t partition,
                    std::size_t color);
void on_alloc_slow(std::size_t bytes);
}  // namespace detail

/// True when a fault plan is installed. Single relaxed load — the whole
/// cost of the layer when injection is off.
[[nodiscard]] inline bool armed() noexcept {
    return detail::g_armed.load(std::memory_order_relaxed);
}

/// Parse `spec` (grammar above) and install it as the active plan,
/// replacing any previous one. Echoes the armed plan (and seed) to
/// stderr so a failing randomized run is reproducible from its log.
/// Throws std::invalid_argument on a malformed spec (nothing armed).
/// An empty spec disarms.
void arm(std::string_view spec);

/// Remove the active plan; every hook returns to the one-load fast path.
void disarm() noexcept;

/// The spec string of the active plan ("" when disarmed).
[[nodiscard]] std::string active_plan();

/// Exec-layer hook: called right before a (sub-)node runs its kernel
/// sweep. `partition`/`color` are 0 for the synchronous backends; a
/// dataflow sub-node reports its slice index within its colour and the
/// colour. Throws injected_fault when an armed kernel site matches.
inline void on_kernel(char const* loop, std::size_t partition,
                      std::size_t color) {
    if (armed()) {
        detail::on_kernel_slow(loop, partition, color);
    }
}

/// Memory-layer hook: called by every non-empty aligned_buffer
/// allocation. Throws injected_fault when the armed alloc counter hits.
inline void on_alloc(std::size_t bytes) {
    if (armed()) {
        detail::on_alloc_slow(bytes);
    }
}

}  // namespace op2::fault
