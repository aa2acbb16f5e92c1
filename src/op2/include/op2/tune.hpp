#pragma once

// Online auto-tuner for the hpx_dataflow backend: picks the partition
// count and placement policy of a loop from *measured* wall spans
// instead of the static defaults (partitions = pool size, affinity).
//
// Structure:
//
//  * Measurement store — per-context, per-(loop site, shape) records of
//    the loop's dataflow wall span (first sub-node start to join, the
//    same span op_timing already reports). A site is keyed by
//    (context id, loop name, set size, pool size); lookups go through a
//    thread-local pointer cache backed by a spinlocked sharded store —
//    the plan cache's discipline — and the measurements themselves
//    accumulate lock-free (atomic add from the loop's join node, the
//    point where the per-worker sub-node spans have already been merged
//    into one wall time by mark_start/wall_seconds).
//
//  * Candidate ladder — deterministic, derived from the pool size:
//    {1, pool/2, pool, 2*pool} partitions (deduped, ascending) crossed
//    with {affinity, any} placement (one partition runs its sub-nodes
//    one at a time, so partitions == 1 appears once, with affinity).
//    Identical pools give identical ladders, which is what makes
//    exploration replayable.
//
//  * Policy — bounded exploration, then exploitation. Each candidate is
//    issued exactly once, in ascending order of its psim prior
//    (machine_model::partition_prior_us — the first issue is the
//    prior's argmin, never blind), after which every issue picks the
//    argmin of the measured means; candidates that never reported (a
//    failed loop) keep their prior. The choice is a pure function of
//    the accumulated measurements, so same measurements => same
//    choice. Shape and pool size are part of the site key, so a
//    shape or pool change starts a fresh exploration rather than
//    exploiting stale numbers.
//
// Safety: every ladder value is a configuration the differential suite
// already proves bitwise-equivalent (partition count and placement
// never change results, only schedule), so a tuned run is
// memcmp-identical to any fixed configuration by construction.
//
// Enablement: loop_options::partitions = op2::auto_tune opts a single
// loop in; OP2HPX_AUTOTUNE=1 re-routes every defaulted
// (partitions == 0) hpx_dataflow loop through the tuner — how the CI
// leg runs the whole tier-1 suite tuned.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <op2/loop_options.hpp>

namespace op2::tune {

/// One candidate configuration of the ladder.
struct config {
    std::size_t partitions = 0;
    placement_kind placement = placement_kind::affinity;
};

/// The deterministic candidate ladder for a pool of `pool_size`
/// workers: {1, pool/2, pool, 2*pool} partitions (deduped, ascending)
/// x {affinity, any}, with the one-partition entry (partitions == 1)
/// appearing once — its sub-nodes run one at a time, so there is
/// nothing to spread over workers.
[[nodiscard]] std::vector<config> ladder(std::size_t pool_size);

/// Process default of the tuner: OP2HPX_AUTOTUNE=1/on/true/yes routes
/// every defaulted (partitions == 0) hpx_dataflow loop through
/// choose(). Read once, cached.
[[nodiscard]] bool autotune_default() noexcept;

/// Measurement token carried by an issued loop: identifies the site and
/// ladder index the loop's wall span should accrue to. Default
/// (inactive) tokens make report() a no-op, so untuned loops pay one
/// branch. The token *owns* a reference to the site: a loop's join node
/// is not tracked in the dat records, so a job-retirement purge() can
/// run between the fence and the join's report — the shared_ptr keeps
/// the purged site alive until the last outstanding probe drops it.
struct probe {
    std::shared_ptr<void> site;
    std::uint32_t cfg = 0;
    [[nodiscard]] bool active() const noexcept { return site != nullptr; }
};

/// What choose() resolved for this issue.
struct decision {
    config chosen;
    probe token;
    /// True while the site is still exploring its ladder.
    bool exploring = false;
    /// Distinct candidate partition counts, filled only on the site's
    /// *first* consult — the issue path prewarms these plans
    /// (plan_prewarm) so exploration never measures a cold plan build
    /// the exploited configuration would not pay.
    std::vector<std::size_t> prewarm;
};

/// Resolve the configuration for one issue of loop `name` over
/// `set_size` elements on a `pool_size`-worker pool, under the current
/// context. Thread-safe; concurrent issuers of one site serialise on
/// the site's spinlock and claim successive exploration slots.
[[nodiscard]] decision choose(char const* name, std::size_t set_size,
                              std::size_t pool_size);

/// Accrue a measured wall span to the token's (site, config) cell.
/// Lock-free (two atomic adds); called from the loop's join node.
/// Inactive tokens no-op.
void report(probe const& p, double wall_s) noexcept;

/// Snapshot of one site's accumulated state (tests, bench reporting).
struct site_stats {
    std::vector<config> configs;         ///< the site's ladder
    std::vector<std::uint64_t> issues;   ///< choose() picks per config
    std::vector<std::uint64_t> runs;     ///< report() samples per config
    std::vector<double> mean_s;          ///< measured mean (0 if no runs)
    std::vector<double> prior_s;         ///< psim prior per config
    bool exploring = false;
    std::size_t chosen = 0;  ///< index exploit would pick right now
};

/// Stats of the (current context, name, set_size, pool_size) site.
/// Creates the site if it does not exist yet (issues all zero).
[[nodiscard]] site_stats stats(char const* name, std::size_t set_size,
                               std::size_t pool_size);

/// Human-readable "parts=N placement" for bench rows and logs.
[[nodiscard]] std::string describe(config const& c);

/// Drop every site of one context (service job retirement, next to
/// plan_cache_purge — the job is fenced, so no in-flight probe can
/// still point at the dropped sites).
void purge(std::uint64_t ctx_id);

/// Drop every site (tests). Callers must have fenced all tuned loops.
void clear();

}  // namespace op2::tune
