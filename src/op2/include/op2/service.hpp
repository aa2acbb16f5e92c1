#pragma once

// Multi-tenant simulation service: many independent op2 programs (jobs)
// sharing one process and one thread pool.
//
// PRs 1-8 made ONE program's loops overlap as aggressively as legality
// allows; the service layer is the next scale out — the ROADMAP's
// "heavy traffic" item. An op2::service::job encapsulates one op2
// program: its own sets/dats/maps (declared inside the job body), its
// own plan-cache namespace, dependency tables, reduction combine lock
// and fault/quarantine scope, all carried by a runtime_context
// (op2/context.hpp). A service::scheduler admits jobs in submission
// order and runs many of them concurrently on the shared pool.
//
// Lifecycle of a job:
//   submitted -> waiting (fifo queue) -> admitted (admission control)
//   -> running (body on a pool worker, context installed) -> fenced
//   (every dat the job declared drained)
//   -> completed | failed (body threw, or quarantine spans remain)
//   -> plans purged (scheduler_options::purge_plans)
//
// Isolation guarantees (see docs/service.md):
//  * plan cache: plan keys carry the context id — jobs never share or
//    evict each other's plans, and a retired job's plans are purged;
//  * dependency tracking: dep records live in the job's own dats, so
//    same-shaped meshes in two jobs share nothing;
//  * reductions: the combine lock is per-context — two jobs' reductions
//    never contend (and never mix, since the variables are job-local);
//  * faults: the quarantine gate is per-context — a poisoned span in
//    job A never makes job B's issue path scan or fail.
//
// Concurrency-correctness claim, tested (test_service_isolation.cpp):
// N jobs run concurrently produce bitwise-identical results to the same
// N jobs run sequentially, per job.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include <op2/context.hpp>

namespace hpxlite::threads {
class thread_pool;
}

namespace op2::service {

/// Everything the scheduler knows about a job before running it.
struct job_desc {
    std::string name;
    /// The op2 program: declares its sets/maps/dats, issues loops,
    /// reads back results. Runs on a pool worker with the job's
    /// runtime_context installed; loops it issues fan out across the
    /// shared pool as usual. Must not wait on *other* jobs.
    std::function<void()> program;
    /// Estimated loop count. The scheduler does not read it; it is kept
    /// only so existing callers that set it still compile.
    std::uint64_t est_loops = 0;
    /// Estimated bytes the job touches, charged against
    /// scheduler_options::max_in_flight_bytes. Zero means unknown.
    std::size_t est_bytes = 0;
};

enum class job_state { waiting, running, completed, failed };

/// Per-job timings and counters, valid once the job left running state.
struct job_metrics {
    double wait_s = 0.0;          ///< submit -> admitted
    double run_s = 0.0;           ///< admitted -> fenced
    double latency_s = 0.0;       ///< submit -> fenced (wait + run)
    std::uint64_t loops_issued = 0;  ///< op_par_loop calls under the job
};

namespace detail {
struct job_impl;
}

/// Value-semantic handle to a submitted job; copies alias one job.
class job {
public:
    job() = default;

    [[nodiscard]] bool valid() const noexcept { return impl_ != nullptr; }
    [[nodiscard]] std::string const& name() const;
    [[nodiscard]] job_state state() const;

    /// Block until the job completed or failed. Safe from the
    /// submitting (non-pool) thread; do not call from inside another
    /// job's program.
    void wait() const;

    [[nodiscard]] bool failed() const;
    /// Rethrow the job body's exception (or the quarantine diagnostic);
    /// no-op if the job succeeded.
    void rethrow() const;

    [[nodiscard]] job_metrics metrics() const;

    /// The job's runtime context (id keys its plan-cache namespace).
    [[nodiscard]] std::shared_ptr<runtime_context> const& context() const;

private:
    friend class scheduler;
    explicit job(std::shared_ptr<detail::job_impl> impl)
      : impl_(std::move(impl)) {}
    std::shared_ptr<detail::job_impl> impl_;
};

struct scheduler_options {
    /// Admission limits: at most this many jobs in flight (0 = the
    /// pool's worker count) and at most this many estimated bytes
    /// (sum of admitted jobs' est_bytes; 0 = unlimited). A job whose
    /// est_bytes alone exceed the byte limit is admitted only when
    /// nothing else is in flight — oversized jobs run alone rather
    /// than never.
    std::size_t max_in_flight_jobs = 0;
    std::size_t max_in_flight_bytes = 0;
    /// Purge the job's plan-cache namespace at retirement. Keep it on
    /// for long-lived services; off only if jobs resubmit identical
    /// meshes and want warm plans.
    bool purge_plans = true;
};

/// Aggregate service metrics (the bench row family service_* in
/// bench_table1_policies derives from these).
struct scheduler_metrics {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t loops_issued = 0;   ///< across all finished jobs
    double wall_s = 0.0;              ///< first submit -> last retirement
    double throughput_jobs_s = 0.0;   ///< finished / wall
    double mean_wait_s = 0.0;
    double mean_latency_s = 0.0;
    double p95_latency_s = 0.0;
    double p99_latency_s = 0.0;
};

/// Admits and runs jobs on the shared thread pool. Thread-safe;
/// submit from any non-pool thread. The destructor drains.
class scheduler {
public:
    explicit scheduler(scheduler_options opts = {});
    ~scheduler();

    scheduler(scheduler const&) = delete;
    scheduler& operator=(scheduler const&) = delete;

    /// Queue a job; it is admitted after every job submitted before it.
    job submit(job_desc desc);

    /// Block until every submitted job retired.
    void drain();

    [[nodiscard]] scheduler_metrics metrics() const;

private:
    struct state;
    void run_job(std::shared_ptr<detail::job_impl> const& j);
    void admit_locked();

    std::unique_ptr<state> st_;
};

}  // namespace op2::service
