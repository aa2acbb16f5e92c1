#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <hpxlite/threads/task_node.hpp>
#include <hpxlite/threads/ws_deque.hpp>
#include <hpxlite/util/spinlock.hpp>
#include <hpxlite/util/unique_function.hpp>

namespace hpxlite::threads {

/// What a task-fault hook asks the pool to do with the task it is about
/// to run. `drop` discards the node without executing it — the same
/// path pool teardown takes for never-run tasks — so upper layers can
/// test their abandoned-work error handling deterministically.
enum class task_fault { none, drop };

/// Process-wide scheduler fault hook, consulted by run_one() right
/// before each task executes. The hook may also sleep (delay injection)
/// before returning. Installed by fault-injection layers; nullptr (the
/// default) keeps the dispatch path at one relaxed atomic load. The
/// hook must be safe to call concurrently from every worker.
using task_fault_hook = task_fault (*)();
void set_task_fault_hook(task_fault_hook h) noexcept;
[[nodiscard]] task_fault_hook get_task_fault_hook() noexcept;

/// A fixed-size worker pool with per-worker lock-free deques and work
/// stealing.
///
/// Design notes (see ARCHITECTURE.md):
///  * Each worker owns a Chase–Lev deque: it pushes/pops LIFO at the
///    bottom without locks (cache-friendly for nested spawns) and thieves
///    steal FIFO from the top with a single CAS (good for load balance).
///    External threads submit through a small spinlocked injection queue.
///  * `submit_to(worker, n)` is the affinity-hinted path: the task lands
///    in the target worker's inbox (or directly on its deque when the
///    caller *is* that worker), and the worker drains its inbox before
///    stealing — so partition-pinned work stays on the worker that owns
///    the partition's cache lines. Inboxes are still visible to thieves
///    as a last resort, so a hint never strands work on a busy worker
///    and load balance survives skewed pinning.
///  * `run_one()` lets *any* thread — worker or external — execute one
///    pending task. future::wait() uses it to "help" instead of blocking,
///    which is what makes nested waits deadlock-free even with one OS
///    thread in the pool.
///  * Idle workers park on a *per-worker* condition variable behind a
///    sleeper count: `submit` only touches a mutex/condvar when a worker
///    is actually asleep, so the steady-state submit path is lock-free,
///    and parked workers use a proper predicate wait (no periodic
///    polling). The per-worker slots make wakeups targeted: `submit_to`
///    wakes the *hinted* worker's slot, so under light load a pinned
///    task is claimed by its owner instead of whichever arbitrary
///    sleeper the old shared condvar happened to rouse (which would
///    then steal the task out of the owner's inbox while the owner
///    slept on).
class thread_pool {
public:
    using task_type = util::unique_function;

    /// Create a pool with `num_threads` OS worker threads (>= 1).
    explicit thread_pool(std::size_t num_threads);

    thread_pool(thread_pool const&) = delete;
    thread_pool& operator=(thread_pool const&) = delete;

    /// Joins all workers. Pending tasks are drained before shutdown.
    ~thread_pool();

    /// Schedule `t` for execution. Thread-safe. Tasks submitted from a
    /// worker thread go to that worker's own deque. Allocates one
    /// fn_task_node to carry the callable through the pointer-based
    /// deques; callers on a hot path should embed a task_node instead.
    void submit(task_type t);

    /// Schedule an intrusive task node. Zero allocation: the node lives
    /// inside the submitter's own structure (stack frame, dataflow loop
    /// node, ...) and must stay alive until its action has run. The pool
    /// calls `n->execute()` exactly once (or `n->discard()` on teardown)
    /// and never touches the node afterwards.
    void submit(task_node* n);

    /// Schedule `n` with a worker-affinity hint: run on worker
    /// `worker % size()` if it gets there first. When the calling thread
    /// *is* that worker the node goes straight onto its lock-free deque;
    /// otherwise it lands in the worker's inbox, which the worker drains
    /// before it ever tries to steal. The hint is strictly best-effort —
    /// idle workers (and external helpers) steal from foreign inboxes
    /// once their own work is gone, so a bad hint costs locality, never
    /// progress.
    void submit_to(std::size_t worker, task_node* n);

    /// Affinity-hinted submit of a type-erased callable (one fn_task_node
    /// allocation, like submit(task_type)).
    void submit_to(std::size_t worker, task_type t);

    /// Execute one pending task if any is available.
    /// @return true if a task was executed.
    bool run_one();

    /// Number of worker threads.
    [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

    /// True when the calling thread is one of *this* pool's workers.
    [[nodiscard]] bool on_worker_thread() const noexcept;

    /// Index of the calling worker in [0, size()), or size() for external
    /// threads. Used by parallel algorithms for per-worker scratch space.
    [[nodiscard]] std::size_t worker_index() const noexcept;

    /// Block until no task is queued or running. Helps execute pending
    /// work; when there is nothing to help with, parks on a condition
    /// variable behind a waiter count (same protocol as the worker
    /// sleepers — no periodic polling) until the pool drains or new
    /// helpable work arrives.
    void wait_idle();

    /// Total number of tasks executed since construction (approximate,
    /// relaxed counter). Exposed for the micro benches.
    [[nodiscard]] std::uint64_t tasks_executed() const noexcept {
        return executed_.load(std::memory_order_relaxed);
    }

    /// Tasks currently queued or running (approximate, relaxed). A
    /// stall watchdog samples this together with tasks_executed(): a
    /// nonzero pending count with a frozen executed count is a graph
    /// making no progress.
    [[nodiscard]] std::size_t tasks_pending() const noexcept {
        return pending_.load(std::memory_order_relaxed);
    }

    /// Workers currently parked on their sleep slots (approximate).
    [[nodiscard]] std::size_t sleeping_workers() const noexcept {
        return sleepers_.load(std::memory_order_relaxed);
    }

private:
    struct injection_queue {
        util::spinlock mtx;
        std::deque<task_node*> tasks;
        /// Racy size mirror (updated under mtx, read without): lets the
        /// pop/steal sweeps skip the spinlock when the queue is empty —
        /// the common case for every foreign inbox a thief probes. Same
        /// "approximate emptiness for spin heuristics" contract as
        /// ws_deque::empty(); a stale zero is re-checked by the sweep's
        /// queued_-counter retry loop before any worker parks.
        std::atomic<std::size_t> approx_size{0};
    };

    /// One worker's private parking spot. The asleep flag participates
    /// in the same seq_cst Dekker protocol as the sleeper count: a waker
    /// either observes the flag (and notifies this slot) or the
    /// registering worker's later read of queued_ observes the enqueue.
    struct worker_slot {
        std::mutex mtx;
        std::condition_variable cv;
        std::atomic<bool> asleep{false};
    };

    void worker_loop(std::size_t index);
    task_node* try_pop(std::size_t index);
    task_node* try_pop_inbox(std::size_t index);
    task_node* try_steal(std::size_t thief);
    task_node* try_pop_global();
    void wake_one();
    bool wake_worker(std::size_t worker);
    void notify_idle_waiters();

    std::vector<std::unique_ptr<ws_deque<task_node>>> queues_;
    /// Per-worker affinity inboxes (submit_to). Chase–Lev push is
    /// owner-only, so cross-thread affinity submissions need their own
    /// channel; a small spinlocked deque is enough — the inbox carries
    /// one node per (partition, colour) issue, not the fan-out hot path.
    std::vector<std::unique_ptr<injection_queue>> inboxes_;
    injection_queue global_queue_;

    /// Per-worker parking slots (targeted wakeups; see class comment).
    std::vector<std::unique_ptr<worker_slot>> slots_;

    std::vector<std::thread> workers_;

    std::mutex idle_mtx_;
    std::condition_variable idle_cv_;

    std::atomic<std::size_t> queued_{0};   // enqueued, not yet dequeued
    std::atomic<std::size_t> pending_{0};  // queued + running
    std::atomic<std::size_t> sleepers_{0};
    std::atomic<std::size_t> idle_waiters_{0};  // parked in wait_idle
    std::atomic<std::size_t> wake_rr_{0};       // wake_one scan rotation
    std::atomic<std::uint64_t> executed_{0};
    std::atomic<bool> stop_{false};
};

}  // namespace hpxlite::threads
