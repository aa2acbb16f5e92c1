#include <hpxlite/threads/thread_pool.hpp>

#include <cassert>

namespace hpxlite::threads {

namespace {
// Which pool (if any) the current OS thread belongs to, and its index.
thread_local thread_pool const* tls_pool = nullptr;
thread_local std::size_t tls_index = 0;

// Scheduler fault hook (set_task_fault_hook). Constant-initialised so
// installers running during static initialisation are safe.
std::atomic<task_fault_hook> g_task_fault_hook{nullptr};

// Yield-spins a worker performs after a fruitless sweep before parking.
// Small: parking is cheap now that submit only signals actual sleepers.
constexpr int kIdleSpins = 16;
}  // namespace

void set_task_fault_hook(task_fault_hook h) noexcept {
    g_task_fault_hook.store(h, std::memory_order_release);
}

task_fault_hook get_task_fault_hook() noexcept {
    return g_task_fault_hook.load(std::memory_order_acquire);
}

thread_pool::thread_pool(std::size_t num_threads) {
    if (num_threads == 0) {
        num_threads = 1;
    }
    queues_.reserve(num_threads);
    inboxes_.reserve(num_threads);
    slots_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i) {
        queues_.push_back(std::make_unique<ws_deque<task_node>>());
        inboxes_.push_back(std::make_unique<injection_queue>());
        slots_.push_back(std::make_unique<worker_slot>());
    }
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i) {
        workers_.emplace_back([this, i] { worker_loop(i); });
    }
}

thread_pool::~thread_pool() {
    wait_idle();
    stop_.store(true, std::memory_order_release);
    for (auto& slot : slots_) {
        {
            // Taking the mutex orders the store against a worker that is
            // between its final predicate check and the wait.
            std::lock_guard<std::mutex> lk(slot->mtx);
        }
        slot->cv.notify_all();
    }
    for (auto& w : workers_) {
        w.join();
    }
    // Discard anything still queued (only reachable when a task was
    // submitted after wait_idle drained). Discarding a node may enqueue
    // successors — e.g. a dataflow node completing its graph with a
    // shutdown error — so pop one at a time until every queue is empty,
    // rather than iterating (and before members are torn down).
    for (;;) {
        task_node* n = try_pop_global();
        for (std::size_t i = 0; n == nullptr && i < queues_.size(); ++i) {
            n = queues_[i]->steal();
        }
        for (std::size_t i = 0; n == nullptr && i < inboxes_.size(); ++i) {
            n = try_pop_inbox(i);
        }
        if (n == nullptr) {
            break;
        }
        n->discard();
    }
}

bool thread_pool::on_worker_thread() const noexcept {
    return tls_pool == this;
}

std::size_t thread_pool::worker_index() const noexcept {
    return tls_pool == this ? tls_index : workers_.size();
}

bool thread_pool::wake_worker(std::size_t worker) {
    worker_slot& slot = *slots_[worker];
    // seq_cst pairs with the worker's seq_cst registration (asleep flag
    // set before the sleeper count): either we observe the flag (and
    // notify this slot), or the registering worker's later read of
    // queued_ observes our enqueue (and it does not sleep).
    if (!slot.asleep.load(std::memory_order_seq_cst)) {
        return false;
    }
    {
        // Empty critical section: a worker that passed its predicate
        // check but has not entered wait() yet holds the mutex, so
        // this cannot notify into the gap.
        std::lock_guard<std::mutex> lk(slot.mtx);
    }
    slot.cv.notify_one();
    return true;
}

void thread_pool::wake_one() {
    if (sleepers_.load(std::memory_order_seq_cst) > 0) {
        // Rotate the scan start so concurrent wakers tend to rouse
        // *different* sleepers instead of piling notifies on slot 0.
        std::size_t const start =
            wake_rr_.fetch_add(1, std::memory_order_relaxed);
        for (std::size_t k = 0; k < slots_.size(); ++k) {
            if (wake_worker((start + k) % slots_.size())) {
                break;
            }
        }
    }
    // A parked wait_idle helper can also pick the new task up.
    notify_idle_waiters();
}

void thread_pool::notify_idle_waiters() {
    if (idle_waiters_.load(std::memory_order_seq_cst) > 0) {
        {
            // Empty critical section, same reasoning as wake_one: a
            // waiter between its registration/recheck and wait() holds
            // the mutex.
            std::lock_guard<std::mutex> lk(idle_mtx_);
        }
        idle_cv_.notify_all();
    }
}

void thread_pool::submit(task_type t) {
    assert(t);
    submit(static_cast<task_node*>(new fn_task_node(std::move(t))));
}

void thread_pool::submit(task_node* n) {
    assert(n != nullptr && n->action != nullptr);
    pending_.fetch_add(1, std::memory_order_relaxed);
    queued_.fetch_add(1, std::memory_order_seq_cst);
    if (on_worker_thread()) {
        queues_[tls_index]->push(n);
    } else {
        std::lock_guard<util::spinlock> lk(global_queue_.mtx);
        global_queue_.tasks.push_back(n);
        global_queue_.approx_size.store(global_queue_.tasks.size(),
                                        std::memory_order_relaxed);
    }
    wake_one();
}

void thread_pool::submit_to(std::size_t worker, task_node* n) {
    assert(n != nullptr && n->action != nullptr);
    worker %= workers_.size();
    pending_.fetch_add(1, std::memory_order_relaxed);
    queued_.fetch_add(1, std::memory_order_seq_cst);
    if (on_worker_thread() && tls_index == worker) {
        // The target is the caller: the lock-free owner push keeps the
        // affinity path allocation- and lock-free for self-submissions
        // (a partition's sub-node completing and readying the next one).
        queues_[worker]->push(n);
        // The caller will pop it itself; wake an arbitrary sleeper only
        // as a load-balancing assist, like plain submit.
        wake_one();
    } else {
        {
            std::lock_guard<util::spinlock> lk(inboxes_[worker]->mtx);
            inboxes_[worker]->tasks.push_back(n);
            inboxes_[worker]->approx_size.store(
                inboxes_[worker]->tasks.size(), std::memory_order_relaxed);
        }
        // Targeted wakeup: rouse the *hinted* worker's slot first, not
        // an arbitrary sleeper (who would steal the task out of the
        // owner's inbox while the owner slept on — under light load the
        // hint now sticks). Only when the owner is awake — likely busy —
        // fall back to waking any sleeper, which may steal the pinned
        // task: that keeps the old progress/latency property that a
        // busy owner's pinned work migrates instead of stalling.
        if (wake_worker(worker)) {
            notify_idle_waiters();
        } else {
            wake_one();
        }
    }
}

void thread_pool::submit_to(std::size_t worker, task_type t) {
    assert(t);
    submit_to(worker, static_cast<task_node*>(new fn_task_node(std::move(t))));
}

task_node* thread_pool::try_pop(std::size_t index) {
    task_node* n = queues_[index]->pop();
    if (n != nullptr) {
        queued_.fetch_sub(1, std::memory_order_relaxed);
    }
    return n;
}

task_node* thread_pool::try_pop_inbox(std::size_t index) {
    injection_queue& q = *inboxes_[index];
    if (q.approx_size.load(std::memory_order_relaxed) == 0) {
        return nullptr;  // racy fast path; see injection_queue::approx_size
    }
    std::lock_guard<util::spinlock> lk(q.mtx);
    if (q.tasks.empty()) {
        return nullptr;
    }
    task_node* n = q.tasks.front();
    q.tasks.pop_front();
    q.approx_size.store(q.tasks.size(), std::memory_order_relaxed);
    queued_.fetch_sub(1, std::memory_order_relaxed);
    return n;
}

task_node* thread_pool::try_steal(std::size_t thief) {
    std::size_t const nq = queues_.size();
    // Sweep every victim's deque first, then the inboxes: stealing
    // unhinted work is free, robbing another worker's pinned partition
    // costs that partition's cache affinity — do it only when nothing
    // else is runnable.
    for (std::size_t k = 1; k <= nq; ++k) {
        std::size_t const victim = (thief + k) % nq;
        task_node* n = queues_[victim]->steal();
        if (n != nullptr) {
            queued_.fetch_sub(1, std::memory_order_relaxed);
            return n;
        }
    }
    for (std::size_t k = 1; k <= nq; ++k) {
        std::size_t const victim = (thief + k) % nq;
        task_node* n = try_pop_inbox(victim);
        if (n != nullptr) {
            return n;
        }
    }
    return nullptr;
}

task_node* thread_pool::try_pop_global() {
    if (global_queue_.approx_size.load(std::memory_order_relaxed) == 0) {
        return nullptr;  // racy fast path; see injection_queue::approx_size
    }
    std::lock_guard<util::spinlock> lk(global_queue_.mtx);
    if (global_queue_.tasks.empty()) {
        return nullptr;
    }
    task_node* n = global_queue_.tasks.front();
    global_queue_.tasks.pop_front();
    global_queue_.approx_size.store(global_queue_.tasks.size(),
                                    std::memory_order_relaxed);
    queued_.fetch_sub(1, std::memory_order_relaxed);
    return n;
}

bool thread_pool::run_one() {
    task_node* n = nullptr;
    if (on_worker_thread()) {
        n = try_pop(tls_index);
        if (n == nullptr) {
            // Pinned work next: the inbox holds the partitions this
            // worker owns, which is exactly the work whose data is (or
            // will be) in this core's cache.
            n = try_pop_inbox(tls_index);
        }
        if (n == nullptr) {
            n = try_pop_global();
        }
        if (n == nullptr) {
            n = try_steal(tls_index);
        }
    } else {
        n = try_pop_global();
        if (n == nullptr) {
            n = try_steal(0);
        }
    }
    if (n == nullptr) {
        return false;
    }
    // Fault-injection gate: one relaxed load when no hook is installed.
    // A hook may sleep (delay injection) or ask for the task to be
    // discarded — the exact code path teardown uses for never-run
    // tasks, so upper layers see their real abandoned-work errors.
    if (task_fault_hook const hook =
            g_task_fault_hook.load(std::memory_order_relaxed);
        hook != nullptr && hook() == task_fault::drop) {
        n->discard();
    } else {
        n->execute();
    }
    executed_.fetch_add(1, std::memory_order_relaxed);
    // seq_cst pairs with wait_idle's waiter registration, mirroring the
    // submit/sleeper protocol.
    if (pending_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
        notify_idle_waiters();
    }
    return true;
}

void thread_pool::worker_loop(std::size_t index) {
    tls_pool = this;
    tls_index = index;
    worker_slot& slot = *slots_[index];
    while (!stop_.load(std::memory_order_acquire)) {
        if (run_one()) {
            continue;
        }
        // Fruitless sweep: spin briefly (work may be in flight between a
        // producer's counter bump and its push), then park.
        bool retry = false;
        for (int s = 0; s < kIdleSpins; ++s) {
            if (queued_.load(std::memory_order_acquire) != 0 ||
                stop_.load(std::memory_order_acquire)) {
                retry = true;
                break;
            }
            std::this_thread::yield();
        }
        if (retry) {
            continue;
        }
        std::unique_lock<std::mutex> lk(slot.mtx);
        // The asleep flag must be visible before the sleeper count: a
        // waker that observes sleepers_ > 0 scans the flags next, and
        // must find at least the worker whose registration it saw.
        slot.asleep.store(true, std::memory_order_seq_cst);
        sleepers_.fetch_add(1, std::memory_order_seq_cst);
        if (queued_.load(std::memory_order_seq_cst) != 0 ||
            stop_.load(std::memory_order_acquire)) {
            // Work (or shutdown) arrived between the sweep and
            // registration; do not sleep.
            slot.asleep.store(false, std::memory_order_relaxed);
            sleepers_.fetch_sub(1, std::memory_order_relaxed);
            continue;
        }
        slot.cv.wait(lk, [this] {
            return stop_.load(std::memory_order_acquire) ||
                   queued_.load(std::memory_order_acquire) != 0;
        });
        slot.asleep.store(false, std::memory_order_relaxed);
        sleepers_.fetch_sub(1, std::memory_order_relaxed);
    }
    tls_pool = nullptr;
}

void thread_pool::wait_idle() {
    // Help while waiting so wait_idle() from a worker cannot deadlock.
    // When there is nothing to help with, park on idle_cv_ behind the
    // waiter count — the sleeper protocol submit() already uses — instead
    // of the old 200 us polling loop. Woken either when the pool drains
    // (run_one's last pending decrement) or when new helpable work is
    // queued (wake_one).
    while (pending_.load(std::memory_order_acquire) != 0) {
        if (run_one()) {
            continue;
        }
        std::unique_lock<std::mutex> lk(idle_mtx_);
        idle_waiters_.fetch_add(1, std::memory_order_seq_cst);
        if (pending_.load(std::memory_order_seq_cst) == 0 ||
            queued_.load(std::memory_order_seq_cst) != 0) {
            // Drained (or new work to help with) between the failed
            // run_one and registration; do not sleep.
            idle_waiters_.fetch_sub(1, std::memory_order_relaxed);
            continue;
        }
        idle_cv_.wait(lk, [this] {
            return pending_.load(std::memory_order_acquire) == 0 ||
                   queued_.load(std::memory_order_acquire) != 0;
        });
        idle_waiters_.fetch_sub(1, std::memory_order_relaxed);
    }
}

}  // namespace hpxlite::threads
