#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <thread>

#if defined(__linux__) && !defined(__ANDROID__)
#include <pthread.h>
#include <sched.h>
#endif

#include <hpxlite/runtime.hpp>
#include <hpxlite/threads/thread_pool.hpp>

using hpxlite::threads::thread_pool;

TEST(ThreadPool, ExecutesSubmittedTask) {
    thread_pool pool(2);
    std::atomic<int> x{0};
    pool.submit([&] { x.store(7); });
    pool.wait_idle();
    EXPECT_EQ(x.load(), 7);
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
    thread_pool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    std::atomic<int> x{0};
    pool.submit([&] { ++x; });
    pool.wait_idle();
    EXPECT_EQ(x.load(), 1);
}

TEST(ThreadPool, ManyTasksAllExecute) {
    thread_pool pool(4);
    std::atomic<int> count{0};
    constexpr int kTasks = 5000;
    for (int i = 0; i < kTasks; ++i) {
        pool.submit([&] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    EXPECT_EQ(count.load(), kTasks);
}

TEST(ThreadPool, NestedSubmissionFromWorker) {
    thread_pool pool(2);
    std::atomic<int> count{0};
    pool.submit([&] {
        for (int i = 0; i < 100; ++i) {
            pool.submit([&] { ++count; });
        }
    });
    pool.wait_idle();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, DeeplyNestedSubmission) {
    thread_pool pool(1);  // single worker: recursion must not deadlock
    std::atomic<int> count{0};
    std::function<void(int)> spawn = [&](int depth) {
        ++count;
        if (depth > 0) {
            pool.submit([&spawn, depth] { spawn(depth - 1); });
        }
    };
    pool.submit([&] { spawn(50); });
    pool.wait_idle();
    EXPECT_EQ(count.load(), 51);
}

TEST(ThreadPool, RunOneFromExternalThread) {
    thread_pool pool(1);
    // Park the worker, and only proceed once it is confirmed inside the
    // hold task, so the external thread cannot accidentally pick it up.
    std::atomic<bool> worker_started{false};
    std::atomic<bool> hold{true};
    pool.submit([&] {
        worker_started.store(true);
        while (hold.load()) {
            std::this_thread::yield();
        }
    });
    while (!worker_started.load()) {
        std::this_thread::yield();
    }
    std::atomic<int> x{0};
    pool.submit([&] { x = 1; });
    // External help: execute the pending task on this thread.
    while (x.load() == 0) {
        pool.run_one();
    }
    EXPECT_EQ(x.load(), 1);
    hold.store(false);
    pool.wait_idle();
}

TEST(ThreadPool, RunOneReturnsFalseWhenEmpty) {
    thread_pool pool(1);
    pool.wait_idle();
    EXPECT_FALSE(pool.run_one());
}

TEST(ThreadPool, OnWorkerThreadDetection) {
    thread_pool pool(2);
    std::atomic<int> state{-1};  // 1 = on worker, 0 = not
    EXPECT_FALSE(pool.on_worker_thread());
    pool.submit([&] { state.store(pool.on_worker_thread() ? 1 : 0); });
    // Spin-wait WITHOUT helping: the task must run on a pool worker.
    while (state.load() == -1) {
        std::this_thread::yield();
    }
    EXPECT_EQ(state.load(), 1);
    pool.wait_idle();
}

TEST(ThreadPool, WorkerIndexInRange) {
    thread_pool pool(3);
    EXPECT_EQ(pool.worker_index(), pool.size());  // external thread
    std::set<std::size_t> seen;
    std::mutex m;
    std::atomic<int> done{0};
    for (int i = 0; i < 64; ++i) {
        pool.submit([&] {
            {
                std::lock_guard<std::mutex> lk(m);
                seen.insert(pool.worker_index());
            }
            ++done;
        });
    }
    // Spin-wait without helping so every task runs on a worker.
    while (done.load() != 64) {
        std::this_thread::yield();
    }
    ASSERT_FALSE(seen.empty());
    for (auto idx : seen) {
        EXPECT_LT(idx, pool.size());
    }
}

TEST(ThreadPool, TasksExecutedCounter) {
    thread_pool pool(2);
    auto const before = pool.tasks_executed();
    for (int i = 0; i < 10; ++i) {
        pool.submit([] {});
    }
    pool.wait_idle();
    EXPECT_GE(pool.tasks_executed(), before + 10);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
    std::atomic<int> count{0};
    {
        thread_pool pool(2);
        for (int i = 0; i < 500; ++i) {
            pool.submit([&] { ++count; });
        }
        // no wait_idle: destructor must drain
    }
    EXPECT_EQ(count.load(), 500);
}

// --- affinity-hinted submission (submit_to) -----------------------------

/// Occupy every worker with a spinning task and release them later:
/// while the blockers hold the pool, nothing can steal, so affinity
/// submissions stay in their target inboxes and each worker's first
/// post-release pop is its own pinned task.
struct pool_blockers {
    explicit pool_blockers(thread_pool& pool) {
        for (std::size_t i = 0; i < pool.size(); ++i) {
            pool.submit([this] {
                running.fetch_add(1);
                while (!release.load(std::memory_order_acquire)) {
                    std::this_thread::yield();
                }
            });
        }
        while (running.load() < pool.size()) {
            std::this_thread::yield();
        }
    }
    void release_all() { release.store(true, std::memory_order_release); }

    std::atomic<std::size_t> running{0};
    std::atomic<bool> release{false};
};

TEST(ThreadPool, SubmitToRunsOnTargetWorker) {
    thread_pool pool(4);
    pool_blockers hold(pool);

    // One pinned task per worker, submitted while everyone is held: each
    // records the worker it actually ran on, and spins until all four
    // have been claimed so no early finisher can steal a slow worker's
    // pinned task before that worker popped its own inbox.
    std::array<std::atomic<std::size_t>, 4> ran_on;
    for (auto& r : ran_on) {
        r.store(SIZE_MAX);
    }
    std::atomic<std::size_t> claimed{0};
    for (std::size_t w = 0; w < 4; ++w) {
        pool.submit_to(w, [&, w] {
            ran_on[w].store(pool.worker_index());
            claimed.fetch_add(1);
            while (claimed.load(std::memory_order_acquire) < 4) {
                std::this_thread::yield();
            }
        });
    }
    hold.release_all();
    // Do not help (wait_idle steals!) until every pinned task is claimed
    // by a worker; each worker's first post-release pop is its own
    // inbox, so the claims are exactly the pinned assignments.
    while (claimed.load() < 4) {
        std::this_thread::yield();
    }
    pool.wait_idle();
    for (std::size_t w = 0; w < 4; ++w) {
        EXPECT_EQ(ran_on[w].load(), w) << "pinned task drifted off worker "
                                       << w;
    }
}

TEST(ThreadPool, SubmitToIndexWrapsModuloPoolSize) {
    thread_pool pool(2);
    std::atomic<int> count{0};
    for (std::size_t w = 0; w < 10; ++w) {
        pool.submit_to(w, [&] { ++count; });
    }
    pool.wait_idle();
    EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, PinnedWorkIsStolenFromABusyWorker) {
    thread_pool pool(2);
    // Hold worker-bound capacity with one long spinner, pin work to
    // whichever worker it landed on, and verify the other worker steals
    // and finishes it — the hint must cost locality, never progress.
    std::atomic<std::size_t> busy_worker{SIZE_MAX};
    std::atomic<bool> release{false};
    pool.submit([&] {
        busy_worker.store(pool.worker_index());
        while (!release.load(std::memory_order_acquire)) {
            std::this_thread::yield();
        }
    });
    while (busy_worker.load() == SIZE_MAX) {
        std::this_thread::yield();
    }
    std::atomic<std::size_t> ran_on{SIZE_MAX};
    pool.submit_to(busy_worker.load(), [&] {
        ran_on.store(pool.worker_index());
    });
    // The pinned task completes while its target is still spinning.
    while (ran_on.load() == SIZE_MAX) {
        std::this_thread::yield();
    }
    EXPECT_NE(ran_on.load(), busy_worker.load());
    release.store(true, std::memory_order_release);
    pool.wait_idle();
}

TEST(ThreadPool, SubmitToFromWorkerTargetingSelfAndOthers) {
    thread_pool pool(3);
    std::atomic<int> count{0};
    pool.submit([&] {
        std::size_t const self = pool.worker_index();
        for (std::size_t w = 0; w < 3; ++w) {
            pool.submit_to(w, [&] { ++count; });
        }
        // Self-targeted submission goes through the lock-free own-deque
        // path; the others through inboxes. All must run.
        pool.submit_to(self, [&] { ++count; });
    });
    pool.wait_idle();
    EXPECT_EQ(count.load(), 4);
}

TEST(ThreadPool, SubmitToWakesTheHintedWorkerUnderLightLoad) {
    // Targeted inbox wakeups: with every worker parked, a hinted
    // submission must rouse the *owner's* parking slot — nobody else is
    // woken, so the owner (whose first pop is its own inbox) claims the
    // task. Before per-worker slots, the shared condvar woke an
    // arbitrary sleeper that stole the task out of the owner's inbox.
    thread_pool pool(4);
    pool.wait_idle();
    std::size_t on_owner = 0;
    constexpr std::size_t kRounds = 40;
    for (std::size_t round = 0; round < kRounds; ++round) {
        std::size_t const w = round % 4;
        // Light load: wait for the whole pool to park first.
        auto const deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (pool.sleeping_workers() < 4 &&
               std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
        }
        ASSERT_EQ(pool.sleeping_workers(), 4u) << "pool never parked";
        std::atomic<std::size_t> ran_on{SIZE_MAX};
        pool.submit_to(w, [&] { ran_on.store(pool.worker_index()); });
        while (ran_on.load() == SIZE_MAX) {
            std::this_thread::yield();
        }
        on_owner += ran_on.load() == w ? 1 : 0;
    }
    // All rounds should land on the owner; tolerate a stray spurious
    // condvar wakeup racing the claim, but nothing like the ~1-in-4 the
    // untargeted wake gave.
    EXPECT_GE(on_owner, kRounds - 2);
}

#if defined(__linux__) && !defined(__ANDROID__)
TEST(ThreadPool, WorkersKeepTheCreatingThreadsCpuAffinity) {
    // Workers are never pinned: each inherits the affinity mask of the
    // thread that built the pool.
    cpu_set_t creator;
    CPU_ZERO(&creator);
    ASSERT_EQ(pthread_getaffinity_np(pthread_self(), sizeof(creator),
                                     &creator),
              0);
    thread_pool pool(2);
    // Two tasks that rendezvous must run on two distinct workers, so
    // between them they read both workers' masks.
    struct observation {
        std::size_t worker = SIZE_MAX;
        cpu_set_t mask{};
        bool read = false;
    };
    std::array<observation, 2> seen;
    std::atomic<std::size_t> live{0};
    for (auto& o : seen) {
        pool.submit([&] {
            o.worker = pool.worker_index();
            CPU_ZERO(&o.mask);
            o.read = pthread_getaffinity_np(pthread_self(), sizeof(o.mask),
                                            &o.mask) == 0;
            live.fetch_add(1);
            while (live.load(std::memory_order_acquire) < 2) {
                std::this_thread::yield();
            }
        });
    }
    // Spin here (not wait_idle, which would *help* and let this thread
    // claim a rendezvous task meant to run on a worker).
    while (live.load() < 2) {
        std::this_thread::yield();
    }
    pool.wait_idle();
    EXPECT_NE(seen[0].worker, seen[1].worker);
    for (auto const& o : seen) {
        ASSERT_LT(o.worker, 2u);
        ASSERT_TRUE(o.read) << "worker " << o.worker;
        EXPECT_TRUE(CPU_EQUAL(&o.mask, &creator))
            << "worker " << o.worker << " runs under a narrowed cpu mask";
    }
}
#endif

TEST(Runtime, InitAndGetPool) {
    hpxlite::init(hpxlite::runtime_config{3});
    EXPECT_EQ(hpxlite::get_num_worker_threads(), 3u);
    hpxlite::finalize();
}

TEST(Runtime, ReinitWithDifferentCount) {
    hpxlite::init(hpxlite::runtime_config{2});
    EXPECT_EQ(hpxlite::get_num_worker_threads(), 2u);
    hpxlite::init(hpxlite::runtime_config{4});
    EXPECT_EQ(hpxlite::get_num_worker_threads(), 4u);
    hpxlite::finalize();
}

TEST(Runtime, LazyDefaultInit) {
    hpxlite::finalize();
    EXPECT_GE(hpxlite::get_num_worker_threads(), 1u);
    hpxlite::finalize();
}

TEST(Runtime, RuntimeGuardScopes) {
    {
        hpxlite::runtime_guard guard(2);
        EXPECT_EQ(hpxlite::get_num_worker_threads(), 2u);
    }
    // finalized on scope exit; next access re-initialises lazily
    EXPECT_GE(hpxlite::get_num_worker_threads(), 1u);
    hpxlite::finalize();
}

namespace {

/// Saves HPXLITE_NUM_THREADS on construction and restores it (or its
/// absence) on destruction, so a run under a fixed worker count keeps
/// it for the tests that follow.
class thread_count_env_guard {
public:
    thread_count_env_guard() {
        if (char const* v = std::getenv("HPXLITE_NUM_THREADS")) {
            saved_ = v;
        }
        hpxlite::finalize();
    }
    thread_count_env_guard(thread_count_env_guard const&) = delete;
    thread_count_env_guard& operator=(thread_count_env_guard const&) =
        delete;
    ~thread_count_env_guard() {
        hpxlite::finalize();
        if (saved_) {
            ::setenv("HPXLITE_NUM_THREADS", saved_->c_str(), 1);
        } else {
            ::unsetenv("HPXLITE_NUM_THREADS");
        }
    }

private:
    std::optional<std::string> saved_;
};

/// Worker count of the default pool with HPXLITE_NUM_THREADS=`value`.
std::size_t workers_under(std::string const& value) {
    ::setenv("HPXLITE_NUM_THREADS", value.c_str(), 1);
    EXPECT_NO_THROW(hpxlite::init()) << '"' << value << '"';
    std::size_t const n = hpxlite::get_num_worker_threads();
    hpxlite::finalize();
    return n;
}

std::size_t hardware_workers() {
    std::size_t const hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1 : hc;
}

}  // namespace

TEST(Runtime, MalformedThreadCountFallsBackToHardwareConcurrency) {
    thread_count_env_guard guard;
    // None of these may be read as a count: "-1" must not wrap to a huge
    // pool, nor "2abc" be taken as 2. stoul/strtoul would read each of
    // the last four as `n`, chosen to differ from the fallback so a
    // lenient read cannot pass.
    std::string const n = hardware_workers() == 1 ? "2" : "1";
    for (std::string const& bad :
         {std::string("-1"), std::string("2abc"), std::string("0"),
          std::string("00"), std::string(""), "+" + n, " " + n, n + " ",
          n + ".0"}) {
        EXPECT_EQ(workers_under(bad), hardware_workers())
            << '"' << bad << '"';
    }
}

TEST(Runtime, WholePositiveThreadCountIsHonoured) {
    thread_count_env_guard guard;
    EXPECT_EQ(workers_under("1"), 1u);
    EXPECT_EQ(workers_under("2"), 2u);
}

TEST(Runtime, ExplicitThreadCountOverridesTheEnvironment) {
    thread_count_env_guard guard;
    ::setenv("HPXLITE_NUM_THREADS", "1", 1);
    hpxlite::init(hpxlite::runtime_config{2});
    EXPECT_EQ(hpxlite::get_num_worker_threads(), 2u);
}
