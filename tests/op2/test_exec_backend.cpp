// The unified exec backend layer (op2/exec/backend.hpp): backend
// selection through loop_options, epoch bookkeeping of the dataflow
// engine, failure propagation along the graph, and the no-global-barrier
// interleaving property of independently issued loops.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include <hpxlite/runtime.hpp>
#include <op2/op2.hpp>

using namespace op2;

namespace {

class ExecBackendTest : public ::testing::Test {
protected:
    void SetUp() override { hpxlite::init(hpxlite::runtime_config{4}); }
    void TearDown() override { hpxlite::finalize(); }

    loop_options opts_ = [] {
        loop_options o;
        o.part_size = 64;
        return o;
    }();
};

/// Reduction scratch is cached per executor instance: repeated runs of
/// one executor over one plan must re-seed (not re-allocate) the
/// per-block partials, and every run must produce the exact reduction —
/// a stale INC partial or a missed MIN/MAX re-seed shows up immediately.
TEST_F(ExecBackendTest, RepeatedExecutorRunsReseedReductionScratch) {
    auto cells = op_decl_set(500, "cells");
    std::vector<double> vals(500);
    for (std::size_t i = 0; i < 500; ++i) {
        vals[i] = static_cast<double>(i + 1);
    }
    auto d = op_decl_dat<double>(cells, 1, "double", vals, "d");

    double sum = 0.0;
    double mx = 0.0;
    auto kern = [](double const* x, double* s, double* hi) {
        *s += *x;
        *hi = std::max(*hi, *x);
    };
    op2::detail::loop_executor<decltype(kern), 3> ex(
        cells,
        std::array<op_arg, 3>{
            op_arg_dat(d, -1, OP_ID, 1, "double", OP_READ),
            op_arg_gbl(&sum, 1, "double", OP_INC),
            op_arg_gbl(&mx, 1, "double", OP_MAX)},
        kern, opts_);
    ex.validate("reduce");
    op_plan const& plan = plan_get(cells, ex.args(), opts_.part_size);
    for (int run = 0; run < 3; ++run) {
        sum = 0.0;
        mx = -1.0;
        ex.execute(plan, [&](std::span<std::size_t const> blocks) {
            for (std::size_t b : blocks) {
                ex.run_block(plan, b);
            }
        });
        EXPECT_EQ(sum, 500.0 * 501.0 / 2.0) << "run " << run;
        EXPECT_EQ(mx, 500.0) << "run " << run;
    }
}

TEST_F(ExecBackendTest, BackendSelectedThroughLoopOptions) {
    auto cells = op_decl_set(3000, "cells");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");
    for (auto be : {exec::backend_kind::seq, exec::backend_kind::staged,
                    exec::backend_kind::hpx_dataflow}) {
        loop_options o = opts_;
        o.backend = be;
        auto h = exec::run_loop(o, "inc", cells,
                                [](double* x) { *x += 1.0; },
                                op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW));
        // Synchronous backends hand back a ready handle; the dataflow
        // backend's becomes ready once the loop ran.
        if (be == exec::backend_kind::hpx_dataflow) {
            EXPECT_TRUE(h.valid());
        } else {
            EXPECT_FALSE(h.valid());
            EXPECT_TRUE(h.is_ready());
        }
        h.wait();
        op_fence(d);
    }
    for (double x : d.view<double>()) {
        ASSERT_DOUBLE_EQ(x, 3.0);
    }
}

TEST_F(ExecBackendTest, EpochAdvancesPerWriterOnly) {
    auto cells = op_decl_set(500, "cells");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");
    auto s = op_decl_dat_zero<double>(cells, 1, "double", "s");
    ASSERT_EQ(d.internal().dep.epoch, 0u);

    loop_options o = opts_;
    o.backend = exec::backend_kind::hpx_dataflow;
    for (int k = 0; k < 7; ++k) {
        (void)exec::run_loop(o, "w", cells, [](double* x) { *x += 1.0; },
                             op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW));
    }
    // Readers of d do not advance d's epoch.
    for (int k = 0; k < 3; ++k) {
        (void)exec::run_loop(o, "r", cells,
                             [](double const* x, double* y) { *y += *x; },
                             op_arg_dat(d, -1, OP_ID, 1, "double", OP_READ),
                             op_arg_dat(s, -1, OP_ID, 1, "double", OP_RW));
    }
    // Epochs are assigned at issue time on this thread — safe to read
    // before the fence.
    EXPECT_EQ(d.internal().dep.epoch, 7u);
    EXPECT_EQ(s.internal().dep.epoch, 3u);
    op_fence_all();
    for (double x : d.view<double>()) {
        ASSERT_DOUBLE_EQ(x, 7.0);
    }
    for (double x : s.view<double>()) {
        ASSERT_DOUBLE_EQ(x, 21.0);  // 3 readers, each adding the final 7
    }
}

TEST_F(ExecBackendTest, FailurePropagatesAlongTheGraph) {
    auto cells = op_decl_set(4000, "cells");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");
    loop_options o = opts_;
    o.backend = exec::backend_kind::hpx_dataflow;

    auto bad = exec::run_loop(o, "bad", cells,
                              [](double* x) {
                                  if (*x == 0.0) {
                                      throw std::runtime_error("kernel boom");
                                  }
                                  *x += 1.0;
                              },
                              op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW));
    auto dependent =
        exec::run_loop(o, "after", cells, [](double* x) { *x += 1.0; },
                       op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW));

    EXPECT_THROW(bad.get(), std::runtime_error);
    // The dependent loop inherits the failure instead of running on
    // corrupted data, and the fence still drains cleanly.
    EXPECT_THROW(dependent.get(), std::runtime_error);
    op_fence(d);
}

TEST_F(ExecBackendTest, FailedReaderErrorReachesLaterWriter) {
    // A completed-but-failed reader must survive the record's reader
    // pruning: the next writer of the dat inherits the failure through
    // its WAR edge and skips its body, like the future chains rethrowing
    // a dependency's exception.
    auto cells = op_decl_set(256, "cells");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");
    for (auto& x : d.view<double>()) {
        x = 1.0;
    }
    loop_options o = opts_;
    o.backend = exec::backend_kind::hpx_dataflow;

    auto r = exec::run_loop(o, "bad_reader", cells,
                            [](double const* x) {
                                if (*x == 1.0) {
                                    throw std::runtime_error("reader boom");
                                }
                            },
                            op_arg_dat(d, -1, OP_ID, 1, "double", OP_READ));
    EXPECT_THROW(r.get(), std::runtime_error);

    // A healthy second reader triggers the prune of completed readers.
    auto r2 = exec::run_loop(o, "ok_reader", cells, [](double const*) {},
                             op_arg_dat(d, -1, OP_ID, 1, "double", OP_READ));
    r2.get();

    auto w = exec::run_loop(o, "writer", cells, [](double* x) { *x = 9.0; },
                            op_arg_dat(d, -1, OP_ID, 1, "double", OP_WRITE));
    EXPECT_THROW(w.get(), std::runtime_error);
    op_fence(d);
    for (double x : d.view<double>()) {
        ASSERT_DOUBLE_EQ(x, 1.0);  // the failed graph never ran the writer
    }
}

TEST_F(ExecBackendTest, SequentialBackendRunsInline) {
    auto cells = op_decl_set(100, "cells");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");
    loop_options o = opts_;
    o.backend = exec::backend_kind::seq;
    (void)exec::run_loop(o, "fill", cells, [](double* x) { *x = 2.5; },
                         op_arg_dat(d, -1, OP_ID, 1, "double", OP_WRITE));
    // No fence needed: seq returns only after executing.
    for (double x : d.view<double>()) {
        ASSERT_DOUBLE_EQ(x, 2.5);
    }
}

/// The paper's headline property (Section IV): independently issued
/// loops interleave — there is no global barrier that drains loop A
/// before loop B may start. Each kernel invocation draws a ticket from a
/// global sequence; if B were only started after A fully completed (the
/// fork-join regime), every B ticket would be larger than every A
/// ticket. Scheduling noise could mask an interleave on a bad day, so
/// the scenario retries a few times and requires one witnessed
/// interleave.
TEST_F(ExecBackendTest, IndependentLoopsInterleaveWithoutGlobalBarrier) {
    // Each loop is one sub-node per worker (both are direct, so one
    // colour) plus its join. While the workers sweep loop A's slices,
    // the main thread, which helps the pool while it waits, and any
    // worker done with its A slice start loop B's. (On a one-worker
    // pool the interleave needs the worker and the main thread running
    // at once, which a loaded host does not always grant.)
    // Partition-granular overlap of *dependent* loops has its own
    // deterministic trace test below
    // (DependentLoopsOverlapOnDisjointPartitions).
    bool interleaved = false;
    for (int attempt = 0; attempt < 5 && !interleaved; ++attempt) {
        auto big = op_decl_set(60'000, "big");
        auto small = op_decl_set(512, "small");
        auto a = op_decl_dat_zero<double>(big, 1, "double", "a");
        auto b = op_decl_dat_zero<double>(small, 1, "double", "b");

        std::atomic<std::uint64_t> seq{0};
        std::atomic<std::uint64_t> a_last{0};
        std::atomic<std::uint64_t> b_first{UINT64_MAX};
        auto atomic_max = [](std::atomic<std::uint64_t>& m, std::uint64_t v) {
            std::uint64_t cur = m.load(std::memory_order_relaxed);
            while (cur < v &&
                   !m.compare_exchange_weak(cur, v,
                                            std::memory_order_relaxed)) {
            }
        };
        auto atomic_min = [](std::atomic<std::uint64_t>& m, std::uint64_t v) {
            std::uint64_t cur = m.load(std::memory_order_relaxed);
            while (cur > v &&
                   !m.compare_exchange_weak(cur, v,
                                            std::memory_order_relaxed)) {
            }
        };

        loop_options o = opts_;
        o.backend = exec::backend_kind::hpx_dataflow;
        auto ha = exec::run_loop(
            o, "slow", big,
            [&](double* x) {
                // A little work so A spans a scheduling window.
                double acc = *x;
                for (int i = 0; i < 32; ++i) {
                    acc += static_cast<double>(i);
                }
                *x = acc;
                atomic_max(a_last, seq.fetch_add(1) + 1);
            },
            op_arg_dat(a, -1, OP_ID, 1, "double", OP_RW));
        auto hb = exec::run_loop(
            o, "quick", small,
            [&](double* x) {
                *x += 1.0;
                atomic_min(b_first, seq.fetch_add(1) + 1);
            },
            op_arg_dat(b, -1, OP_ID, 1, "double", OP_RW));
        ha.wait();
        hb.wait();
        interleaved = b_first.load() < a_last.load();
    }
    EXPECT_TRUE(interleaved)
        << "loop B never started before loop A finished — the dataflow "
           "backend appears to serialise independent loops";
}

/// The tentpole property of partition-granular execution, as a
/// deterministic scheduler trace rather than a timing race: loop B
/// *depends* on loop A (RAW through dat d), yet B's sub-node for
/// partition 0 edges only on A's sub-node for partition 0 — so it runs
/// while A is still executing partition 1. The trace forces the
/// situation: A's kernel spins on partition-1 elements until B's
/// partition-0 sub-node has provably run. Whole-loop dependency
/// tracking would deadlock here (B could never start before all of A),
/// so the spin carries a deadline and the overlap is asserted.
TEST_F(ExecBackendTest, DependentLoopsOverlapOnDisjointPartitions) {
    hpxlite::init(hpxlite::runtime_config{2});
    constexpr std::size_t kN = 1000;  // partitions: [0, 500) and [500, 1000)
    auto cells = op_decl_set(kN, "cells");
    std::vector<double> ids(kN);
    for (std::size_t i = 0; i < kN; ++i) {
        ids[i] = static_cast<double>(i);
    }
    auto idx = op_decl_dat<double>(cells, 1, "double", ids, "idx");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");
    auto e = op_decl_dat_zero<double>(cells, 1, "double", "e");

    std::atomic<bool> b_p0_ran{false};
    std::atomic<bool> gave_up{false};

    loop_options o = opts_;
    o.backend = exec::backend_kind::hpx_dataflow;
    o.part_size = 500;

    auto ha = exec::run_loop(
        o, "A", cells,
        [&](double const* i, double* x) {
            if (*i >= 500.0 && !gave_up.load(std::memory_order_relaxed)) {
                auto const deadline = std::chrono::steady_clock::now() +
                                      std::chrono::seconds(10);
                while (!b_p0_ran.load(std::memory_order_acquire)) {
                    if (std::chrono::steady_clock::now() > deadline) {
                        gave_up.store(true, std::memory_order_relaxed);
                        break;
                    }
                    std::this_thread::yield();
                }
            }
            *x = *i + 1.0;
        },
        op_arg_dat(idx, -1, OP_ID, 1, "double", OP_READ),
        op_arg_dat(d, -1, OP_ID, 1, "double", OP_WRITE));
    auto hb = exec::run_loop(
        o, "B", cells,
        [&](double const* x, double* y) {
            b_p0_ran.store(true, std::memory_order_release);
            *y = *x * 2.0;
        },
        op_arg_dat(d, -1, OP_ID, 1, "double", OP_READ),
        op_arg_dat(e, -1, OP_ID, 1, "double", OP_WRITE));
    ha.get();
    hb.get();
    EXPECT_FALSE(gave_up.load())
        << "B's partition-0 sub-node never ran while A was stuck in "
           "partition 1 — dependent loops do not overlap at partition "
           "granularity";
    op_fence_all();
    auto ev = e.view<double>();
    for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_DOUBLE_EQ(ev[i], (static_cast<double>(i) + 1.0) * 2.0);
    }
}

/// Sub-node placement, as a deterministic scheduler trace: one direct
/// loop of one 100-element block per pool worker, so its slice k is one
/// block, must execute every slice k on worker k, and leave both touched
/// dats' dependency tables at one record per worker. Stealing makes a
/// naive version of this racy (an idle worker robs a busy one's inbox),
/// so the scenario forces determinism: spinning blockers occupy every
/// worker while the loop is issued — the pinned sub-nodes sit
/// untouchable in their target inboxes — and no worker goes idle before
/// every slice is claimed: each slice spins until then. A worker drains
/// its own inbox before it steals, so the claims are exactly the pinned
/// assignments; only then does the main thread start helping.
void expect_pinned_placement() {
    auto& pool = hpxlite::get_pool();
    std::size_t const nw = pool.size();
    std::size_t const n = nw * 100;

    auto cells = op_decl_set(n, "cells");
    std::vector<double> ids(n);
    for (std::size_t i = 0; i < n; ++i) {
        ids[i] = static_cast<double>(i);
    }
    auto idx = op_decl_dat<double>(cells, 1, "double", ids, "idx");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");

    std::vector<std::atomic<long>> part_worker(nw);
    for (auto& w : part_worker) {
        w.store(-1);
    }
    std::atomic<bool> mixed{false};
    std::atomic<std::size_t> claimed{0};
    std::atomic<bool> gave_up{false};
    auto wait_all_claimed = [&] {
        auto const deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (claimed.load(std::memory_order_acquire) < nw &&
               !gave_up.load(std::memory_order_relaxed)) {
            if (std::chrono::steady_clock::now() > deadline) {
                gave_up.store(true, std::memory_order_relaxed);
                break;
            }
            std::this_thread::yield();
        }
    };

    // One blocker per worker, submitted to that worker: a sleeping
    // worker is then woken by its own submission (plain submits may
    // wake one sleeper twice and leave another asleep with a blocker
    // queued), and a blocker an idle worker steals goes back to its
    // owner's inbox instead of blocking the thief.
    std::atomic<std::size_t> blockers_running{0};
    std::atomic<std::size_t> blocker_tasks{nw};
    std::atomic<bool> release{false};
    std::function<void(std::size_t)> block = [&](std::size_t w) {
        if (pool.worker_index() == w) {
            blockers_running.fetch_add(1);
            while (!release.load(std::memory_order_acquire)) {
                std::this_thread::yield();
            }
        } else {
            blocker_tasks.fetch_add(1);
            pool.submit_to(w, [&block, w] { block(w); });
        }
        blocker_tasks.fetch_sub(1, std::memory_order_release);
    };
    for (std::size_t w = 0; w < nw; ++w) {
        pool.submit_to(w, [&block, w] { block(w); });
    }
    while (blockers_running.load() < nw) {
        std::this_thread::yield();
    }

    loop_options o;
    o.backend = exec::backend_kind::hpx_dataflow;
    o.part_size = 100;
    auto h = exec::run_loop(
        o, "pinned", cells,
        [&](double const* i, double* x) {
            auto const e = static_cast<std::size_t>(*i);
            std::size_t const p = e / 100;
            std::size_t const w = pool.worker_index();
            if (e % 100 == 0) {
                claimed.fetch_add(1);
                wait_all_claimed();
            }
            long expect = -1;
            if (!part_worker[p].compare_exchange_strong(
                    expect, static_cast<long>(w)) &&
                expect != static_cast<long>(w)) {
                mixed.store(true, std::memory_order_relaxed);
            }
            *x = *i + 1.0;
        },
        op_arg_dat(idx, -1, OP_ID, 1, "double", OP_READ),
        op_arg_dat(d, -1, OP_ID, 1, "double", OP_WRITE));

    release.store(true, std::memory_order_release);
    // Do not help before every sub-node is claimed by its own worker:
    // run_loop's handle (and op_fence) steal as a fallback, which would
    // legitimately run a pinned node on the main thread.
    while (claimed.load() < nw && !gave_up.load()) {
        std::this_thread::yield();
    }
    h.get();
    op_fence_all();
    // The blockers reference this frame: let every one finish first.
    while (blocker_tasks.load(std::memory_order_acquire) != 0) {
        std::this_thread::yield();
    }

    ASSERT_FALSE(gave_up.load())
        << "the " << nw << " pinned sub-nodes were never all claimed";
    EXPECT_FALSE(mixed.load()) << "a partition's elements ran on more than "
                                  "one worker";
    for (std::size_t p = 0; p < nw; ++p) {
        EXPECT_EQ(part_worker[p].load(), static_cast<long>(p))
            << "partition " << p << " did not run on its pinned worker";
    }
    EXPECT_EQ(idx.internal().dep.count, nw);
    EXPECT_EQ(d.internal().dep.count, nw);
    auto const dv = d.view<double>();
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(dv[i], static_cast<double>(i) + 1.0) << "element " << i;
    }
}

/// One partition per worker, pinned to it.
TEST_F(ExecBackendTest, AffinityPlacementPinsSubNodesToWorkers) {
    ASSERT_EQ(hpxlite::get_pool().size(), 4u);
    expect_pinned_placement();
}

/// The partition count is the pool size: one partition per worker,
/// partition p on worker p, on every pool size.
class ExecBackendDefaultPartitions
    : public ::testing::TestWithParam<std::size_t> {
protected:
    void SetUp() override {
        hpxlite::init(hpxlite::runtime_config{GetParam()});
    }
    void TearDown() override { hpxlite::finalize(); }
};

TEST_P(ExecBackendDefaultPartitions,
       DefaultCountIsPoolSizeWithPinnedPartitions) {
    ASSERT_EQ(hpxlite::get_pool().size(), GetParam());
    expect_pinned_placement();
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, ExecBackendDefaultPartitions,
                         ::testing::Values(1u, 2u, 3u, 4u));

/// The same-colour non-conflict exemption, as a deterministic trace:
/// a single indirect INC loop over a shifted one-to-one map (edge i ->
/// cell (i+1) % n) has no intra-loop conflicts, so global colouring
/// gives every block colour 0 — yet both partitions' footprints span
/// both target partitions (the map straddles the boundary), which used
/// to serialise the two sub-nodes through a conservative WAW record
/// edge. With the exemption they are provably concurrent: partition 0's
/// kernel blocks until partition 1's has run.
TEST_F(ExecBackendTest, SameColorExemptionOverlapsStraddlingIncPartitions) {
    hpxlite::init(hpxlite::runtime_config{2});
    constexpr std::size_t kN = 1000;
    auto cells = op_decl_set(kN, "cells");
    auto edges = op_decl_set(kN, "edges");
    std::vector<int> tab(kN);
    for (std::size_t i = 0; i < kN; ++i) {
        tab[i] = static_cast<int>((i + 1) % kN);
    }
    auto em = op_decl_map(edges, cells, 1, tab, "em");
    std::vector<double> ids(kN);
    for (std::size_t i = 0; i < kN; ++i) {
        ids[i] = static_cast<double>(i);
    }
    auto idx = op_decl_dat<double>(edges, 1, "double", ids, "idx");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");

    std::atomic<bool> partner_ran{false};
    std::atomic<bool> gave_up{false};

    loop_options o = opts_;
    o.backend = exec::backend_kind::hpx_dataflow;
    o.part_size = 500;  // one block per partition
    auto h = exec::run_loop(
        o, "straddle", edges,
        [&](double const* i, double* x) {
            if (*i < 500.0) {
                auto const deadline = std::chrono::steady_clock::now() +
                                      std::chrono::seconds(10);
                while (!partner_ran.load(std::memory_order_acquire) &&
                       !gave_up.load(std::memory_order_relaxed)) {
                    if (std::chrono::steady_clock::now() > deadline) {
                        gave_up.store(true, std::memory_order_relaxed);
                        break;
                    }
                    std::this_thread::yield();
                }
            } else {
                partner_ran.store(true, std::memory_order_release);
            }
            *x += 1.0;
        },
        op_arg_dat(idx, -1, OP_ID, 1, "double", OP_READ),
        op_arg_dat(d, 0, em, 1, "double", OP_INC));
    h.get();
    op_fence_all();
    EXPECT_FALSE(gave_up.load())
        << "partition 1's same-colour sub-node never ran while partition "
           "0 was blocked — the exemption did not break the conservative "
           "WAW edge";
    for (double x : d.view<double>()) {
        ASSERT_DOUBLE_EQ(x, 1.0);  // every cell has exactly one in-edge
    }
}

TEST_F(ExecBackendTest, PartitionedMinMaxIncReductionsMatchSeq) {
    // MIN/MAX partials seed from the user's variable and every
    // partition's combine read-modify-writes it; both sides run under
    // the group's combine lock, so fully concurrent partitions (the
    // sub-nodes of a direct loop have disjoint footprints) must still
    // produce the sequential result. Under TSan this doubles as the
    // race check for the seeding/combining protocol.
    constexpr std::size_t kN = 4096;
    auto cells = op_decl_set(kN, "cells");
    std::vector<double> vals(kN);
    for (std::size_t i = 0; i < kN; ++i) {
        vals[i] = static_cast<double>((i * 37) % 1009);
    }
    auto d = op_decl_dat<double>(cells, 1, "double", vals, "d");

    auto run = [&](exec::backend_kind be) {
        struct out {
            double sum = 0.0, mn = 1e300, mx = -1e300;
        } o;
        loop_options lo = opts_;
        lo.backend = be;
        auto h = exec::run_loop(
            lo, "minmax", cells,
            [](double const* x, double* s, double* lo_, double* hi) {
                *s += *x;
                *lo_ = std::min(*lo_, *x);
                *hi = std::max(*hi, *x);
            },
            op_arg_dat(d, -1, OP_ID, 1, "double", OP_READ),
            op_arg_gbl(&o.sum, 1, "double", OP_INC),
            op_arg_gbl(&o.mn, 1, "double", OP_MIN),
            op_arg_gbl(&o.mx, 1, "double", OP_MAX));
        h.get();
        return o;
    };
    auto ref = run(exec::backend_kind::seq);
    for (std::size_t workers : {2u, 4u, 7u}) {
        hpxlite::init(hpxlite::runtime_config{workers});
        for (int round = 0; round < 10; ++round) {
            auto got = run(exec::backend_kind::hpx_dataflow);
            ASSERT_EQ(got.sum, ref.sum) << workers << " workers";
            ASSERT_EQ(got.mn, ref.mn) << workers << " workers";
            ASSERT_EQ(got.mx, ref.mx) << workers << " workers";
        }
    }
}

TEST_F(ExecBackendTest, ChainedLoopsReducingIntoOneVariableMatchSeq) {
    // Two *dependent* partitioned loops both reducing into the same
    // user variables: their sub-nodes overlap (partition p of loop 2
    // starts while loop 1's other partitions still run), so seeds and
    // combines from both loops interleave under the global combine
    // lock. INC partials seed zero and MIN/MAX combines are monotone,
    // so any interleaving must still produce the sequential result.
    constexpr std::size_t kN = 2048;
    auto cells = op_decl_set(kN, "cells");
    std::vector<double> init(kN);
    for (std::size_t i = 0; i < kN; ++i) {
        init[i] = static_cast<double>((i * 53) % 811);
    }
    auto d = op_decl_dat<double>(cells, 1, "double", init, "d");

    struct out {
        double sum = 0.0, mn = 1e300, mx = -1e300;
    };
    auto run = [&](exec::backend_kind be) {
        auto dv = d.view<double>();
        std::copy(init.begin(), init.end(), dv.begin());
        out o;
        loop_options lo = opts_;
        lo.backend = be;
        auto kern = [](double* x, double* s, double* lo_, double* hi) {
            *x += 1.0;
            *s += *x;
            *lo_ = std::min(*lo_, *x);
            *hi = std::max(*hi, *x);
        };
        auto args = [&] {
            return std::make_tuple(
                op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW),
                op_arg_gbl(&o.sum, 1, "double", OP_INC),
                op_arg_gbl(&o.mn, 1, "double", OP_MIN),
                op_arg_gbl(&o.mx, 1, "double", OP_MAX));
        };
        auto issue = [&] {
            auto t = args();
            return exec::run_loop(lo, "chain_reduce", cells, kern,
                                  std::get<0>(t), std::get<1>(t),
                                  std::get<2>(t), std::get<3>(t));
        };
        auto h1 = issue();
        auto h2 = issue();
        h1.get();
        h2.get();
        return o;
    };
    auto ref = run(exec::backend_kind::seq);
    for (int round = 0; round < 10; ++round) {
        auto got = run(exec::backend_kind::hpx_dataflow);
        ASSERT_EQ(got.sum, ref.sum);
        ASSERT_EQ(got.mn, ref.mn);
        ASSERT_EQ(got.mx, ref.mx);
    }
}

TEST_F(ExecBackendTest, ConcurrentIssuersInOppositeArgumentOrderMatchSeq) {
    // Two threads issuing loops over the same two dats in *opposite*
    // argument order, both reaching each dat's record table as their
    // first loops race to build it. Every loop writes both dats, so
    // every pair of loops is ordered whatever the interleaving of the
    // two issue streams: this must terminate (a livelock hangs the test
    // into the ctest timeout) with the seq backend's values.
    constexpr std::size_t kN = 512;
    constexpr int kLoopsPerThread = 40;
    auto cells = op_decl_set(kN, "cells");

    auto run = [&](exec::backend_kind be) {
        auto a = op_decl_dat_zero<double>(cells, 1, "double", "a");
        auto b = op_decl_dat_zero<double>(cells, 1, "double", "b");
        auto issuer = [&](bool a_first) {
            loop_options lo = opts_;
            lo.backend = be;
            auto kern = [](double* x, double* y) {
                *x += 1.0;
                *y += 2.0;
            };
            for (int l = 0; l < kLoopsPerThread; ++l) {
                if (a_first) {
                    (void)exec::run_loop(
                        lo, "ab", cells, kern,
                        op_arg_dat(a, -1, OP_ID, 1, "double", OP_RW),
                        op_arg_dat(b, -1, OP_ID, 1, "double", OP_RW));
                } else {
                    (void)exec::run_loop(
                        lo, "ba", cells, kern,
                        op_arg_dat(b, -1, OP_ID, 1, "double", OP_RW),
                        op_arg_dat(a, -1, OP_ID, 1, "double", OP_RW));
                }
            }
        };
        if (be == exec::backend_kind::seq) {
            issuer(true);
            issuer(false);
        } else {
            std::thread t1([&] { issuer(true); });
            std::thread t2([&] { issuer(false); });
            t1.join();
            t2.join();
            op_fence_all();
        }
        auto const av = a.view<double>();
        auto const bv = b.view<double>();
        std::vector<double> out(av.begin(), av.end());
        out.insert(out.end(), bv.begin(), bv.end());
        return out;
    };
    auto const ref = run(exec::backend_kind::seq);
    auto const got = run(exec::backend_kind::hpx_dataflow);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(got[i], ref[i]) << "element " << i;
    }
}

TEST_F(ExecBackendTest, PoolResizeRebuildsRecordsAndCarriesErrors) {
    // A dat's first loop on a re-created pool of another size rebuilds
    // its record table at the new worker count. A failed node from the
    // old table must survive the rebuild: the next writer still
    // inherits its error.
    hpxlite::init(hpxlite::runtime_config{1});
    auto cells = op_decl_set(256, "cells");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");
    loop_options o = opts_;
    o.backend = exec::backend_kind::hpx_dataflow;

    auto bad = exec::run_loop(o, "bad", cells,
                              [](double* x) {
                                  if (*x == 0.0) {
                                      throw std::runtime_error("boom");
                                  }
                              },
                              op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW));
    EXPECT_THROW(bad.get(), std::runtime_error);
    EXPECT_EQ(d.internal().dep.count, 1u);

    hpxlite::init(hpxlite::runtime_config{4});
    auto w = exec::run_loop(o, "writer", cells, [](double* x) { *x = 1.0; },
                            op_arg_dat(d, -1, OP_ID, 1, "double", OP_WRITE));
    EXPECT_THROW(w.get(), std::runtime_error)
        << "the rebuild dropped the failed node's error";
    EXPECT_EQ(d.internal().dep.count, 4u);
    op_fence(d);
    for (double x : d.view<double>()) {
        ASSERT_DOUBLE_EQ(x, 0.0);  // the failed graph never ran the writer
    }
}

TEST_F(ExecBackendTest, RepeatedPoolResizesKeepCarriedErrorsDeduped) {
    // Every rebuild carries the table's failed nodes into each record
    // of the new table, so after one resize a carried node sits in
    // every record. The next resize must collect it once, not once per
    // record: seeding the duplicates back would multiply the carried
    // set by the partition count on every resize.
    hpxlite::init(hpxlite::runtime_config{1});
    auto cells = op_decl_set(256, "cells");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");
    loop_options o = opts_;
    o.backend = exec::backend_kind::hpx_dataflow;

    auto bad = exec::run_loop(o, "bad", cells,
                              [](double*) {
                                  throw std::runtime_error("boom");
                              },
                              op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW));
    EXPECT_THROW(bad.get(), std::runtime_error);

    for (int round = 0; round < 4; ++round) {
        for (std::size_t workers : {2u, 3u}) {
            hpxlite::init(hpxlite::runtime_config{workers});
            auto w = exec::run_loop(
                o, "writer", cells, [](double* x) { *x = 1.0; },
                op_arg_dat(d, -1, OP_ID, 1, "double", OP_WRITE));
            EXPECT_THROW(w.get(), std::runtime_error)
                << "round " << round << ", " << workers << " workers";
            auto const [recs, count] = d.internal().dep.table();
            ASSERT_EQ(count, workers);
            for (std::size_t r = 0; r < count; ++r) {
                std::vector<exec::node_ref> nodes;
                recs[r].snapshot(nodes);
                std::vector<exec::dataflow_node const*> ptrs;
                for (auto const& n : nodes) {
                    ptrs.push_back(n.get());
                }
                std::sort(ptrs.begin(), ptrs.end());
                bool const twice = std::adjacent_find(ptrs.begin(),
                                                      ptrs.end()) !=
                                   ptrs.end();
                ASSERT_FALSE(twice)
                    << "record " << r << " holds a node twice (round "
                    << round << ", " << workers << " workers, "
                    << ptrs.size() << " entries)";
            }
        }
    }
    op_fence(d);
}

/// Holds every pool worker in a spinning task until release(): nodes
/// issued meanwhile sit, unrun, in their inboxes with their graph edges
/// intact. A blocker an idle worker steals goes back to its owner's
/// inbox instead of blocking the thief.
class worker_blockade {
public:
    explicit worker_blockade(hpxlite::threads::thread_pool& pool)
      : pool_(pool), tasks_(pool.size()) {
        block_ = [this](std::size_t w) {
            if (pool_.worker_index() == w) {
                running_.fetch_add(1);
                while (!release_.load(std::memory_order_acquire)) {
                    std::this_thread::yield();
                }
            } else {
                tasks_.fetch_add(1);
                pool_.submit_to(w, [this, w] { block_(w); });
            }
            tasks_.fetch_sub(1, std::memory_order_release);
        };
        for (std::size_t w = 0; w < pool.size(); ++w) {
            pool.submit_to(w, [this, w] { block_(w); });
        }
        while (running_.load() < pool.size()) {
            std::this_thread::yield();
        }
    }
    worker_blockade(worker_blockade const&) = delete;
    worker_blockade& operator=(worker_blockade const&) = delete;

    void release() { release_.store(true, std::memory_order_release); }

    /// Releases the workers and waits until no blocker references this.
    ~worker_blockade() {
        release();
        while (tasks_.load(std::memory_order_acquire) != 0) {
            std::this_thread::yield();
        }
    }

private:
    hpxlite::threads::thread_pool& pool_;
    std::atomic<std::size_t> tasks_;
    std::atomic<std::size_t> running_{0};
    std::atomic<bool> release_{false};
    std::function<void(std::size_t)> block_;
};

/// An airfoil-shaped mesh: nx x ny cells, every interior vertical edge
/// numbered before every interior horizontal one (the layout whose
/// global colour classes each cover only part of the set), edges ->
/// nodes and edges -> cells maps, and res_calc's dats.
struct airfoil_like {
    op_set nodes, edges, cells;
    op_map pedge, pecell;
    op_dat x, q, adt, res;

    airfoil_like(std::size_t nx, std::size_t ny) {
        nodes = op_decl_set((nx + 1) * (ny + 1), "al_nodes");
        cells = op_decl_set(nx * ny, "al_cells");
        std::vector<int> pe;
        std::vector<int> pc;
        auto node = [&](std::size_t i, std::size_t j) {
            return static_cast<int>(j * (nx + 1) + i);
        };
        auto cell = [&](std::size_t i, std::size_t j) {
            return static_cast<int>(j * nx + i);
        };
        for (std::size_t j = 0; j < ny; ++j) {
            for (std::size_t i = 1; i < nx; ++i) {
                pe.insert(pe.end(), {node(i, j), node(i, j + 1)});
                pc.insert(pc.end(), {cell(i, j), cell(i - 1, j)});
            }
        }
        for (std::size_t j = 1; j < ny; ++j) {
            for (std::size_t i = 0; i < nx; ++i) {
                pe.insert(pe.end(), {node(i, j), node(i + 1, j)});
                pc.insert(pc.end(), {cell(i, j - 1), cell(i, j)});
            }
        }
        edges = op_decl_set(pc.size() / 2, "al_edges");
        pedge = op_decl_map(edges, nodes, 2, pe, "al_pedge");
        pecell = op_decl_map(edges, cells, 2, pc, "al_pecell");
        x = op_decl_dat_zero<double>(nodes, 2, "double", "al_x");
        q = op_decl_dat_zero<double>(cells, 4, "double", "al_q");
        adt = op_decl_dat_zero<double>(cells, 1, "double", "al_adt");
        res = op_decl_dat_zero<double>(cells, 4, "double", "al_res");
    }

    /// Issue res_calc's argument shape (x and q and adt gathered, res
    /// incremented through both cells of an edge).
    exec::loop_handle res_calc(loop_options const& o) {
        return exec::run_loop(
            o, "res_calc", edges,
            [](double const* x1, double const* x2, double const* q1,
               double const* q2, double const* a1, double const* a2,
               double* r1, double* r2) {
                double const f = x1[0] - x2[1] + q1[0] + q2[1] + *a1 + *a2;
                r1[0] += f;
                r2[0] -= f;
            },
            op_arg_dat(x, 0, pedge, 2, "double", OP_READ),
            op_arg_dat(x, 1, pedge, 2, "double", OP_READ),
            op_arg_dat(q, 0, pecell, 4, "double", OP_READ),
            op_arg_dat(q, 1, pecell, 4, "double", OP_READ),
            op_arg_dat(adt, 0, pecell, 1, "double", OP_READ),
            op_arg_dat(adt, 1, pecell, 1, "double", OP_READ),
            op_arg_dat(res, 0, pecell, 4, "double", OP_INC),
            op_arg_dat(res, 1, pecell, 4, "double", OP_INC));
    }
};

/// The colour-slice issue order, as a graph walk: with every worker of a
/// three-worker pool blocked, an airfoil-shaped res_calc is issued, and
/// its sub-nodes — reached through the res records' writers — are
/// checked edge by edge. Within the loop every edge must run from a
/// lower colour to a higher one (same-colour slices never conflict, so
/// they share no edge and all run at once); an edge from a higher
/// colour to a lower one is the cross-partition wavefront that
/// serialised partition-major issue.
TEST_F(ExecBackendTest, SliceEdgesRunFromLowerToHigherColour) {
    hpxlite::init(hpxlite::runtime_config{3});
    airfoil_like m(60, 30);
    loop_options o;
    o.backend = exec::backend_kind::hpx_dataflow;
    exec::loop_handle h;
    std::vector<exec::node_ref> subs;
    {
        worker_blockade blockade(hpxlite::get_pool());
        h = m.res_calc(o);
        auto const [recs, count] = m.res.internal().dep.table();
        ASSERT_EQ(count, 3u);
        for (std::size_t r = 0; r < count; ++r) {
            std::vector<exec::node_ref> nodes;
            recs[r].snapshot(nodes);
            for (auto& n : nodes) {
                if (std::none_of(subs.begin(), subs.end(),
                                 [&](exec::node_ref const& s) {
                                     return s.get() == n.get();
                                 })) {
                    subs.push_back(n);
                }
            }
        }
        std::set<std::uint32_t> colours;
        std::size_t cross = 0;
        for (auto const& n : subs) {
            ASSERT_STREQ(n->site_loop(), "res_calc");
            ASSERT_NE(n->site_partition(), exec::dataflow_node::kJoin);
            colours.insert(n->site_color());
            std::vector<exec::node_ref> succs;
            n->successors(succs);
            for (auto const& t : succs) {
                if (t->site_partition() == exec::dataflow_node::kJoin) {
                    continue;
                }
                EXPECT_LT(n->site_color(), t->site_color())
                    << "slice " << n->site_partition() << " of colour "
                    << n->site_color() << " precedes slice "
                    << t->site_partition() << " of colour "
                    << t->site_color();
                ++cross;
            }
        }
        EXPECT_GE(colours.size(), 2u);
        EXPECT_GT(cross, 0u) << "no cross-colour edge to check";
    }
    h.get();
    op_fence_all();
}

/// The staged and dataflow backends run one shared plan: the dataflow
/// loop adds a slicing to the plan the staged loop built — no second
/// plan, no second set of stage tables.
TEST_F(ExecBackendTest, StagedAndHpxRunOneSharedPlan) {
    plan_cache_clear();
    airfoil_like m(16, 8);
    loop_options o;
    o.backend = exec::backend_kind::staged;
    m.res_calc(o).get();
    ASSERT_EQ(plan_cache_size(), 1u);
    std::array<op_arg, 2> const inc{
        op_arg_dat(m.res, 0, m.pecell, 4, "double", OP_INC),
        op_arg_dat(m.res, 1, m.pecell, 4, "double", OP_INC)};
    std::array<op_arg, 8> const args{
        op_arg_dat(m.x, 0, m.pedge, 2, "double", OP_READ),
        op_arg_dat(m.x, 1, m.pedge, 2, "double", OP_READ),
        op_arg_dat(m.q, 0, m.pecell, 4, "double", OP_READ),
        op_arg_dat(m.q, 1, m.pecell, 4, "double", OP_READ),
        op_arg_dat(m.adt, 0, m.pecell, 1, "double", OP_READ),
        op_arg_dat(m.adt, 1, m.pecell, 1, "double", OP_READ),
        inc[0], inc[1]};
    op_plan const& plan = plan_get(m.edges, args, o.part_size);
    EXPECT_EQ(plan.slicings->head.load(), nullptr);
    auto const* stage = plan.find_stage(m.pecell.id(), 0, 4 * sizeof(double));
    ASSERT_NE(stage, nullptr);

    o.backend = exec::backend_kind::hpx_dataflow;
    hpxlite::init(hpxlite::runtime_config{3});
    m.res_calc(o).get();
    EXPECT_EQ(plan_cache_size(), 1u);
    EXPECT_EQ(&plan_get(m.edges, args, o.part_size), &plan);
    plan_slicing const* sl = plan.slicings->head.load();
    ASSERT_NE(sl, nullptr);
    EXPECT_EQ(sl->nparts, 3u);
    EXPECT_EQ(sl->next, nullptr);
    EXPECT_EQ(&plan_slices(plan, m.edges, args, 3), sl);
    EXPECT_EQ(plan.find_stage(m.pecell.id(), 0, 4 * sizeof(double)), stage);
    op_fence_all();
    plan_cache_clear();
}

/// A set's plans go with its last handle: declare a mesh, run staged
/// and dataflow loops over it, drop it, and the plan cache is back at
/// its baseline. The dataflow loop's group releases its handles on a
/// worker, so the set can die there.
TEST_F(ExecBackendTest, DroppedSetTakesItsPlansAlong) {
    hpxlite::init(hpxlite::runtime_config{3});
    std::size_t const baseline = plan_cache_size();
    {
        airfoil_like m(16, 8);
        loop_options o;
        o.backend = exec::backend_kind::staged;
        m.res_calc(o).get();
        o.backend = exec::backend_kind::hpx_dataflow;
        m.res_calc(o).get();
        (void)exec::run_loop(o, "clear", m.cells, [](double* r) { r[0] = 0.0; },
                             op_arg_dat(m.res, -1, OP_ID, 4, "double",
                                        OP_WRITE))
            .get();
        op_fence_all();
        EXPECT_EQ(plan_cache_size(), baseline + 2);
    }
    EXPECT_EQ(plan_cache_size(), baseline);
}

/// A loop's join runs on the thread that finishes the loop's last
/// sub-node, before the dependents that sub-node readies. Were it
/// queued, a one-worker pool would pop the newer dependent first (the
/// owner takes its newest task) and reach the join only once the chain
/// ahead stalled: the dependent's kernel would see the finished loop's
/// handle still pending, and the loop's group would stay held.
TEST(ExecBackendOneWorker, FinishedLoopIsReadyBeforeItsDependentRuns) {
    hpxlite::init(hpxlite::runtime_config{1});
    {
        auto cells = op_decl_set(64, "cells");
        auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");
        loop_options o;
        o.backend = exec::backend_kind::hpx_dataflow;
        o.part_size = 16;

        // The first loop holds the worker until the second is wired
        // behind it, so its last sub-node readies both its join and the
        // second loop's sub-node.
        std::atomic<bool> second_issued{false};
        std::atomic<int> first_ready_seen{-1};
        auto const first = exec::run_loop(
            o, "first", cells,
            [&](double* x) {
                while (!second_issued.load()) {
                    std::this_thread::yield();
                }
                *x += 1.0;
            },
            op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW));
        auto second = exec::run_loop(
            o, "second", cells,
            [&](double* x) {
                int unseen = -1;
                (void)first_ready_seen.compare_exchange_strong(
                    unseen, first.is_ready() ? 1 : 0);
                *x += 1.0;
            },
            op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW));
        second_issued.store(true);
        // Wait without helping the pool, so only the worker runs tasks.
        while (first_ready_seen.load() < 0) {
            std::this_thread::yield();
        }
        second.get();
        EXPECT_EQ(first_ready_seen.load(), 1)
            << "the first loop's join had not run when its dependent did";
        for (double x : d.view<double>()) {
            ASSERT_DOUBLE_EQ(x, 2.0);
        }
    }
    hpxlite::finalize();
}

}  // namespace
