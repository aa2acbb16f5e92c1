// Stall watchdog and epoch-graph dumps (op2/exec/watchdog.hpp):
// loop_handle::wait_for times out on a stalled graph, the watchdog
// notices a frozen executed-count with pending work and dumps the live
// graph naming the pending sub-nodes, and a healthy run never trips it.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <hpxlite/runtime.hpp>
#include <op2/op2.hpp>

using namespace op2;
using namespace std::chrono_literals;

namespace {

class WatchdogTest : public ::testing::Test {
protected:
    // One worker: a kernel that blocks occupies the whole pool, so
    // everything behind it is genuinely starved.
    void SetUp() override { hpxlite::init(hpxlite::runtime_config{1}); }
    void TearDown() override { hpxlite::finalize(); }
};

TEST_F(WatchdogTest, DumpOfIdleGraphReportsNothingPending) {
    std::ostringstream os;
    exec::dump_graph(os);
    EXPECT_NE(os.str().find("0 pending"), std::string::npos) << os.str();
}

TEST_F(WatchdogTest, WaitForTimesOutAndWatchdogDumpsPendingSubNodes) {
    auto cells = op_decl_set(120, "cells");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");

    std::atomic<bool> entered{false};
    std::atomic<bool> release{false};

    // One worker, so both loops are one direct partition: the blocker's
    // one sub-node holds the worker, and the reader's sub-node waits on
    // it through the epoch graph.
    loop_options o;
    o.backend = exec::backend_kind::hpx_dataflow;
    auto hA = exec::run_loop(o, "blocker", cells,
                             [&](double* x) {
                                 entered.store(true);
                                 while (!release.load()) {
                                     std::this_thread::yield();
                                 }
                                 *x += 1.0;
                             },
                             op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW));

    auto hB = exec::run_loop(o, "starved_reader", cells,
                             [&](double* x) { *x += 1.0; },
                             op_arg_dat(d, -1, OP_ID, 1, "double", OP_INC));

    // Wait until the blocker actually occupies the worker.
    while (!entered.load()) {
        std::this_thread::yield();
    }

    std::ostringstream dump;
    {
        exec::watchdog dog(50ms, &dump);

        // The graph cannot advance: the bounded wait must give up.
        EXPECT_FALSE(hB.wait_for(150ms));

        // The watchdog notices the frozen pool within a few periods.
        auto const deadline = std::chrono::steady_clock::now() + 10s;
        while (dog.reports() == 0 &&
               std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(5ms);
        }
        EXPECT_GE(dog.reports(), 1u);

        release.store(true);
        EXPECT_TRUE(hA.wait_for(10s));
        EXPECT_TRUE(hB.wait_for(10s));
        hA.get();
        hB.get();
    }

    std::string const out = dump.str();
    EXPECT_NE(out.find("no progress"), std::string::npos) << out;
    EXPECT_NE(out.find("pending"), std::string::npos) << out;
    // The dump names the starved loop's sub-nodes with their site.
    EXPECT_NE(out.find("starved_reader"), std::string::npos) << out;
    EXPECT_NE(out.find("partition"), std::string::npos) << out;

    op_fence(d);
    for (double x : d.view<double>()) {
        ASSERT_DOUBLE_EQ(x, 2.0);
    }
}

/// A stalled one-partition indirect loop: the dump names each of its
/// live colour sub-nodes and its join, which waits on them through
/// graph edges rather than dat records.
TEST_F(WatchdogTest, OnePartitionDumpNamesColourSubNodesAndJoin) {
    constexpr std::size_t kCells = 120;
    constexpr std::size_t kEdges = 360;
    auto cells = op_decl_set(kCells, "cells");
    auto edges = op_decl_set(kEdges, "edges");
    std::mt19937 rng(5);
    std::uniform_int_distribution<int> cd(0, kCells - 1);
    std::vector<int> tab(2 * kEdges);
    for (auto& v : tab) {
        v = cd(rng);
    }
    auto em = op_decl_map(edges, cells, 2, tab, "em");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");

    loop_options o;
    o.backend = exec::backend_kind::hpx_dataflow;
    o.part_size = 16;
    std::array<op_arg, 2> const args{
        op_arg_dat(d, 0, em, 1, "double", OP_INC),
        op_arg_dat(d, 1, em, 1, "double", OP_INC)};
    op_plan const& plan = plan_get(edges, args, o.part_size);
    std::vector<std::size_t> live;
    for (std::size_t c = 0; c < plan.ncolors; ++c) {
        if (!plan.blocks_of_color(c).empty()) {
            live.push_back(c);
        }
    }
    ASSERT_GE(live.size(), 2u);

    std::atomic<bool> entered{false};
    std::atomic<bool> release{false};
    auto hA = exec::run_loop(o, "blocker", cells,
                             [&](double* x) {
                                 entered.store(true);
                                 while (!release.load()) {
                                     std::this_thread::yield();
                                 }
                                 *x += 1.0;
                             },
                             op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW));
    auto hB = exec::run_loop(o, "starved", edges,
                             [](double* a, double* b) {
                                 *a += 1.0;
                                 *b += 1.0;
                             },
                             args[0], args[1]);
    while (!entered.load()) {
        std::this_thread::yield();
    }
    std::ostringstream dump;
    exec::dump_graph(dump);
    release.store(true);
    hA.get();
    hB.get();

    std::string const out = dump.str();
    for (std::size_t c : live) {
        std::string const site = "loop 'starved' partition 0 colour " +
                                 std::to_string(c) + " (worker hint 0)";
        EXPECT_NE(out.find(site), std::string::npos) << site << "\n" << out;
    }
    EXPECT_NE(out.find("loop 'starved' join\n"), std::string::npos) << out;
    EXPECT_NE(out.find("loop 'blocker' join\n"), std::string::npos) << out;
    op_fence(d);
}

TEST_F(WatchdogTest, HealthyRunNeverTrips) {
    hpxlite::init(hpxlite::runtime_config{2});
    auto cells = op_decl_set(512, "cells");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");
    loop_options o;
    o.backend = exec::backend_kind::hpx_dataflow;
    o.part_size = 32;

    std::ostringstream dump;
    {
        exec::watchdog dog(10s, &dump);
        for (int k = 0; k < 8; ++k) {
            (void)exec::run_loop(o, "inc", cells,
                                 [](double* x) { *x += 1.0; },
                                 op_arg_dat(d, -1, OP_ID, 1, "double",
                                            OP_RW));
        }
        op_fence(d);
        EXPECT_EQ(dog.reports(), 0u);
    }
    EXPECT_EQ(dump.str(), "");
    for (double x : d.view<double>()) {
        ASSERT_DOUBLE_EQ(x, 8.0);
    }
}

TEST_F(WatchdogTest, ReadyHandleWaitForReturnsImmediately) {
    auto cells = op_decl_set(64, "cells");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");
    loop_options o;
    o.backend = exec::backend_kind::seq;
    auto h = exec::run_loop(o, "sync", cells,
                            [](double* x) { *x += 1.0; },
                            op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW));
    EXPECT_TRUE(h.wait_for(0ms));
}

}  // namespace
