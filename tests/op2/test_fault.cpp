// The deterministic fault-injection layer (op2/fault.hpp): plan
// parsing and arming, site-addressed kernel faults, allocation faults,
// and the scheduler-tier delay/drop hooks wired through the hpxlite
// thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include <hpxlite/runtime.hpp>
#include <op2/op2.hpp>

using namespace op2;

namespace {

class FaultTest : public ::testing::Test {
protected:
    void SetUp() override {
        // The CI fuzz leg arms OP2HPX_FAULT_PLAN at load; these tests
        // assert exact plan state, so start from a clean slate.
        fault::disarm();
        hpxlite::init(hpxlite::runtime_config{4});
    }
    void TearDown() override {
        fault::disarm();
        hpxlite::finalize();
    }

    loop_options seq_opts_ = [] {
        loop_options o;
        o.backend = exec::backend_kind::seq;
        return o;
    }();
};

TEST_F(FaultTest, MalformedPlansThrowAndNothingIsArmed) {
    for (char const* bad :
         {"bogus=1", "kernel=", "kernel=foo@", "kernel=foo@1",
          "kernel=foo@x.y", "kernel=foo@1.0#0", "alloc=0", "alloc=x",
          "delay=5", "delay=0:10", "drop=0", "jitter=10",
          "jitter=2:10", "jitter=-0.1:10", "jitter=nan:10", "jitter=inf:10",
          "jitter=abc:10", "jitter=:10", "jitter=O.02:200",
          "jitter=0.02x:10", "seed=notanumber"}) {
        EXPECT_THROW(fault::arm(bad), std::invalid_argument) << bad;
        EXPECT_FALSE(fault::armed()) << bad;
        EXPECT_EQ(fault::active_plan(), "") << bad;
    }
}

TEST_F(FaultTest, WellFormedJitterRatesArm) {
    // The rate must be one whole number token, but any decimal or
    // exponent spelling of a value in [0, 1] is one.
    for (char const* good :
         {"jitter=0:10", "jitter=1:10", "jitter=0.02:200", "jitter=.5:1",
          "jitter=1e-2:5", "seed=3;jitter=0.25:20"}) {
        EXPECT_NO_THROW(fault::arm(good)) << good;
        EXPECT_TRUE(fault::armed()) << good;
        EXPECT_EQ(fault::active_plan(), good) << good;
        fault::disarm();
    }
}

TEST_F(FaultTest, ArmInstallsPlanAndDisarmRemovesIt) {
    fault::arm("seed=7;kernel=res_calc@*.*#3");
    EXPECT_TRUE(fault::armed());
    EXPECT_EQ(fault::active_plan(), "seed=7;kernel=res_calc@*.*#3");
    fault::disarm();
    EXPECT_FALSE(fault::armed());
    EXPECT_EQ(fault::active_plan(), "");
    // An empty spec is also a disarm.
    fault::arm("seed=7;kernel=x@*.*");
    fault::arm("");
    EXPECT_FALSE(fault::armed());
}

TEST_F(FaultTest, KernelSiteFiresExactlyOnce) {
    auto cells = op_decl_set(64, "cells");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");
    auto run = [&] {
        exec::run_loop(seq_opts_, "boom", cells,
                       [](double* x) { *x += 1.0; },
                       op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW));
    };

    fault::arm("kernel=boom@*.*");
    EXPECT_THROW(run(), fault::injected_fault);
    // A synchronous kernel failure quarantines the written dat; heal it
    // so the re-run is judged on the fault site alone.
    d.clear_quarantine();
    // The site fired; it must not fire again.
    run();
    op_fence(d);
    EXPECT_DOUBLE_EQ(d.view<double>()[0], 1.0);
}

TEST_F(FaultTest, KernelSiteCountsMatchingHits) {
    auto cells = op_decl_set(64, "cells");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");
    auto run = [&] {
        exec::run_loop(seq_opts_, "kth", cells,
                       [](double* x) { *x += 1.0; },
                       op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW));
    };

    fault::arm("kernel=kth@*.*#3");
    run();
    run();
    EXPECT_THROW(run(), fault::injected_fault);
    d.clear_quarantine();
}

TEST_F(FaultTest, KernelSiteMatchesByLoopName) {
    auto cells = op_decl_set(64, "cells");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");

    fault::arm("kernel=other_loop@*.*");
    // Site names a different loop: this one must run clean.
    exec::run_loop(seq_opts_, "this_loop", cells,
                   [](double* x) { *x += 1.0; },
                   op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW));
    EXPECT_DOUBLE_EQ(d.view<double>()[0], 1.0);
}

TEST_F(FaultTest, AllocSiteFailsTheKthAllocation) {
    auto cells = op_decl_set(64, "cells");
    fault::arm("alloc=1");
    EXPECT_THROW(op_decl_dat_zero<double>(cells, 4, "double", "victim"),
                 fault::injected_fault);
    // The counter consumed its shot: the next allocation succeeds.
    auto ok = op_decl_dat_zero<double>(cells, 4, "double", "ok");
    EXPECT_EQ(ok.view<double>().size(), 64u * 4u);
}

TEST_F(FaultTest, DroppedPoolTaskNeverRuns) {
    auto& pool = hpxlite::get_pool();
    fault::arm("drop=1");
    std::atomic<bool> first{false};
    pool.submit([&] { first.store(true); });
    pool.wait_idle();
    EXPECT_FALSE(first.load());
    // Only the K-th task is dropped; the pool keeps working.
    std::atomic<bool> second{false};
    pool.submit([&] { second.store(true); });
    pool.wait_idle();
    EXPECT_TRUE(second.load());
}

TEST_F(FaultTest, DelayedPoolTaskStillRuns) {
    auto& pool = hpxlite::get_pool();
    fault::arm("delay=1:100");
    std::atomic<bool> ran{false};
    pool.submit([&] { ran.store(true); });
    pool.wait_idle();
    EXPECT_TRUE(ran.load());
}

TEST_F(FaultTest, JitterModeIsBenign) {
    // The CI fuzz mode: seeded probabilistic delays must never change
    // results, only timing.
    fault::arm("seed=11;jitter=0.5:50");
    auto cells = op_decl_set(512, "cells");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");
    loop_options o;
    o.backend = exec::backend_kind::hpx_dataflow;
    for (int k = 0; k < 5; ++k) {
        (void)exec::run_loop(o, "inc", cells,
                             [](double* x) { *x += 1.0; },
                             op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW));
    }
    op_fence(d);
    for (double x : d.view<double>()) {
        ASSERT_DOUBLE_EQ(x, 5.0);
    }
}

TEST_F(FaultTest, DisarmedHooksAreInert) {
    EXPECT_FALSE(fault::armed());
    // Direct hook calls with no plan must be no-ops.
    fault::on_kernel("anything", 3, 7);
    fault::on_alloc(1 << 20);
}

}  // namespace
