// End-to-end fault recovery: airfoil running with deterministic fault
// injection, checkpoint-every-N and a bounded retry budget must
// converge to *bitwise* the same final field as a fault-free run of
// the same configuration — recovery is exact, never approximately
// right. (The rms *diagnostic* keeps an ulp-level tolerance on the hpx
// backend; see expect_recovered_equal.)

#include <gtest/gtest.h>

#include <stdexcept>

#include <airfoil/app.hpp>
#include <op2/op2.hpp>

namespace {

class FaultRecoveryTest : public ::testing::Test {
protected:
    void SetUp() override { hpxlite::init(hpxlite::runtime_config{4}); }
    void TearDown() override {
        op2::fault::disarm();
        hpxlite::finalize();
    }

    static airfoil::app_config small_config(op2::backend be) {
        airfoil::app_config cfg;
        cfg.mesh.nx = 24;
        cfg.mesh.ny = 12;
        cfg.niter = 16;
        cfg.rms_stride = 4;
        cfg.be = be;
        // Every assertion here compares two *separate* runs bitwise:
        // both take the default partition count (the pool size), so
        // they accumulate INC contributions in the same order.
        return cfg;
    }

    /// The final field compared *bitwise* — dat contents are
    /// deterministic per config (colour-ordered INC) so recovery must
    /// reproduce them exactly. The rms diagnostic folds per-block gbl
    /// partials in block order, so it is deterministic per config too;
    /// `rms_tol` is 0 for seq and keeps an ulp-level relative allowance
    /// for hpx.
    static void expect_recovered_equal(airfoil::app_result const& a,
                                       airfoil::app_result const& b,
                                       double rms_tol) {
        ASSERT_EQ(a.rms_history.size(), b.rms_history.size());
        for (std::size_t i = 0; i < a.rms_history.size(); ++i) {
            ASSERT_NEAR(a.rms_history[i], b.rms_history[i],
                        rms_tol * a.rms_history[i])
                << "iter " << i;
        }
        ASSERT_EQ(a.q_final.size(), b.q_final.size());
        for (std::size_t i = 0; i < a.q_final.size(); ++i) {
            ASSERT_EQ(a.q_final[i], b.q_final[i]) << "q index " << i;
        }
    }
};

TEST_F(FaultRecoveryTest, HpxRecoveryIsBitwiseExact) {
    auto const oracle = airfoil::run(small_config(op2::backend::hpx));

    // Wildcard partition/colour: colour classes are globally assigned,
    // so a specific (partition, colour) pair may not exist on every
    // pool geometry — the wildcard site fires on any sub-node of the
    // loop's 6th kernel sweep.
    op2::fault::arm("kernel=res_calc@*.*#6");
    auto cfg = small_config(op2::backend::hpx);
    cfg.checkpoint_every = 4;
    cfg.retries = 4;
    auto const faulted = airfoil::run(cfg);
    op2::fault::disarm();

    EXPECT_GE(faulted.recoveries, 1);
    expect_recovered_equal(oracle, faulted, 1e-12);
}

TEST_F(FaultRecoveryTest, SeqRecoveryIsBitwiseExact) {
    auto const oracle = airfoil::run(small_config(op2::backend::seq));

    op2::fault::arm("kernel=save_soln@*.*#3");
    auto cfg = small_config(op2::backend::seq);
    cfg.checkpoint_every = 4;
    cfg.retries = 2;
    auto const faulted = airfoil::run(cfg);
    op2::fault::disarm();

    EXPECT_GE(faulted.recoveries, 1);
    expect_recovered_equal(oracle, faulted, 0.0);  // seq: fully deterministic
}

TEST_F(FaultRecoveryTest, CheckpointingWithoutFaultsChangesNothing) {
    auto const plain = airfoil::run(small_config(op2::backend::hpx));

    auto cfg = small_config(op2::backend::hpx);
    cfg.checkpoint_every = 5;
    cfg.retries = 2;
    auto const ckpted = airfoil::run(cfg);

    EXPECT_EQ(ckpted.recoveries, 0);
    expect_recovered_equal(plain, ckpted, 1e-12);
}

/// A fault in a direct loop mid-chain (adt_calc, between save_soln and
/// res_calc): the rollback must restore and re-run the segment to
/// bitwise the final field of an undisturbed run.
TEST_F(FaultRecoveryTest, DirectLoopRecoveryIsBitwiseExact) {
    auto const oracle = airfoil::run(small_config(op2::backend::hpx));

    op2::fault::arm("kernel=adt_calc@*.*#6");
    auto cfg = small_config(op2::backend::hpx);
    cfg.checkpoint_every = 4;
    cfg.retries = 4;
    auto const faulted = airfoil::run(cfg);
    op2::fault::disarm();

    EXPECT_GE(faulted.recoveries, 1);
    expect_recovered_equal(oracle, faulted, 1e-12);
}

/// A fault in the loop that carries the rms reduction (update): the
/// partials of the failed segment must be discarded with it, so the
/// recovered rms history matches the undisturbed run.
TEST_F(FaultRecoveryTest, ReductionLoopRecoveryIsBitwiseExact) {
    auto const oracle = airfoil::run(small_config(op2::backend::hpx));

    op2::fault::arm("kernel=update@*.*#6");
    auto cfg = small_config(op2::backend::hpx);
    cfg.checkpoint_every = 4;
    cfg.retries = 4;
    auto const faulted = airfoil::run(cfg);
    op2::fault::disarm();

    EXPECT_GE(faulted.recoveries, 1);
    expect_recovered_equal(oracle, faulted, 1e-12);
}

TEST_F(FaultRecoveryTest, ExhaustedRetryBudgetPropagates) {
    op2::fault::arm("kernel=save_soln@*.*#1");
    auto cfg = small_config(op2::backend::seq);
    cfg.checkpoint_every = 4;
    cfg.retries = 0;  // no budget: the injected fault must surface
    EXPECT_THROW(airfoil::run(cfg), std::runtime_error);
}

/// Two faults in different segments of a 4-iteration checkpoint
/// stride. Each site counts the save_soln sweeps it sees (one per
/// iteration on seq, re-issued iterations included): the first fails
/// segment 0, the second segment 2.
constexpr char const* kTwoSegmentFaults =
    "kernel=save_soln@*.*#2;kernel=save_soln@*.*#11";

TEST_F(FaultRecoveryTest, RetryBudgetCoversEveryFailedSegment) {
    auto const oracle = airfoil::run(small_config(op2::backend::seq));

    op2::fault::arm(kTwoSegmentFaults);
    auto cfg = small_config(op2::backend::seq);
    cfg.checkpoint_every = 4;
    cfg.retries = 2;
    auto const faulted = airfoil::run(cfg);
    op2::fault::disarm();

    EXPECT_EQ(faulted.recoveries, 2);
    expect_recovered_equal(oracle, faulted, 0.0);
}

TEST_F(FaultRecoveryTest, RetryBudgetIsSharedAcrossSegments) {
    // The budget counts rollbacks over the whole run, not per segment:
    // segment 0's rollback spends the only retry, so the fault in
    // segment 2 surfaces although that segment has not been retried.
    op2::fault::arm(kTwoSegmentFaults);
    auto cfg = small_config(op2::backend::seq);
    cfg.checkpoint_every = 4;
    cfg.retries = 1;
    EXPECT_THROW(airfoil::run(cfg), std::runtime_error);
}

}  // namespace
