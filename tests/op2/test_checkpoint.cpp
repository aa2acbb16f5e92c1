// Epoch checkpoint/rollback (op2/exec/checkpoint.hpp): capture fences
// and snapshots dat contents, rollback restores the bytes exactly and
// resets the dependency records and any quarantine, and the
// checkpoint-retry pattern re-runs a failed epoch to the same answer.

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include <hpxlite/runtime.hpp>
#include <op2/op2.hpp>

using namespace op2;

namespace {

class CheckpointTest : public ::testing::Test {
protected:
    void SetUp() override { hpxlite::init(hpxlite::runtime_config{4}); }
    void TearDown() override {
        fault::disarm();
        hpxlite::finalize();
    }

    static loop_options hpx_opts() {
        loop_options o;
        o.backend = exec::backend_kind::hpx_dataflow;
        o.part_size = 32;
        return o;
    }
};

TEST_F(CheckpointTest, EmptyCheckpointIsInvalidAndRollbackThrows) {
    exec::checkpoint ckpt;
    EXPECT_FALSE(ckpt.valid());
    EXPECT_EQ(ckpt.size(), 0u);
    EXPECT_THROW(ckpt.rollback(), std::logic_error);
}

TEST_F(CheckpointTest, RollbackRestoresBytesExactly) {
    auto cells = op_decl_set(300, "cells");
    std::vector<double> init(300 * 2);
    for (std::size_t i = 0; i < init.size(); ++i) {
        init[i] = 0.25 * static_cast<double>(i) + 1.0;
    }
    auto d = op_decl_dat<double>(cells, 2, "double", init, "d");

    exec::checkpoint ckpt;
    ckpt.capture({d});
    EXPECT_TRUE(ckpt.valid());
    EXPECT_EQ(ckpt.size(), 1u);

    loop_options o;
    o.backend = exec::backend_kind::staged;
    exec::run_loop(o, "scramble", cells,
                   [](double* x) {
                       x[0] = -x[0];
                       x[1] *= 3.0;
                   },
                   op_arg_dat(d, -1, OP_ID, 2, "double", OP_RW));
    EXPECT_NE(d.view<double>()[0], init[0]);

    ckpt.rollback();
    auto v = d.view<double>();
    ASSERT_EQ(v.size(), init.size());
    EXPECT_EQ(std::memcmp(v.data(), init.data(),
                          init.size() * sizeof(double)),
              0);
}

TEST_F(CheckpointTest, CaptureFencesInFlightGraphWork) {
    hpxlite::init(hpxlite::runtime_config{2});
    auto cells = op_decl_set(400, "cells");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");

    // Issue a chain and capture while it may still be in flight: the
    // snapshot must be a consistent post-chain cut, not a torn copy.
    for (int k = 0; k < 6; ++k) {
        (void)exec::run_loop(hpx_opts(), "inc", cells,
                             [](double* x) { *x += 1.0; },
                             op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW));
    }
    exec::checkpoint ckpt;
    ckpt.capture({d});

    (void)exec::run_loop(hpx_opts(), "inc2", cells,
                         [](double* x) { *x += 10.0; },
                         op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW));
    op_fence(d);
    EXPECT_DOUBLE_EQ(d.view<double>()[0], 16.0);

    ckpt.rollback();
    for (double x : d.view<double>()) {
        ASSERT_DOUBLE_EQ(x, 6.0);
    }
}

TEST_F(CheckpointTest, RollbackClearsQuarantine) {
    auto cells = op_decl_set(200, "cells");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");

    exec::checkpoint ckpt;
    ckpt.capture({d});

    loop_options seq;
    seq.backend = exec::backend_kind::seq;
    EXPECT_THROW(
        exec::run_loop(seq, "fail", cells,
                       [](double*) -> void {
                           throw std::runtime_error("kaboom");
                       },
                       op_arg_dat(d, -1, OP_ID, 1, "double", OP_WRITE)),
        std::runtime_error);
    ASSERT_TRUE(d.quarantined());

    // Rollback restores the epoch wholesale: contents AND quarantine.
    ckpt.rollback();
    EXPECT_FALSE(d.quarantined());
    exec::run_loop(seq, "reader", cells, [](double* x) { *x += 1.0; },
                   op_arg_dat(d, -1, OP_ID, 1, "double", OP_INC));
    EXPECT_DOUBLE_EQ(d.view<double>()[0], 1.0);
}

TEST_F(CheckpointTest, RecaptureAdvancesTheEpoch) {
    auto cells = op_decl_set(100, "cells");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");
    loop_options o;
    o.backend = exec::backend_kind::staged;
    auto bump = [&](double v) {
        exec::run_loop(o, "bump", cells,
                       [](double* x, double const* inc) { *x += *inc; },
                       op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW),
                       op_arg_gbl(&v, 1, "double", OP_READ));
    };

    exec::checkpoint ckpt;
    ckpt.capture({d});
    bump(1.0);
    ckpt.capture({d});  // same dat list: buffers are reused
    bump(100.0);
    ckpt.rollback();    // back to the *second* capture, not the first
    EXPECT_DOUBLE_EQ(d.view<double>()[0], 1.0);
}

/// The retry pattern the airfoil driver uses: an injected fault fails
/// the epoch, rollback + re-issue converges to the fault-free answer.
TEST_F(CheckpointTest, RetryAfterInjectedFaultMatchesFaultFree) {
    hpxlite::init(hpxlite::runtime_config{2});
    auto cells = op_decl_set(256, "cells");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");

    exec::checkpoint ckpt;
    ckpt.capture({d});
    fault::arm("kernel=epoch_inc@*.*#2");

    int recoveries = 0;
    for (int attempt = 0;; ++attempt) {
        ASSERT_LT(attempt, 4) << "retry did not converge";
        try {
            std::vector<exec::loop_handle> hs;
            for (int k = 0; k < 3; ++k) {
                hs.push_back(exec::run_loop(
                    hpx_opts(), "epoch_inc", cells,
                    [](double* x) { *x += 1.0; },
                    op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW)));
            }
            for (auto const& h : hs) {
                h.get();
            }
            break;
        } catch (...) {
            ++recoveries;
            op_fence_all();
            ckpt.rollback();
        }
    }
    EXPECT_GE(recoveries, 1);
    op_fence(d);
    for (double x : d.view<double>()) {
        ASSERT_DOUBLE_EQ(x, 3.0);
    }
}

}  // namespace
