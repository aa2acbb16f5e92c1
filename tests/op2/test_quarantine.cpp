// Partition-granular quarantine (op2/exec/dataflow.hpp +
// backend.hpp): a failed loop poisons exactly the partitions of the
// dats it wrote, later readers fail fast with a structured diagnostic
// naming the origin on every backend, direct whole-dat writers heal,
// poison survives a pool resize, and clear_quarantine() lifts it.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include <hpxlite/runtime.hpp>
#include <op2/op2.hpp>

using namespace op2;

namespace {

class QuarantineTest : public ::testing::Test {
protected:
    void SetUp() override { hpxlite::init(hpxlite::runtime_config{4}); }
    void TearDown() override {
        fault::disarm();
        hpxlite::finalize();
    }

    loop_options seq_opts_ = [] {
        loop_options o;
        o.backend = exec::backend_kind::seq;
        return o;
    }();

    static loop_options hpx_opts() {
        loop_options o;
        o.backend = exec::backend_kind::hpx_dataflow;
        o.part_size = 32;
        return o;
    }
};

/// Make `d` quarantined via a synchronous kernel failure in a loop
/// named `loop`.
void poison_via_seq(op_dat& d, char const* loop) {
    loop_options o;
    o.backend = exec::backend_kind::seq;
    EXPECT_THROW(
        exec::run_loop(o, loop, d.set(),
                       [](double*) -> void {
                           throw std::runtime_error("kernel kaboom");
                       },
                       op_arg_dat(d, -1, OP_ID, 1, "double", OP_WRITE)),
        std::runtime_error);
    EXPECT_TRUE(d.quarantined());
}

TEST_F(QuarantineTest, SyncFailurePoisonsWrittenDatsOnly) {
    auto cells = op_decl_set(128, "cells");
    auto src = op_decl_dat_zero<double>(cells, 1, "double", "src");
    auto dst = op_decl_dat_zero<double>(cells, 1, "double", "dst");

    EXPECT_THROW(
        exec::run_loop(seq_opts_, "copy_fail", cells,
                       [](double const*, double*) -> void {
                           throw std::runtime_error("kaboom");
                       },
                       op_arg_dat(src, -1, OP_ID, 1, "double", OP_READ),
                       op_arg_dat(dst, -1, OP_ID, 1, "double", OP_WRITE)),
        std::runtime_error);

    EXPECT_FALSE(src.quarantined());  // read-only operand stays clean
    EXPECT_TRUE(dst.quarantined());
    dst.clear_quarantine();
}

TEST_F(QuarantineTest, PoisonedReadFailsFastWithOriginDiagnostic) {
    auto cells = op_decl_set(128, "cells");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "flow");
    poison_via_seq(d, "origin_writer");

    double sum = 0.0;
    try {
        exec::run_loop(seq_opts_, "innocent_reader", cells,
                       [](double const* x, double* s) { *s += *x; },
                       op_arg_dat(d, -1, OP_ID, 1, "double", OP_READ),
                       op_arg_gbl(&sum, 1, "double", OP_INC));
        FAIL() << "read of a poisoned dat must not run";
    } catch (exec::quarantine_error const& e) {
        std::string const msg = e.what();
        EXPECT_NE(msg.find("op2.quarantine"), std::string::npos) << msg;
        EXPECT_NE(msg.find("innocent_reader"), std::string::npos) << msg;
        EXPECT_NE(msg.find("origin_writer"), std::string::npos) << msg;
        EXPECT_NE(msg.find("flow"), std::string::npos) << msg;
        EXPECT_NE(msg.find("kernel kaboom"), std::string::npos) << msg;
        EXPECT_EQ(e.info().loop, "origin_writer");
        EXPECT_EQ(e.info().dat, "flow");
    }
    // Fail-fast means the kernel never ran: the reduction is untouched.
    EXPECT_DOUBLE_EQ(sum, 0.0);
    d.clear_quarantine();
}

TEST_F(QuarantineTest, IncAndRwCountAsReads) {
    auto cells = op_decl_set(64, "cells");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");
    poison_via_seq(d, "w");

    EXPECT_THROW(
        exec::run_loop(seq_opts_, "inc", cells,
                       [](double* x) { *x += 1.0; },
                       op_arg_dat(d, -1, OP_ID, 1, "double", OP_INC)),
        exec::quarantine_error);
    EXPECT_THROW(
        exec::run_loop(seq_opts_, "rw", cells,
                       [](double* x) { *x *= 2.0; },
                       op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW)),
        exec::quarantine_error);
    d.clear_quarantine();
}

TEST_F(QuarantineTest, DirectWholeSetWriteHeals) {
    auto cells = op_decl_set(64, "cells");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");
    poison_via_seq(d, "w");

    // A direct OP_WRITE overwrites every poisoned byte: it must be
    // allowed through and lift the quarantine.
    exec::run_loop(seq_opts_, "healer", cells,
                   [](double* x) { *x = 7.0; },
                   op_arg_dat(d, -1, OP_ID, 1, "double", OP_WRITE));
    EXPECT_FALSE(d.quarantined());
    for (double x : d.view<double>()) {
        ASSERT_DOUBLE_EQ(x, 7.0);
    }
}

TEST_F(QuarantineTest, ClearQuarantineLiftsPoison) {
    auto cells = op_decl_set(64, "cells");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");
    poison_via_seq(d, "w");
    EXPECT_TRUE(d.quarantined());

    d.clear_quarantine();
    EXPECT_FALSE(d.quarantined());
    double sum = 0.0;
    exec::run_loop(seq_opts_, "r", cells,
                   [](double const* x, double* s) { *s += *x; },
                   op_arg_dat(d, -1, OP_ID, 1, "double", OP_READ),
                   op_arg_gbl(&sum, 1, "double", OP_INC));
}

TEST_F(QuarantineTest, FailedSubNodePoisonsAndReaderFails) {
    hpxlite::init(hpxlite::runtime_config{2});
    auto cells = op_decl_set(256, "cells");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");

    fault::arm("kernel=async_writer@*.*");
    auto hw = exec::run_loop(hpx_opts(), "async_writer", cells,
                             [](double* x) { *x += 1.0; },
                             op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW));
    EXPECT_THROW(hw.get(), std::runtime_error);
    op_fence(d);
    EXPECT_TRUE(d.quarantined());

    // A later reader fails either at issue (quarantine check) or
    // through graph error inheritance — both surface a runtime_error at
    // the handle, never silently-divergent data.
    auto hr = exec::run_loop(hpx_opts(), "late_reader", cells,
                             [](double* x) { *x += 1.0; },
                             op_arg_dat(d, -1, OP_ID, 1, "double", OP_INC));
    EXPECT_THROW(hr.get(), std::runtime_error);
    op_fence(d);
    d.clear_quarantine();
}

/// A loop over an empty set that reads a poisoned dat (through an empty
/// map) fails on every backend. The dataflow loop has no sub-node to
/// carry the quarantine diagnostic, so its join must carry it.
TEST_F(QuarantineTest, EmptySetReaderOfPoisonedDatFailsOnEveryBackend) {
    auto cells = op_decl_set(8, "cells");
    auto none = op_decl_set(0, "none");
    auto none_to_cells = op_decl_map(none, cells, 1, {}, "none_to_cells");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");

    fault::arm("kernel=poisoner@*.*");
    auto hw = exec::run_loop(hpx_opts(), "poisoner", cells,
                             [](double* x) { *x = 1.0; },
                             op_arg_dat(d, -1, OP_ID, 1, "double", OP_WRITE));
    EXPECT_THROW(hw.get(), std::runtime_error);
    op_fence(d);
    fault::disarm();
    ASSERT_TRUE(d.quarantined());

    for (auto be : {exec::backend_kind::seq, exec::backend_kind::staged,
                    exec::backend_kind::hpx_dataflow}) {
        loop_options o = hpx_opts();
        o.backend = be;
        EXPECT_THROW(exec::run_loop(o, "empty_reader", none,
                                    [](double const*) {},
                                    op_arg_dat(d, 0, none_to_cells, 1,
                                               "double", OP_READ))
                         .get(),
                     exec::quarantine_error)
            << exec::to_string(be);
    }
    d.clear_quarantine();
}

/// Poison recorded on one pool must survive a resize of the pool, which
/// rebuilds the dat's record table at the new worker count: spans are
/// element-granular, so a reader at a *different* partition count still
/// trips over them.
TEST_F(QuarantineTest, PoisonSurvivesPoolResize) {
    hpxlite::init(hpxlite::runtime_config{2});
    auto cells = op_decl_set(240, "cells");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");

    fault::arm("kernel=writer_p2@*.*");
    auto hw = exec::run_loop(hpx_opts(), "writer_p2", cells,
                             [](double* x) { *x += 1.0; },
                             op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW));
    EXPECT_THROW(hw.get(), std::runtime_error);
    op_fence(d);
    ASSERT_TRUE(d.quarantined());

    // Another pool size: the reader's issue rebuilds the record table.
    hpxlite::init(hpxlite::runtime_config{3});
    auto hr = exec::run_loop(hpx_opts(), "reader_p3", cells,
                             [](double* x) { *x += 1.0; },
                             op_arg_dat(d, -1, OP_ID, 1, "double", OP_INC));
    EXPECT_THROW(hr.get(), std::runtime_error);
    op_fence(d);
    EXPECT_TRUE(d.quarantined());
    d.clear_quarantine();

    // And the sync backends see element-granular spans too.
    poison_via_seq(d, "w");
    EXPECT_THROW(
        exec::run_loop(seq_opts_, "r", cells, [](double* x) { *x += 1.0; },
                       op_arg_dat(d, -1, OP_ID, 1, "double", OP_INC)),
        exec::quarantine_error);
    d.clear_quarantine();
}

/// Satellite S3: a dropped (never-run) dataflow task takes the same
/// discard path pool teardown uses; the loop's handle reports it and
/// the written dat is quarantined, naming the discarded loop.
TEST_F(QuarantineTest, DroppedTaskSurfacesDiscardAndQuarantines) {
    auto cells = op_decl_set(128, "cells");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");

    // One worker: the loop's only sub-node is the first task.
    hpxlite::init(hpxlite::runtime_config{1});
    fault::arm("drop=1");
    loop_options o = hpx_opts();
    auto h = exec::run_loop(o, "dropped_loop", cells,
                            [](double* x) { *x += 1.0; },
                            op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW));
    try {
        h.get();
        FAIL() << "dropped loop must not complete";
    } catch (std::runtime_error const& e) {
        EXPECT_NE(std::string(e.what()).find("discarded"),
                  std::string::npos)
            << e.what();
    }
    op_fence(d);
    EXPECT_TRUE(d.quarantined());

    try {
        exec::run_loop(seq_opts_, "r", cells,
                       [](double* x) { *x += 1.0; },
                       op_arg_dat(d, -1, OP_ID, 1, "double", OP_INC));
        FAIL() << "read of the discarded loop's dat must fail";
    } catch (exec::quarantine_error const& e) {
        EXPECT_EQ(e.info().loop, "dropped_loop");
    }
    d.clear_quarantine();
}

TEST_F(QuarantineTest, CleanRunsLeaveNoQuarantine) {
    hpxlite::init(hpxlite::runtime_config{2});
    auto cells = op_decl_set(256, "cells");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");
    for (int k = 0; k < 4; ++k) {
        (void)exec::run_loop(hpx_opts(), "inc", cells,
                             [](double* x) { *x += 1.0; },
                             op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW));
    }
    op_fence(d);
    EXPECT_FALSE(d.quarantined());
    for (double x : d.view<double>()) {
        ASSERT_DOUBLE_EQ(x, 4.0);
    }
}

}  // namespace
