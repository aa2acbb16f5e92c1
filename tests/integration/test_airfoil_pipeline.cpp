// Cross-module integration: the real Airfoil application (op2 + hpxlite)
// against the psim model of the same workload, checking that the
// *structural* facts the model assumes hold in the real code: loop
// count per iteration, colouring, dependency ordering and the
// equivalence of all execution modes.

#include <gtest/gtest.h>

#include <airfoil/app.hpp>
#include <psim/testbed.hpp>

namespace {

class PipelineTest : public ::testing::Test {
protected:
    void SetUp() override { hpxlite::init(hpxlite::runtime_config{4}); }
    void TearDown() override { hpxlite::finalize(); }
};

TEST_F(PipelineTest, ModelIssueOrderMatchesRealApplication) {
    // The psim airfoil workload issues 9 loops per iteration (save +
    // 2x4); the real driver does the same.
    auto w = psim::airfoil_workload();
    EXPECT_EQ(w.issue_order.size(), 9u);

    // Real run over 1 iteration executes those loops; the plan cache
    // collapses them to 4 distinct shapes: the all-direct cell loops
    // (save_soln/update) share one conflict-free plan, adt_calc gets its
    // own (cells, but with staged x-gather tables through pcell),
    // while res_calc (edges) and bres_calc (bedges) each need a coloured
    // one with their own staging tables.
    // The problem is held while counting: a set's plans are dropped
    // with its last handle.
    op2::plan_cache_clear();
    airfoil::app_config cfg;
    cfg.mesh.nx = 20;
    cfg.mesh.ny = 10;
    cfg.niter = 1;
    cfg.be = op2::backend::fork_join;
    auto prob = airfoil::make_problem(airfoil::make_mesh(cfg.mesh));
    (void)airfoil::run(prob, cfg);
    EXPECT_EQ(op2::plan_cache_size(), 4u);
}

TEST_F(PipelineTest, RealResCalcPlanIsColoured) {
    auto m = airfoil::make_mesh({.nx = 24, .ny = 12});
    auto p = airfoil::make_problem(m);
    std::array<op2::op_arg, 2> args{
        op2::op_arg_dat(p.p_res, 0, p.pecell, 4, "double", op2::OP_INC),
        op2::op_arg_dat(p.p_res, 1, p.pecell, 4, "double", op2::OP_INC)};
    auto plan = op2::plan_build(p.edges, args, 32);
    EXPECT_TRUE(plan.colored);
    EXPECT_GE(plan.ncolors, 2u);
    // The model assumes a small number of colours for this mesh family.
    EXPECT_LE(plan.ncolors, 8u);
}

TEST_F(PipelineTest, AllExecutionModesAgreeOnPhysics) {
    airfoil::app_config base;
    base.mesh.nx = 32;
    base.mesh.ny = 16;
    base.niter = 30;
    base.rms_stride = 30;

    base.be = op2::backend::seq;
    auto seq = airfoil::run(base);

    std::vector<airfoil::app_config> variants;
    {
        auto c = base;
        c.be = op2::backend::fork_join;
        variants.push_back(c);
    }
    {
        auto c = base;
        c.be = op2::backend::hpx;
        variants.push_back(c);
    }
    {
        auto c = base;
        c.be = op2::backend::hpx;
        c.opts.prefetch = true;
        variants.push_back(c);
    }
    {
        auto c = base;
        c.be = op2::backend::hpx;
        c.opts.chunk = hpxlite::execution::dynamic_chunk_size{2};
        variants.push_back(c);
    }
    for (auto const& cfg : variants) {
        auto r = airfoil::run(cfg);
        ASSERT_EQ(r.rms_history.size(), seq.rms_history.size());
        EXPECT_NEAR(r.final_rms, seq.final_rms, 1e-9 * (1.0 + seq.final_rms))
            << "backend " << op2::to_string(cfg.be);
    }
}

TEST_F(PipelineTest, ModeledGainDirectionMatchesPaperClaims) {
    // The reproduction's headline: dataflow beats fork-join at scale,
    // chunking and prefetching stack further gains (paper: 40-50%).
    auto tb = psim::paper_testbed();
    psim::sim_options o;
    o.threads = 32;
    o.iterations = 50;

    o.chunking = psim::chunk_mode::omp_static;
    double const omp = simulate_fork_join(tb.machine, tb.airfoil, o).total_s;
    o.chunking = psim::chunk_mode::persistent;
    double const df = simulate_dataflow(tb.machine, tb.airfoil, o).total_s;
    o.prefetch = true;
    o.prefetch_distance = 15;
    double const dfp = simulate_dataflow(tb.machine, tb.airfoil, o).total_s;

    EXPECT_LT(df, omp);
    EXPECT_LT(dfp, df);
    double const overall = omp / dfp - 1.0;
    EXPECT_GT(overall, 0.40);  // abstract: "40-50% improvement"
}

TEST_F(PipelineTest, HostElapsedTimesArePlausible) {
    airfoil::app_config cfg;
    cfg.mesh.nx = 24;
    cfg.mesh.ny = 12;
    cfg.niter = 5;
    cfg.be = op2::backend::hpx;
    auto r = airfoil::run(cfg);
    EXPECT_GT(r.elapsed_s, 0.0);
    EXPECT_LT(r.elapsed_s, 60.0);
}

}  // namespace
