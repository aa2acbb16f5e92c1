// Cross-issue executor/scratch pooling: the dataflow backend recycles a
// loop's whole partitioned group — typed executors, staging scratch,
// reduction scratch, quarantine vectors — across issues of the same
// call site. Pooling must be semantically invisible: results identical
// to seq, and in particular no reduction partial may ever leak from one
// issue into the next (the grow-only scratch keeps its *capacity*,
// never its contents).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <random>
#include <vector>

#include <hpxlite/runtime.hpp>
#include <op2/op2.hpp>

using namespace op2;

namespace {

class ExecPoolTest : public ::testing::Test {
protected:
    void SetUp() override { hpxlite::init(hpxlite::runtime_config{4}); }
    void TearDown() override { hpxlite::finalize(); }
};

/// A short chain (direct reset + indirect INC + direct fold) re-issued
/// ten times from each call site — the exact shape the pool
/// accelerates. The pooled dataflow run must match seq bitwise. Values
/// are small dyadics (k/8), the INC adds plain values and the fold
/// halves, so over ten rounds every value and partial sum stays within
/// 44 significant bits: every sum is exact, and seq's element order and
/// the colour order give the same bits.
TEST_F(ExecPoolTest, PooledChainMatchesSeqBitwise) {
    constexpr std::size_t kCells = 500;
    constexpr std::size_t kEdges = 1400;
    auto run = [&](exec::backend_kind be) {
        auto cells = op_decl_set(kCells, "cells");
        auto edges = op_decl_set(kEdges, "edges");
        std::mt19937 rng(11);
        std::uniform_int_distribution<int> cd(0, kCells - 1);
        std::vector<int> tab(2 * kEdges);
        for (auto& v : tab) {
            v = cd(rng);
        }
        auto em = op_decl_map(edges, cells, 2, tab, "em");
        std::uniform_int_distribution<int> vd(1, 8);
        std::vector<double> init(2 * kCells);
        for (auto& v : init) {
            v = static_cast<double>(vd(rng)) * 0.125;
        }
        auto src = op_decl_dat<double>(cells, 2, "double", init, "src");
        auto acc = op_decl_dat_zero<double>(cells, 2, "double", "acc");

        loop_options o;
        o.backend = be;
        o.part_size = 64;
        for (int round = 0; round < 10; ++round) {
            (void)exec::run_loop(
                o, "reset", cells,
                [](double* a) {
                    a[0] = 0.0;
                    a[1] = 0.0;
                },
                op_arg_dat(acc, -1, OP_ID, 2, "double", OP_WRITE));
            (void)exec::run_loop(
                o, "inc", edges,
                [](double const* s0, double const* s1, double* a0,
                   double* a1) {
                    a0[0] += s0[0];
                    a0[1] += s1[1];
                    a1[0] += s1[0];
                    a1[1] += s0[1];
                },
                op_arg_dat(src, 0, em, 2, "double", OP_READ),
                op_arg_dat(src, 1, em, 2, "double", OP_READ),
                op_arg_dat(acc, 0, em, 2, "double", OP_INC),
                op_arg_dat(acc, 1, em, 2, "double", OP_INC));
            (void)exec::run_loop(
                o, "fold", cells,
                [](double const* a, double* s) {
                    s[0] += 0.5 * a[0];
                    s[1] += 0.5 * a[1];
                },
                op_arg_dat(acc, -1, OP_ID, 2, "double", OP_READ),
                op_arg_dat(src, -1, OP_ID, 2, "double", OP_RW));
        }
        op_fence_all();
        auto sv = src.view<double>();
        auto av = acc.view<double>();
        std::vector<double> out(sv.begin(), sv.end());
        out.insert(out.end(), av.begin(), av.end());
        return out;
    };
    auto const ref = run(exec::backend_kind::seq);
    auto const pooled = run(exec::backend_kind::hpx_dataflow);
    ASSERT_EQ(ref.size(), pooled.size());
    EXPECT_EQ(0, std::memcmp(ref.data(), pooled.data(),
                             ref.size() * sizeof(double)));
}

/// The satellite guarantee: a recycled executor's reduction scratch is
/// re-seeded, never re-used. Issue the same gbl-INC/MIN/MAX loop from
/// one call site repeatedly; every issue must produce the exact
/// standalone value — any leaked INC partial doubles the sum, a stale
/// MIN/MAX partial freezes the extremum at a previous run's value.
TEST_F(ExecPoolTest, PooledReuseNeverLeaksReductionPartials) {
    constexpr std::size_t kN = 777;
    auto cells = op_decl_set(kN, "cells");
    std::vector<double> vals(kN);
    auto d = op_decl_dat<double>(cells, 1, "double", vals, "d");

    loop_options o;
    o.backend = exec::backend_kind::hpx_dataflow;
    o.part_size = 64;

    // Exactly-representable integer bases, alternating up and down so a
    // stale partial from the previous round is always detectable: a
    // leaked MAX survives into the next *smaller*-valued round, a
    // leaked MIN into the next *larger*-valued one. Integer values keep
    // the expected sum exact under any combine order.
    double const bases[] = {1024.0, 256.0, 2048.0, 128.0, 4096.0, 64.0};
    int round = 0;
    for (double const base : bases) {
        ++round;
        {
            auto v = d.view<double>();
            for (std::size_t i = 0; i < kN; ++i) {
                v[i] = base + static_cast<double>(i % 10);
            }
        }
        double sum = 0.0;
        double mn = 1e300;
        double mx = -1e300;
        auto h = exec::run_loop(
            o, "reduce", cells,
            [](double const* x, double* s, double* a, double* b) {
                *s += *x;
                *a = std::min(*a, *x);
                *b = std::max(*b, *x);
            },
            op_arg_dat(d, -1, OP_ID, 1, "double", OP_READ),
            op_arg_gbl(&sum, 1, "double", OP_INC),
            op_arg_gbl(&mn, 1, "double", OP_MIN),
            op_arg_gbl(&mx, 1, "double", OP_MAX));
        h.get();

        double expect_sum = 0.0;
        for (std::size_t i = 0; i < kN; ++i) {
            expect_sum += base + static_cast<double>(i % 10);
        }
        EXPECT_DOUBLE_EQ(sum, expect_sum) << "round " << round;
        EXPECT_DOUBLE_EQ(mn, base) << "round " << round;
        EXPECT_DOUBLE_EQ(mx, base + 9.0) << "round " << round;
    }
}

/// Re-creating the pool at another size between issues of one call site
/// hands the recycled group another slicing and slice countdown, and the
/// dat another record table. Results must stay exact through every
/// transition.
TEST_F(ExecPoolTest, PoolResizeRebuildsRecycledGroups) {
    constexpr std::size_t kN = 640;
    auto cells = op_decl_set(kN, "cells");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");

    loop_options o;
    o.backend = exec::backend_kind::hpx_dataflow;
    o.part_size = 32;

    double total = 0.0;
    std::size_t const counts[] = {2, 4, 3, 1, 4, 2};
    for (std::size_t np : counts) {
        hpxlite::init(hpxlite::runtime_config{np});
        double sum = 0.0;
        auto h = exec::run_loop(
            o, "bump", cells,
            [](double* x, double* s) {
                *x += 1.0;
                *s += *x;
            },
            op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW),
            op_arg_gbl(&sum, 1, "double", OP_INC));
        h.get();
        total += 1.0;
        EXPECT_DOUBLE_EQ(sum, total * static_cast<double>(kN))
            << np << " workers";
    }
    op_fence_all();
    for (double x : d.view<double>()) {
        ASSERT_DOUBLE_EQ(x, static_cast<double>(std::size(counts)));
    }
}

/// The pooled reduction stream must match seq bit for bit. Per-block
/// partials fold into the gbl scalar in another order than seq's
/// running sum — so the values are
/// exactly-representable dyadics (integer inits, x*0.5+0.125 over ten
/// rounds stays well inside 53 mantissa bits) and the sums are
/// order-independent: any divergence is a recycled group leaking or
/// dropping a partial, not reassociation noise.
TEST_F(ExecPoolTest, PooledReductionStreamMatchesSeqBitwise) {
    hpxlite::init(hpxlite::runtime_config{2});
    constexpr std::size_t kN = 513;
    auto run = [&](exec::backend_kind be) {
        auto cells = op_decl_set(kN, "cells");
        std::mt19937 rng(77);
        std::uniform_int_distribution<int> vd(1, 1024);
        std::vector<double> vals(kN);
        for (auto& v : vals) {
            v = static_cast<double>(vd(rng));
        }
        auto d = op_decl_dat<double>(cells, 1, "double", vals, "d");
        loop_options o;
        o.backend = be;
        o.part_size = 64;
        std::vector<double> sums;
        for (int round = 0; round < 10; ++round) {
            double sum = 0.0;
            auto h = exec::run_loop(
                o, "acc", cells,
                [](double* x, double* s) {
                    *x = *x * 0.5 + 0.125;
                    *s += *x;
                },
                op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW),
                op_arg_gbl(&sum, 1, "double", OP_INC));
            h.get();
            sums.push_back(sum);
        }
        return sums;
    };
    auto const ref = run(exec::backend_kind::seq);
    auto const pooled = run(exec::backend_kind::hpx_dataflow);
    ASSERT_EQ(ref.size(), pooled.size());
    EXPECT_EQ(0, std::memcmp(ref.data(), pooled.data(),
                             ref.size() * sizeof(double)));
}

}  // namespace
