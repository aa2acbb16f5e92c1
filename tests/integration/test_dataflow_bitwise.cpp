// hpx_dataflow against the staged (fork-join) backend, bit for bit, on
// order-sensitive data.
//
// Every other differential suite holds integers in doubles, so no
// change of increment or reduction order can show there. Here the
// values are non-integer: a reassociated INC scatter or a reduction
// folded in a different order changes the low bits of the result. The
// dataflow backend issues each loop as colour slices of the plan the
// staged backend sweeps, orders every shared target's increments by
// colour and folds reduction partials in block order, so its dats and
// gbl results must equal staged's exactly, at every pool size (so at
// every slice count), and two dataflow runs must equal each other.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <random>
#include <tuple>
#include <vector>

#include <airfoil/app.hpp>
#include <hpxlite/runtime.hpp>
#include <op2/op2.hpp>

using namespace op2;

namespace {

template <typename T>
bool same_bits(std::vector<T> const& a, std::vector<T> const& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

// --- the real Airfoil march ------------------------------------------------

struct march_case {
    std::size_t nx, ny;
    int niter;
};

constexpr march_case kMarches[] = {{48, 24, 200}, {97, 31, 50}};

airfoil::app_result march(march_case m, backend be) {
    airfoil::app_config cfg;
    cfg.mesh.nx = m.nx;
    cfg.mesh.ny = m.ny;
    cfg.niter = m.niter;
    cfg.rms_stride = 10;
    cfg.be = be;
    return airfoil::run(cfg);
}

class DataflowStagedBitwise
    : public ::testing::TestWithParam<std::tuple<unsigned, int>> {
protected:
    void SetUp() override {
        hpxlite::init(hpxlite::runtime_config{std::get<0>(GetParam())});
    }
    void TearDown() override { hpxlite::finalize(); }
};

TEST_P(DataflowStagedBitwise, AirfoilMarchMatchesStaged) {
    march_case const m = kMarches[std::get<1>(GetParam())];
    auto const ref = march(m, backend::fork_join);
    auto const a = march(m, backend::hpx);
    auto const b = march(m, backend::hpx);
    EXPECT_TRUE(same_bits(a.q_final, ref.q_final)) << "q differs from staged";
    EXPECT_TRUE(same_bits(a.rms_history, ref.rms_history))
        << "rms differs from staged";
    EXPECT_TRUE(same_bits(a.q_final, b.q_final) &&
                same_bits(a.rms_history, b.rms_history))
        << "two hpx runs differ";
}

/// Pool sizes: one slice per colour, even and odd counts, and more
/// slices than some colours have blocks.
INSTANTIATE_TEST_SUITE_P(
    Pools, DataflowStagedBitwise,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u, 8u),
                       ::testing::Values(0, 1)));

// --- a random indirect INC/RW program -------------------------------------

/// Rounds of four loops over a random edges->cells mesh with
/// non-integer data: an indirect INC scatter with gbl INC/MIN/MAX, an
/// indirect RW update, a direct relaxation with a gbl INC, and a direct
/// decay. Every reduction has its own variable. Issued back to back,
/// fenced once.
struct program_out {
    std::vector<double> a, b, c, gbl;
};

program_out run_program(unsigned seed, backend be) {
    constexpr std::size_t kCells = 700;
    constexpr std::size_t kEdges = 2100;
    constexpr int kRounds = 4;
    auto cells = op_decl_set(kCells, "bw_cells");
    auto edges = op_decl_set(kEdges, "bw_edges");
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> cd(0, kCells - 1);
    std::vector<int> tab(2 * kEdges);
    for (auto& v : tab) {
        v = cd(rng);
    }
    auto em = op_decl_map(edges, cells, 2, tab, "bw_em");
    std::uniform_real_distribution<double> vd(0.1, 1.9);
    std::vector<double> a_init(2 * kCells);
    std::vector<double> w_init(kEdges);
    for (auto& v : a_init) {
        v = vd(rng);
    }
    for (auto& v : w_init) {
        v = vd(rng);
    }
    auto a = op_decl_dat<double>(cells, 2, "double", a_init, "bw_a");
    auto b = op_decl_dat_zero<double>(cells, 1, "double", "bw_b");
    auto c = op_decl_dat_zero<double>(cells, 1, "double", "bw_c");
    auto w = op_decl_dat<double>(edges, 1, "double", w_init, "bw_w");

    // Per round: INC, MIN, MAX of the scatter, INC of the RW update,
    // INC of the relaxation.
    std::vector<double> gbl(5 * kRounds);
    loop_options o;
    o.backend = to_exec_backend(be);
    o.part_size = 32;
    for (int r = 0; r < kRounds; ++r) {
        double* g = gbl.data() + 5 * r;
        g[1] = 1e300;
        g[2] = -1e300;
        (void)exec::run_loop(
            o, "bw_scatter", edges,
            [](double const* wv, double const* a0, double* b0, double* b1,
               double* s, double* mn, double* mx) {
                *b0 += *wv * a0[0] * 0.37;
                *b1 += *wv - a0[1] * 0.11;
                *s += *wv * a0[0];
                *mn = std::min(*mn, *wv * a0[1]);
                *mx = std::max(*mx, a0[0] - *wv);
            },
            op_arg_dat(w, -1, OP_ID, 1, "double", OP_READ),
            op_arg_dat(a, 0, em, 2, "double", OP_READ),
            op_arg_dat(b, 0, em, 1, "double", OP_INC),
            op_arg_dat(b, 1, em, 1, "double", OP_INC),
            op_arg_gbl(g + 0, 1, "double", OP_INC),
            op_arg_gbl(g + 1, 1, "double", OP_MIN),
            op_arg_gbl(g + 2, 1, "double", OP_MAX));
        (void)exec::run_loop(
            o, "bw_update", edges,
            [](double const* wv, double* a1, double* s) {
                a1[0] = a1[0] * 0.999 + *wv * 0.01;
                a1[1] -= 0.003 * *wv;
                *s += a1[0] * a1[1];
            },
            op_arg_dat(w, -1, OP_ID, 1, "double", OP_READ),
            op_arg_dat(a, 1, em, 2, "double", OP_RW),
            op_arg_gbl(g + 3, 1, "double", OP_INC));
        (void)exec::run_loop(
            o, "bw_relax", cells,
            [](double* av, double const* bv, double* cv, double* s) {
                av[0] += 0.1 * *bv;
                *cv = av[0] * av[1];
                *s += *cv;
            },
            op_arg_dat(a, -1, OP_ID, 2, "double", OP_RW),
            op_arg_dat(b, -1, OP_ID, 1, "double", OP_READ),
            op_arg_dat(c, -1, OP_ID, 1, "double", OP_WRITE),
            op_arg_gbl(g + 4, 1, "double", OP_INC));
        (void)exec::run_loop(o, "bw_decay", cells,
                             [](double* bv) { *bv *= 0.5; },
                             op_arg_dat(b, -1, OP_ID, 1, "double", OP_RW));
    }
    op_fence_all();
    auto copy = [](op_dat const& d) {
        auto const v = d.view<double>();
        return std::vector<double>(v.begin(), v.end());
    };
    return {copy(a), copy(b), copy(c), gbl};
}

class DataflowStagedBitwiseProgram
    : public ::testing::TestWithParam<unsigned> {
protected:
    void SetUp() override {
        hpxlite::init(hpxlite::runtime_config{GetParam()});
    }
    void TearDown() override { hpxlite::finalize(); }
};

TEST_P(DataflowStagedBitwiseProgram, RandomIncRwProgramMatchesStaged) {
    for (unsigned seed : {5u, 19u}) {
        auto const ref = run_program(seed, backend::fork_join);
        auto const x = run_program(seed, backend::hpx);
        auto const y = run_program(seed, backend::hpx);
        EXPECT_TRUE(same_bits(x.a, ref.a) && same_bits(x.b, ref.b) &&
                    same_bits(x.c, ref.c))
            << "dats differ from staged (seed " << seed << ")";
        EXPECT_TRUE(same_bits(x.gbl, ref.gbl))
            << "gbl results differ from staged (seed " << seed << ")";
        EXPECT_TRUE(same_bits(x.a, y.a) && same_bits(x.b, y.b) &&
                    same_bits(x.c, y.c) && same_bits(x.gbl, y.gbl))
            << "two hpx runs differ (seed " << seed << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(Pools, DataflowStagedBitwiseProgram,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 8u));

}  // namespace
