// Randomised property test of the dataflow dependency tracker: generate
// random programs (sequences of direct/indirect/reduction loops over a
// shared pool of dats), run each program on the seq backend to get the
// reference, then replay it on the hpx backend (which interleaves
// whatever it legally can) and on fork_join, and require bit-identical
// results. Every value stays a bounded multiple of 1/8, so indirect
// increments and reductions are exact in any order; any missed
// RAW/WAR/WAW edge shows up as an exact mismatch.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include <hpxlite/runtime.hpp>
#include <op2/op2.hpp>

using namespace op2;

namespace {

struct random_program {
    op_set cells;
    op_set edges;
    op_map em;
    std::vector<op_dat> dats;       // 3 cell dats
    op_dat vec;                     // dim-2 cell dat, read indirectly
    std::vector<int> ops;           // op codes
    std::vector<int> targets;       // dat index per op

    static constexpr std::size_t kCells = 600;
    static constexpr std::size_t kEdges = 1400;

    explicit random_program(unsigned seed) {
        std::mt19937 rng(seed);
        cells = op_decl_set(kCells, "cells");
        edges = op_decl_set(kEdges, "edges");
        std::vector<int> tab(2 * kEdges);
        std::uniform_int_distribution<int> nd(0, kCells - 1);
        for (std::size_t e = 0; e < kEdges; ++e) {
            tab[2 * e] = nd(rng);
            tab[2 * e + 1] = nd(rng);
            if (tab[2 * e] == tab[2 * e + 1]) {
                tab[2 * e + 1] = (tab[2 * e + 1] + 1) % kCells;
            }
        }
        em = op_decl_map(edges, cells, 2, tab, "em");
        for (int d = 0; d < 3; ++d) {
            dats.push_back(op_decl_dat_zero<double>(cells, 1, "double",
                                                    "d" + std::to_string(d)));
        }
        vec = op_decl_dat_zero<double>(cells, 2, "double", "vec");
        std::uniform_int_distribution<int> opd(0, 4);
        std::uniform_int_distribution<int> td(0, 2);
        for (int i = 0; i < 24; ++i) {
            ops.push_back(opd(rng));
            targets.push_back(td(rng));
        }
    }

    void reset() {
        int v = 1;
        for (auto& d : dats) {
            for (auto& x : d.view<double>()) {
                x = static_cast<double>(v);
            }
            ++v;
        }
        double w = 0.125;
        for (auto& x : vec.view<double>()) {
            x = w;
            w += 0.375;
        }
    }

    /// Issue op k on the chosen backend; returns sum-reduction output.
    double issue(int k, backend be, loop_options const& opts, double* red) {
        auto run = [&](char const* name, op_set const& set, auto kern,
                       auto... args) {
            switch (be) {
                case backend::seq:
                    op_par_loop_seq(name, set, kern, args...);
                    break;
                case backend::fork_join:
                    op_par_loop_fork_join(opts, name, set, kern, args...);
                    break;
                case backend::hpx:
                    (void)op_par_loop_hpx(opts, name, set, kern, args...);
                    break;
            }
        };
        op_dat a = dats[static_cast<std::size_t>(targets[static_cast<std::size_t>(k)])];
        op_dat b = dats[(static_cast<std::size_t>(targets[static_cast<std::size_t>(k)]) + 1) % 3];
        switch (ops[static_cast<std::size_t>(k)]) {
            case 0:  // direct write from other dat
                run("copy", cells,
                    [](double const* src, double* dst) {
                        *dst = std::fmod(*src * 3.0 + 1.0, 1024.0);
                    },
                    op_arg_dat(b, -1, OP_ID, 1, "double", OP_READ),
                    op_arg_dat(a, -1, OP_ID, 1, "double", OP_WRITE));
                break;
            case 1:  // direct read-modify-write (keeps vec evolving too)
                run("scale", cells,
                    [](double* x, double* v) {
                        *x = std::fmod(*x * 3.0 + 1.0, 1024.0);
                        v[0] = std::fmod(v[0] + *x, 1024.0);
                        v[1] += 0.5;
                    },
                    op_arg_dat(a, -1, OP_ID, 1, "double", OP_RW),
                    op_arg_dat(vec, -1, OP_ID, 2, "double", OP_RW));
                break;
            case 2:  // indirect scatter-increment, with a dim-2 indirect read
                run("scatter", edges,
                    [](double const* s1, double const* s2, double const* v,
                       double* t1, double* t2) {
                        *t1 += std::fmod(*s2 + 3.0 * v[0], 64.0);
                        *t2 += std::fmod(2.0 * *s1 + v[1], 64.0);
                    },
                    op_arg_dat(b, 0, em, 1, "double", OP_READ),
                    op_arg_dat(b, 1, em, 1, "double", OP_READ),
                    op_arg_dat(vec, 0, em, 2, "double", OP_READ),
                    op_arg_dat(a, 0, em, 1, "double", OP_INC),
                    op_arg_dat(a, 1, em, 1, "double", OP_INC));
                break;
            case 3:  // global reduction
                run("sum", cells,
                    [](double const* x, double* s) { *s += *x; },
                    op_arg_dat(a, -1, OP_ID, 1, "double", OP_READ),
                    op_arg_gbl(red, 1, "double", OP_INC));
                break;
            default:  // two-dat combine
                run("axpy", cells,
                    [](double const* x, double* y) {
                        *y = std::fmod(*y + 2.0 * *x, 1024.0);
                    },
                    op_arg_dat(b, -1, OP_ID, 1, "double", OP_READ),
                    op_arg_dat(a, -1, OP_ID, 1, "double", OP_RW));
                break;
        }
        return 0.0;
    }

    struct outcome {
        std::vector<std::vector<double>> fields;
        std::vector<double> reductions;
    };

    outcome execute(backend be, loop_options const& opts) {
        reset();
        std::vector<double> reds(ops.size(), 0.0);
        for (std::size_t k = 0; k < ops.size(); ++k) {
            issue(static_cast<int>(k), be, opts, &reds[k]);
        }
        if (be == backend::hpx) {
            op_fence_all();
        }
        outcome out;
        for (auto& d : dats) {
            auto v = d.view<double>();
            out.fields.emplace_back(v.begin(), v.end());
        }
        {
            auto v = vec.view<double>();
            out.fields.emplace_back(v.begin(), v.end());
        }
        out.reductions = std::move(reds);
        return out;
    }
};

class RandomLoops : public ::testing::TestWithParam<unsigned> {
protected:
    void SetUp() override { hpxlite::init(hpxlite::runtime_config{4}); }
    void TearDown() override { hpxlite::finalize(); }
};

TEST_P(RandomLoops, HpxAndForkJoinMatchSeq) {
    random_program prog(GetParam());
    loop_options opts;
    opts.part_size = 48;

    auto ref = prog.execute(backend::seq, opts);
    for (auto be : {backend::fork_join, backend::hpx}) {
        auto got = prog.execute(be, opts);
        ASSERT_EQ(got.fields.size(), ref.fields.size());
        for (std::size_t d = 0; d < ref.fields.size(); ++d) {
            ASSERT_EQ(std::memcmp(got.fields[d].data(), ref.fields[d].data(),
                                  ref.fields[d].size() * sizeof(double)),
                      0)
                << "backend " << to_string(be) << " dat " << d;
        }
        for (std::size_t k = 0; k < ref.reductions.size(); ++k) {
            ASSERT_EQ(got.reductions[k], ref.reductions[k])
                << "backend " << to_string(be) << " reduction " << k;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLoops,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u));

}  // namespace
