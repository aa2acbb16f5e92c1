// Differential test of the staged execution engine: random indirect
// loop programs run through the staged colored path (fork_join and hpx
// backends) must produce *bit-identical* results to run_sequential.
//
// Bit-identity holds because every value in the program is a multiple
// of 1/8 far below 2^53 held in a double: such sums are exact in IEEE
// double arithmetic regardless of the order the colored schedule adds
// contributions in, so any divergence — a wrong gather offset, a colour
// conflict, a lost reduction partial — shows up as an exact mismatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <hpxlite/runtime.hpp>
#include <op2/op2.hpp>

using namespace op2;

namespace {

template <typename Kernel, typename... Args>
void issue(backend be, loop_options const& opts, char const* name,
           op_set const& set, Kernel kern, Args... as) {
    switch (be) {
        case backend::seq:
            op_par_loop_seq(name, set, kern, as...);
            break;
        case backend::fork_join:
            op_par_loop_fork_join(opts, name, set, kern, as...);
            break;
        case backend::hpx:
            (void)op_par_loop_hpx(opts, name, set, kern, as...);
            break;
    }
}

/// The indirect-INC loops a program round can issue. The differentials
/// below run them all together and each on its own.
enum shape : unsigned {
    kScatter = 1u << 0,     // a 3-slot scatter onto one dim-1 dat
    kTwoSlotInc = 1u << 1,  // two INC slots on one dat at dim 2 and again
                            // at dim 4 (res_calc's shape: both endpoints
                            // of an edge increment one dat)
    kDim3Inc = 1u << 2,     // a dim-3 target, a stride of neither 16 nor
                            // 32 bytes
    kReadAndInc = 1u << 3,  // a dat the loop both reads and increments,
                            // through map slots reaching disjoint halves
                            // of the cells, so the loop stays
                            // deterministic although it reads a dat it
                            // writes
    kAllShapes = kScatter | kTwoSlotInc | kDim3Inc | kReadAndInc,
};

struct program {
    static constexpr std::size_t kCells = 700;
    static constexpr std::size_t kEdges = 1900;

    op_set cells;
    op_set edges;
    op_map em;     // edges -> cells, dim 3
    op_map split;  // edges -> cells, dim 2: slot 0 reaches the lower half
                   // of the cells, slot 1 the upper half
    op_dat src;    // dim 2, read by the edge loops
    op_dat acc;    // dim 1, scatter-increment target
    op_dat mixed;  // dim 2, read via split slot 0, incremented via slot 1
    op_dat acc2;   // dim 2, incremented through two slots
    op_dat acc3;   // dim 3
    op_dat acc4;   // dim 4, incremented through two slots
    std::vector<double> src_init;

    explicit program(unsigned seed) {
        cells = op_decl_set(kCells, "cells");
        edges = op_decl_set(kEdges, "edges");
        std::mt19937 rng(seed);
        std::uniform_int_distribution<int> cd(0, kCells - 1);
        std::vector<int> tab(3 * kEdges);
        for (auto& v : tab) {
            v = cd(rng);
        }
        em = op_decl_map(edges, cells, 3, tab, "em");
        std::uniform_int_distribution<int> lo(0, kCells / 2 - 1);
        std::uniform_int_distribution<int> hi(kCells / 2, kCells - 1);
        std::vector<int> halves(2 * kEdges);
        for (std::size_t e = 0; e < kEdges; ++e) {
            halves[2 * e] = lo(rng);
            halves[2 * e + 1] = hi(rng);
        }
        split = op_decl_map(edges, cells, 2, halves, "split");

        std::uniform_int_distribution<int> vd(0, 9);
        src_init.resize(2 * kCells);
        for (auto& v : src_init) {
            v = static_cast<double>(vd(rng));  // integer-valued doubles
        }
        src = op_decl_dat<double>(cells, 2, "double", src_init, "src");
        acc = op_decl_dat_zero<double>(cells, 1, "double", "acc");
        mixed = op_decl_dat<double>(cells, 2, "double", src_init, "mixed");
        acc2 = op_decl_dat_zero<double>(cells, 2, "double", "acc2");
        acc3 = op_decl_dat_zero<double>(cells, 3, "double", "acc3");
        acc4 = op_decl_dat_zero<double>(cells, 4, "double", "acc4");
    }

    struct outcome {
        std::vector<double> fields;  // acc, mixed, acc2, acc3, acc4
        double sum = 0.0;
        double mn = 0.0;
        double mx = 0.0;
    };

    /// Three rounds of the indirect-INC loops in `shapes` and a direct
    /// accumulate back into src, then a gbl INC/MIN/MAX reduction.
    outcome run(backend be, loop_options const& opts,
                unsigned shapes = kAllShapes) {
        std::copy(src_init.begin(), src_init.end(),
                  src.view<double>().begin());
        std::copy(src_init.begin(), src_init.end(),
                  mixed.view<double>().begin());
        for (op_dat* d : {&acc, &acc2, &acc3, &acc4}) {
            for (auto& x : d->view<double>()) {
                x = 0.0;
            }
        }

        outcome out;
        out.mn = 1e300;
        out.mx = -1e300;
        for (int round = 0; round < 3; ++round) {
            if ((shapes & kScatter) != 0) {
                issue(be, opts, "scatter", edges,
                      [](double const* s0, double const* s1, double* t0,
                         double* t1, double* t2) {
                          *t0 += s0[0] + 2.0 * s1[1];
                          *t1 += 3.0 * s0[1];
                          *t2 += s1[0] + s0[0];
                      },
                      op_arg_dat(src, 0, em, 2, "double", OP_READ),
                      op_arg_dat(src, 1, em, 2, "double", OP_READ),
                      op_arg_dat(acc, 0, em, 1, "double", OP_INC),
                      op_arg_dat(acc, 1, em, 1, "double", OP_INC),
                      op_arg_dat(acc, 2, em, 1, "double", OP_INC));
            }
            if ((shapes & kTwoSlotInc) != 0) {
                issue(be, opts, "two_slot_inc", edges,
                      [](double const* s0, double const* s1, double* a0,
                         double* a1, double* b0, double* b1) {
                          a0[0] += s0[0] + 0.5 * s1[1];
                          a0[1] += s0[1];
                          a1[0] += s1[0];
                          a1[1] += 0.25 * s0[0] + s1[1];
                          for (int c = 0; c < 4; ++c) {
                              b0[c] += s0[c % 2] * s1[0] + 0.125 * c;
                              b1[c] += s1[c % 2] - 0.5 * s0[1];
                          }
                      },
                      op_arg_dat(src, 0, em, 2, "double", OP_READ),
                      op_arg_dat(src, 1, em, 2, "double", OP_READ),
                      op_arg_dat(acc2, 0, em, 2, "double", OP_INC),
                      op_arg_dat(acc2, 1, em, 2, "double", OP_INC),
                      op_arg_dat(acc4, 0, em, 4, "double", OP_INC),
                      op_arg_dat(acc4, 1, em, 4, "double", OP_INC));
            }
            if ((shapes & kDim3Inc) != 0) {
                issue(be, opts, "dim3_inc", edges,
                      [](double const* s0, double* b) {
                          b[0] += s0[1] + 0.5;
                          b[1] += 2.0 * s0[0];
                          b[2] += 0.125;
                      },
                      op_arg_dat(src, 0, em, 2, "double", OP_READ),
                      op_arg_dat(acc3, 2, em, 3, "double", OP_INC));
            }
            if ((shapes & kReadAndInc) != 0) {
                issue(be, opts, "read_and_inc", edges,
                      [](double const* probe, double* m, double* b0) {
                          m[0] += probe[0];
                          m[1] += 0.5 * probe[1];
                          b0[0] += probe[1];
                          b0[1] += probe[0];
                          b0[2] += 1.0;
                          b0[3] += 0.5 * probe[0];
                      },
                      op_arg_dat(mixed, 0, split, 2, "double", OP_READ),
                      op_arg_dat(mixed, 1, split, 2, "double", OP_INC),
                      op_arg_dat(acc4, 0, split, 4, "double", OP_INC));
            }
            issue(be, opts, "fold", cells,
                  [](double const* a, double* s) {
                      s[0] += *a;
                      s[1] += *a;
                  },
                  op_arg_dat(acc, -1, OP_ID, 1, "double", OP_READ),
                  op_arg_dat(src, -1, OP_ID, 2, "double", OP_RW));
        }
        issue(be, opts, "reduce", cells,
              [](double const* a, double* s, double* lo, double* hi) {
                  *s += *a;
                  *lo = std::min(*lo, *a);
                  *hi = std::max(*hi, *a);
              },
              op_arg_dat(acc, -1, OP_ID, 1, "double", OP_READ),
              op_arg_gbl(&out.sum, 1, "double", OP_INC),
              op_arg_gbl(&out.mn, 1, "double", OP_MIN),
              op_arg_gbl(&out.mx, 1, "double", OP_MAX));
        if (be == backend::hpx) {
            op_fence_all();
        }
        for (op_dat* d : {&acc, &mixed, &acc2, &acc3, &acc4}) {
            auto v = d->view<double>();
            out.fields.insert(out.fields.end(), v.begin(), v.end());
        }
        return out;
    }
};

/// Bit-identical: memcmp, not EXPECT_NEAR.
void expect_bitwise_equal(program::outcome const& got,
                          program::outcome const& ref,
                          std::string const& label) {
    ASSERT_EQ(got.fields.size(), ref.fields.size());
    EXPECT_EQ(std::memcmp(got.fields.data(), ref.fields.data(),
                          ref.fields.size() * sizeof(double)),
              0)
        << label << ": an increment target diverged";
    EXPECT_EQ(got.sum, ref.sum) << label;
    EXPECT_EQ(got.mn, ref.mn) << label;
    EXPECT_EQ(got.mx, ref.mx) << label;
}

class StagedDifferential : public ::testing::TestWithParam<unsigned> {
protected:
    void SetUp() override { hpxlite::init(hpxlite::runtime_config{4}); }
    void TearDown() override { hpxlite::finalize(); }
};

/// Runs the loops in `shapes` on seq, then through the staged colored
/// path of fork_join (with and without prefetch) and hpx, and requires
/// every run to match seq bit for bit.
void expect_staged_matches_sequential(unsigned seed, unsigned shapes) {
    program prog(seed);
    loop_options staged;
    staged.part_size = 48;
    loop_options staged_pf = staged;
    staged_pf.prefetch = true;

    auto ref = prog.run(backend::seq, staged, shapes);

    struct variant {
        char const* name;
        backend be;
        loop_options const* opts;
    };
    variant const variants[] = {
        {"fork_join/staged", backend::fork_join, &staged},
        {"fork_join/staged+prefetch", backend::fork_join, &staged_pf},
        {"hpx/staged", backend::hpx, &staged},
    };
    for (auto const& v : variants) {
        expect_bitwise_equal(prog.run(v.be, *v.opts, shapes), ref, v.name);
    }
}

TEST_P(StagedDifferential, ColoredStagedPathMatchesSequentialBitwise) {
    expect_staged_matches_sequential(GetParam(), kAllShapes);
}

TEST_P(StagedDifferential, TwoIncSlotsOnOneDatMatchSequentialBitwise) {
    expect_staged_matches_sequential(GetParam(), kTwoSlotInc);
}

/// Dim-1 and dim-3 targets: strides of neither 16 nor 32 bytes.
TEST_P(StagedDifferential, OddStrideIncsMatchSequentialBitwise) {
    expect_staged_matches_sequential(GetParam(), kScatter | kDim3Inc);
}

TEST_P(StagedDifferential, ReadAndIncOfOneDatMatchesSequentialBitwise) {
    expect_staged_matches_sequential(GetParam(), kReadAndInc);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StagedDifferential,
                         ::testing::Values(3u, 7u, 19u, 31u, 57u, 91u));

}  // namespace
