// Loop-chain shapes on the hpx_dataflow backend against the sequential
// reference: a direct producer/consumer pair, twin indirect INC loops
// through one map, paired reductions, an indirect reader of an
// indirectly incremented dat, a gather whose every reference lies in
// the other half of the set, loops on two sets interleaved, and a
// randomized direct read/write DAG with reduction probes. Also the
// points at which issued work becomes visible (handle get, fences, a
// change of partition count) and a fault inside a chain, which must
// poison only what the failing loop writes.
//
// The dat fields are compared bitwise. Indirect shapes keep every value
// a dyadic rational with few significant bits, so the colour-ordered
// INC accumulation of the partitioned path and the element order of
// seq produce the same bits; direct shapes apply the same per-element
// arithmetic on both backends. Any mismatch is a missed dependency
// edge, a reader overtaking its writer or a lost contribution.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <hpxlite/runtime.hpp>
#include <op2/op2.hpp>

using namespace op2;

namespace {

void expect_bitwise_equal(std::vector<double> const& got,
                          std::vector<double> const& ref) {
    ASSERT_EQ(got.size(), ref.size());
    EXPECT_EQ(0, std::memcmp(got.data(), ref.data(),
                             ref.size() * sizeof(double)));
}

std::vector<double> concat(op_dat const& a, op_dat const& b) {
    auto av = a.view<double>();
    auto bv = b.view<double>();
    std::vector<double> out(av.begin(), av.end());
    out.insert(out.end(), bv.begin(), bv.end());
    return out;
}

loop_options chain_opts(exec::backend_kind be) {
    loop_options o;
    o.backend = be;
    o.part_size = 48;
    return o;
}

class DataflowChainShapes : public ::testing::TestWithParam<unsigned> {
protected:
    void SetUp() override { hpxlite::init(hpxlite::runtime_config{4}); }
    void TearDown() override { hpxlite::finalize(); }
};

/// Direct producer/consumer pair iterated eight times: A writes flux
/// from q, B reads flux and read-modify-writes q.
TEST_P(DataflowChainShapes, DirectPairMatchesSeqBitwise) {
    constexpr std::size_t kN = 700;
    auto run = [&](exec::backend_kind be) {
        auto cells = op_decl_set(kN, "cells");
        std::mt19937 rng(GetParam());
        std::uniform_real_distribution<double> vd(0.1, 1.0);
        std::vector<double> init(2 * kN);
        for (auto& v : init) {
            v = vd(rng);
        }
        auto q = op_decl_dat<double>(cells, 2, "double", init, "q");
        auto flux = op_decl_dat_zero<double>(cells, 2, "double", "flux");

        loop_options const o = chain_opts(be);
        for (int it = 0; it < 8; ++it) {
            (void)exec::run_loop(
                o, "fa", cells,
                [](double const* qq, double* f) {
                    f[0] = qq[0] * 0.75 + qq[1];
                    f[1] = qq[1] * 0.5 - qq[0] * 0.125;
                },
                op_arg_dat(q, -1, OP_ID, 2, "double", OP_READ),
                op_arg_dat(flux, -1, OP_ID, 2, "double", OP_WRITE));
            (void)exec::run_loop(
                o, "fb", cells,
                [](double const* f, double* qq) {
                    qq[0] += 0.25 * f[0];
                    qq[1] += 0.25 * f[1] - 0.0625 * f[0];
                },
                op_arg_dat(flux, -1, OP_ID, 2, "double", OP_READ),
                op_arg_dat(q, -1, OP_ID, 2, "double", OP_RW));
        }
        op_fence_all();
        return concat(q, flux);
    };
    expect_bitwise_equal(run(exec::backend_kind::hpx_dataflow),
                         run(exec::backend_kind::seq));
}

/// Two loops with identical indirect conflict structure, both INC
/// through the same map slots into different dats, reading one shared
/// source through the map.
TEST_P(DataflowChainShapes, IndirectIncTwinsMatchSeqBitwise) {
    constexpr std::size_t kCells = 500;
    constexpr std::size_t kEdges = 1400;
    auto run = [&](exec::backend_kind be) {
        auto cells = op_decl_set(kCells, "cells");
        auto edges = op_decl_set(kEdges, "edges");
        std::mt19937 rng(GetParam());
        std::uniform_int_distribution<int> cd(0, kCells - 1);
        std::vector<int> tab(2 * kEdges);
        for (auto& v : tab) {
            v = cd(rng);
        }
        auto em = op_decl_map(edges, cells, 2, tab, "em");
        std::uniform_int_distribution<int> vd(1, 9);
        std::vector<double> init(2 * kCells);
        for (auto& v : init) {
            v = static_cast<double>(vd(rng));
        }
        auto src = op_decl_dat<double>(cells, 2, "double", init, "src");
        auto ra = op_decl_dat_zero<double>(cells, 2, "double", "ra");
        auto rb = op_decl_dat_zero<double>(cells, 2, "double", "rb");

        loop_options const o = chain_opts(be);
        (void)exec::run_loop(
            o, "ia", edges,
            [](double const* s0, double const* s1, double* a0, double* a1) {
                a0[0] += s0[0] + 0.5 * s1[1];
                a0[1] += s0[1];
                a1[0] += s1[0];
                a1[1] += 0.25 * s0[0];
            },
            op_arg_dat(src, 0, em, 2, "double", OP_READ),
            op_arg_dat(src, 1, em, 2, "double", OP_READ),
            op_arg_dat(ra, 0, em, 2, "double", OP_INC),
            op_arg_dat(ra, 1, em, 2, "double", OP_INC));
        (void)exec::run_loop(
            o, "ib", edges,
            [](double const* s0, double const* s1, double* b0, double* b1) {
                b0[0] += s1[0] * 0.125;
                b0[1] += s0[1] + s1[1];
                b1[0] += s0[0] - 0.5 * s1[0];
                b1[1] += s1[1];
            },
            op_arg_dat(src, 0, em, 2, "double", OP_READ),
            op_arg_dat(src, 1, em, 2, "double", OP_READ),
            op_arg_dat(rb, 0, em, 2, "double", OP_INC),
            op_arg_dat(rb, 1, em, 2, "double", OP_INC));
        op_fence_all();
        return concat(ra, rb);
    };
    expect_bitwise_equal(run(exec::backend_kind::hpx_dataflow),
                         run(exec::backend_kind::seq));
}

/// Two reductions per round over one dat (an RW loop with a gbl INC,
/// then a reader with a gbl INC), their handles waited in reverse
/// issue order. Per-block partials fold in another order than seq's
/// running sum, so the values are dyadics with few bits (integer inits, x*0.5+0.25 over six
/// rounds) and every sum is exact in any order: a mismatch is a lost or
/// double-counted partial.
TEST_P(DataflowChainShapes, ReductionPairMatchesSeqBitwise) {
    constexpr std::size_t kN = 600;
    auto run = [&](exec::backend_kind be) {
        auto cells = op_decl_set(kN, "cells");
        std::mt19937 rng(GetParam());
        std::uniform_int_distribution<int> vd(1, 1024);
        std::vector<double> init(kN);
        for (auto& v : init) {
            v = static_cast<double>(vd(rng));
        }
        auto d = op_decl_dat<double>(cells, 1, "double", init, "d");
        loop_options const o = chain_opts(be);
        std::vector<double> sums;
        for (int it = 0; it < 6; ++it) {
            double s1 = 0.0;
            double s2 = 0.0;
            auto ha = exec::run_loop(
                o, "ra", cells,
                [](double* x, double* s) {
                    *x = *x * 0.5 + 0.25;
                    *s += *x;
                },
                op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW),
                op_arg_gbl(&s1, 1, "double", OP_INC));
            auto hb = exec::run_loop(
                o, "rb", cells,
                [](double const* x, double* s) { *s += *x * 0.125; },
                op_arg_dat(d, -1, OP_ID, 1, "double", OP_READ),
                op_arg_gbl(&s2, 1, "double", OP_INC));
            hb.get();
            ha.get();
            sums.push_back(s1);
            sums.push_back(s2);
        }
        op_fence_all();
        auto dv = d.view<double>();
        sums.insert(sums.end(), dv.begin(), dv.end());
        return sums;
    };
    expect_bitwise_equal(run(exec::backend_kind::hpx_dataflow),
                         run(exec::backend_kind::seq));
}

/// A gather that INCs `acc` through the map, then a loop that reads
/// `acc` through the same map: the reader must wait for every
/// partition's contributions, including those landing in its own
/// partitions from elsewhere.
TEST_P(DataflowChainShapes, IndirectReadOfIncrementedDatMatchesSeqBitwise) {
    constexpr std::size_t kCells = 400;
    constexpr std::size_t kEdges = 1100;
    auto run = [&](exec::backend_kind be) {
        auto cells = op_decl_set(kCells, "cells");
        auto edges = op_decl_set(kEdges, "edges");
        std::mt19937 rng(GetParam());
        std::uniform_int_distribution<int> cd(0, kCells - 1);
        std::vector<int> tab(2 * kEdges);
        for (auto& v : tab) {
            v = cd(rng);
        }
        auto em = op_decl_map(edges, cells, 2, tab, "em");
        std::uniform_int_distribution<int> vd(1, 9);
        std::vector<double> init(kCells);
        for (auto& v : init) {
            v = static_cast<double>(vd(rng));
        }
        auto src = op_decl_dat<double>(cells, 1, "double", init, "src");
        auto acc = op_decl_dat_zero<double>(cells, 1, "double", "acc");
        auto out = op_decl_dat_zero<double>(cells, 1, "double", "out");

        loop_options const o = chain_opts(be);
        (void)exec::run_loop(
            o, "gather", edges,
            [](double const* s0, double const* s1, double* a0, double* a1) {
                *a0 += *s1 * 0.5;
                *a1 += *s0;
            },
            op_arg_dat(src, 0, em, 1, "double", OP_READ),
            op_arg_dat(src, 1, em, 1, "double", OP_READ),
            op_arg_dat(acc, 0, em, 1, "double", OP_INC),
            op_arg_dat(acc, 1, em, 1, "double", OP_INC));
        (void)exec::run_loop(
            o, "scale", edges,
            [](double const* a0, double const* a1, double* o0, double* o1) {
                *o0 += *a0 * 0.25;
                *o1 += *a1 * 0.125;
            },
            op_arg_dat(acc, 0, em, 1, "double", OP_READ),
            op_arg_dat(acc, 1, em, 1, "double", OP_READ),
            op_arg_dat(out, 0, em, 1, "double", OP_INC),
            op_arg_dat(out, 1, em, 1, "double", OP_INC));
        op_fence_all();
        return concat(acc, out);
    };
    expect_bitwise_equal(run(exec::backend_kind::hpx_dataflow),
                         run(exec::backend_kind::seq));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DataflowChainShapes,
                         ::testing::Values(3u, 17u, 29u, 53u));

/// A randomized direct read/write DAG: each step reads one of four dats
/// and read-modify-writes another, with a reduction probe every fifth
/// step. The fields must match seq bitwise. The probe sums are held to
/// a tight relative tolerance instead: after 40 halving/quartering
/// steps the values need more than 53 mantissa bits, so their sum is
/// reassociation-sensitive, and the dataflow backend folds per-block
/// partials where seq keeps one running sum.
class DataflowRandomDirectDag : public DataflowChainShapes {};

TEST_P(DataflowRandomDirectDag, RwDagWithProbesMatchesSeqBitwise) {
    constexpr std::size_t kN = 350;
    constexpr int kSteps = 40;
    unsigned const seed = GetParam();
    auto run = [&](exec::backend_kind be) {
        auto cells = op_decl_set(kN, "cells");
        std::mt19937 rng(seed);
        std::uniform_real_distribution<double> vd(0.1, 1.0);
        std::array<op_dat, 4> dats;
        for (std::size_t k = 0; k < dats.size(); ++k) {
            std::vector<double> init(kN);
            for (auto& v : init) {
                v = vd(rng);
            }
            dats[k] = op_decl_dat<double>(cells, 1, "double", init,
                                          "d" + std::to_string(k));
        }
        loop_options const o = chain_opts(be);
        std::mt19937 pick(seed ^ 0x9e3779b9u);
        std::uniform_int_distribution<int> di(0, 3);
        std::vector<double> sums;
        for (int s = 0; s < kSteps; ++s) {
            int const a = di(pick);
            int b = di(pick);
            while (b == a) {
                b = di(pick);
            }
            (void)exec::run_loop(
                o, "step", cells,
                [](double const* x, double* y) { *y = *y * 0.5 + *x * 0.25; },
                op_arg_dat(dats[static_cast<std::size_t>(a)], -1, OP_ID, 1,
                           "double", OP_READ),
                op_arg_dat(dats[static_cast<std::size_t>(b)], -1, OP_ID, 1,
                           "double", OP_RW));
            if (s % 5 == 4) {
                double sum = 0.0;
                auto h = exec::run_loop(
                    o, "probe", cells,
                    [](double const* x, double* acc) { *acc += *x; },
                    op_arg_dat(dats[static_cast<std::size_t>(b)], -1, OP_ID,
                               1, "double", OP_READ),
                    op_arg_gbl(&sum, 1, "double", OP_INC));
                h.get();
                sums.push_back(sum);
            }
        }
        op_fence_all();
        std::vector<double> fields;
        for (auto const& d : dats) {
            auto v = d.view<double>();
            fields.insert(fields.end(), v.begin(), v.end());
        }
        return std::make_pair(std::move(sums), std::move(fields));
    };
    auto const ref = run(exec::backend_kind::seq);
    auto const got = run(exec::backend_kind::hpx_dataflow);
    expect_bitwise_equal(got.second, ref.second);
    ASSERT_EQ(got.first.size(), ref.first.size());
    for (std::size_t i = 0; i < ref.first.size(); ++i) {
        EXPECT_NEAR(got.first[i], ref.first[i], 1e-9 * std::abs(ref.first[i]))
            << "probe " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DataflowRandomDirectDag,
                         ::testing::Values(101u, 202u, 303u));

class DataflowChains : public ::testing::Test {
protected:
    void SetUp() override { hpxlite::init(hpxlite::runtime_config{4}); }
    void TearDown() override {
        fault::disarm();
        hpxlite::finalize();
    }
};

/// Loops on two different iteration sets, issued alternately with no
/// fence in between: each set's chain keeps its own program order.
TEST_F(DataflowChains, LoopsOnDifferentSetsInterleaveCorrectly) {
    hpxlite::init(hpxlite::runtime_config{2});
    auto cells = op_decl_set(400, "cells");
    auto nodes = op_decl_set(300, "nodes");
    auto dc = op_decl_dat_zero<double>(cells, 1, "double", "dc");
    auto dn = op_decl_dat_zero<double>(nodes, 1, "double", "dn");

    loop_options const o = chain_opts(exec::backend_kind::hpx_dataflow);
    for (int it = 0; it < 5; ++it) {
        (void)exec::run_loop(o, "on_cells", cells,
                             [](double* x) { *x = *x * 2.0 + 1.0; },
                             op_arg_dat(dc, -1, OP_ID, 1, "double", OP_RW));
        (void)exec::run_loop(o, "on_nodes", nodes,
                             [](double* x) { *x = *x * 3.0 + 2.0; },
                             op_arg_dat(dn, -1, OP_ID, 1, "double", OP_RW));
    }
    op_fence_all();
    // x -> 2x+1 five times from 0 is 31; x -> 3x+2 five times is 242.
    for (double x : dc.view<double>()) {
        ASSERT_EQ(x, 31.0);
    }
    for (double x : dn.view<double>()) {
        ASSERT_EQ(x, 242.0);
    }
}

/// Issued work becomes observable at each documented wait point: the
/// loop's own handle (then a per-dat fence), op_fence_all, and across a
/// re-creation of the pool at another size, which drains the old pool,
/// so the first loop on the new pool still runs after the loop before
/// it.
TEST_F(DataflowChains, ResultsVisibleAtEveryWaitPoint) {
    hpxlite::init(hpxlite::runtime_config{2});
    auto cells = op_decl_set(200, "cells");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "d");
    loop_options const o = chain_opts(exec::backend_kind::hpx_dataflow);

    auto h = exec::run_loop(o, "w1", cells, [](double* x) { *x += 1.0; },
                            op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW));
    h.get();
    op_fence(d);
    for (double x : d.view<double>()) {
        ASSERT_EQ(x, 1.0);
    }

    (void)exec::run_loop(o, "w2", cells, [](double* x) { *x += 1.0; },
                         op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW));
    op_fence_all();
    for (double x : d.view<double>()) {
        ASSERT_EQ(x, 2.0);
    }

    (void)exec::run_loop(o, "w3", cells, [](double* x) { *x += 1.0; },
                         op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW));
    hpxlite::init(hpxlite::runtime_config{3});
    (void)exec::run_loop(o, "w4", cells, [](double* x) { *x *= 3.0; },
                         op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW));
    hpxlite::init(hpxlite::runtime_config{1});
    (void)exec::run_loop(o, "w5", cells, [](double* x) { *x -= 4.0; },
                         op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW));
    op_fence_all();
    for (double x : d.view<double>()) {
        ASSERT_EQ(x, 5.0);
    }
}

/// A fault armed on one loop of a chain fails that loop's handle and
/// poisons the dat it writes; an independent loop issued just before
/// it completes and stays clean. The diagnostic names the failing loop,
/// and a direct whole-set write heals the poisoned dat.
TEST_F(DataflowChains, FaultPoisonsOnlyTheFailingLoopsWrites) {
    auto cells = op_decl_set(300, "cells");
    auto da = op_decl_dat_zero<double>(cells, 1, "double", "da");
    auto db = op_decl_dat_zero<double>(cells, 1, "double", "db");

    hpxlite::init(hpxlite::runtime_config{2});
    fault::arm("kernel=pb@*.*");
    loop_options const o = chain_opts(exec::backend_kind::hpx_dataflow);
    auto ha = exec::run_loop(o, "pa", cells, [](double* x) { *x += 1.0; },
                             op_arg_dat(da, -1, OP_ID, 1, "double", OP_RW));
    auto hb = exec::run_loop(o, "pb", cells, [](double* x) { *x += 2.0; },
                             op_arg_dat(db, -1, OP_ID, 1, "double", OP_RW));
    EXPECT_THROW(hb.get(), std::runtime_error);
    EXPECT_NO_THROW(ha.get());
    op_fence_all();
    fault::disarm();
    EXPECT_FALSE(da.quarantined());
    EXPECT_TRUE(db.quarantined());
    for (double x : da.view<double>()) {
        ASSERT_EQ(x, 1.0);
    }

    loop_options const seq = chain_opts(exec::backend_kind::seq);
    try {
        exec::run_loop(seq, "reader", cells, [](double* x) { *x += 1.0; },
                       op_arg_dat(db, -1, OP_ID, 1, "double", OP_INC));
        FAIL() << "a read of the failed loop's output must fail";
    } catch (exec::quarantine_error const& e) {
        EXPECT_EQ(e.info().loop, "pb");
        EXPECT_EQ(e.info().dat, "db");
    }

    exec::run_loop(seq, "heal_b", cells, [](double* x) { *x = 2.0; },
                   op_arg_dat(db, -1, OP_ID, 1, "double", OP_WRITE));
    EXPECT_FALSE(db.quarantined());
}

/// Every edge gathers from the other half of the cell set (edges of the
/// first half read cells of the second and vice versa), so no edge
/// partition reads a cell of its own partition range.
TEST_F(DataflowChains, CrossHalfGatherMatchesSeqBitwise) {
    auto cells = op_decl_set(64, "xh_cells");
    auto edges = op_decl_set(32, "xh_edges");
    std::vector<int> tab(32);
    for (int e = 0; e < 32; ++e) {
        tab[e] = e < 16 ? 32 + e : e - 16;
    }
    auto em = op_decl_map(edges, cells, 1, tab, "xh_map");
    auto cd = op_decl_dat_zero<double>(cells, 1, "double", "xh_cd");
    auto ed = op_decl_dat_zero<double>(edges, 1, "double", "xh_ed");
    {
        auto v = cd.view<double>();
        for (std::size_t i = 0; i < 64; ++i) {
            v[i] = static_cast<double>(3 + (i % 11));
        }
    }
    auto body = [](double const* c, double* r) { *r += *c + 1.0; };
    auto run = [&](exec::backend_kind be) {
        for (auto& x : ed.view<double>()) {
            x = 0.0;
        }
        loop_options o = chain_opts(be);
        o.part_size = 16;
        auto h = exec::run_loop(o, "xh_read", edges, body,
                                op_arg_dat(cd, 0, em, 1, "double", OP_READ),
                                op_arg_dat(ed, -1, OP_ID, 1, "double",
                                           OP_RW));
        h.get();
        op_fence_all();
        auto v = ed.view<double>();
        return std::vector<double>(v.begin(), v.end());
    };
    auto const ref = run(exec::backend_kind::seq);
    expect_bitwise_equal(run(exec::backend_kind::hpx_dataflow), ref);
}

}  // namespace
