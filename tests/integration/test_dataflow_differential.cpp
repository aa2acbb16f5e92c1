// Differential tests of the epoch-based hpx_dataflow backend against the
// sequential reference, on airfoil-shaped loop chains and on randomized
// read/write loop DAGs.
//
// Bit-identity holds because every value in the programs is an integer
// held in a double (sums stay far below 2^53), so any divergence — a
// dependency edge missed by the epoch protocol, a reader overtaking its
// writer, a lost reduction partial — shows up as an exact mismatch
// rather than hiding inside a tolerance. Run under the
// ThreadSanitizer-enabled configuration (-DOP2HPX_TSAN=ON) the same
// programs double as the epoch-ordering race check: a missing edge means
// two loops touch the same dat concurrently, which TSan reports even
// when the numeric result happens to survive.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include <hpxlite/runtime.hpp>
#include <op2/op2.hpp>

using namespace op2;

namespace {

/// Mini-airfoil: the five-loop time-march chain of the paper's Fig. 2
/// (save_soln / adt_calc / res_calc / update shapes) over a random
/// edges->cells mesh, issued iteration after iteration with *no*
/// intermediate fence on the dataflow backend, or, given pool sizes,
/// with iteration i as a fenced phase on a pool of
/// workers[i % workers.size()] workers.
struct airfoil_shaped {
    static constexpr std::size_t kCells = 600;
    static constexpr std::size_t kEdges = 1700;

    op_set cells, edges;
    op_map em;  // edges -> cells, dim 2
    op_dat q, qold, adt, res;
    std::vector<double> q_init;

    explicit airfoil_shaped(unsigned seed) {
        cells = op_decl_set(kCells, "cells");
        edges = op_decl_set(kEdges, "edges");
        std::mt19937 rng(seed);
        std::uniform_int_distribution<int> cd(0, kCells - 1);
        std::vector<int> tab(2 * kEdges);
        for (auto& v : tab) {
            v = cd(rng);
        }
        em = op_decl_map(edges, cells, 2, tab, "em");

        std::uniform_int_distribution<int> vd(1, 5);
        q_init.resize(2 * kCells);
        for (auto& v : q_init) {
            v = static_cast<double>(vd(rng));
        }
        q = op_decl_dat<double>(cells, 2, "double", q_init, "q");
        qold = op_decl_dat_zero<double>(cells, 2, "double", "qold");
        adt = op_decl_dat_zero<double>(cells, 1, "double", "adt");
        res = op_decl_dat_zero<double>(cells, 2, "double", "res");
    }

    struct outcome {
        std::vector<double> q;
        std::vector<double> res;
        double rms = 0.0;
    };

    outcome run(exec::backend_kind be, int iters,
                std::vector<std::size_t> const& workers = {}) {
        auto qv = q.view<double>();
        std::copy(q_init.begin(), q_init.end(), qv.begin());
        for (auto& x : qold.view<double>()) x = 0.0;
        for (auto& x : adt.view<double>()) x = 0.0;
        for (auto& x : res.view<double>()) x = 0.0;

        loop_options o;
        o.part_size = 48;
        o.backend = be;

        outcome out;
        // Stable storage for the per-iteration reductions, like the real
        // airfoil driver: the whole pipeline stays in flight.
        std::vector<double> rms(static_cast<std::size_t>(iters), 0.0);
        for (int it = 0; it < iters; ++it) {
            if (!workers.empty()) {
                op_fence_all();
                hpxlite::init(hpxlite::runtime_config{
                    workers[static_cast<std::size_t>(it) % workers.size()]});
            }
            (void)exec::run_loop(o, "save_soln", cells,
                                 [](double const* qq, double* qo) {
                                     qo[0] = qq[0];
                                     qo[1] = qq[1];
                                 },
                                 op_arg_dat(q, -1, OP_ID, 2, "double", OP_READ),
                                 op_arg_dat(qold, -1, OP_ID, 2, "double",
                                            OP_WRITE));
            (void)exec::run_loop(
                o, "adt_calc", cells,
                [](double const* qq, double* a) { *a = qq[0] + qq[1]; },
                op_arg_dat(q, -1, OP_ID, 2, "double", OP_READ),
                op_arg_dat(adt, -1, OP_ID, 1, "double", OP_WRITE));
            (void)exec::run_loop(
                o, "res_calc", edges,
                [](double const* q0, double const* q1, double const* a0,
                   double const* a1, double* r0, double* r1) {
                    double const f = q0[0] + q1[1] + *a0 + *a1;
                    r0[0] += f;
                    r0[1] += 2.0 * f;
                    r1[0] += f;
                    r1[1] += f + q0[1];
                },
                op_arg_dat(q, 0, em, 2, "double", OP_READ),
                op_arg_dat(q, 1, em, 2, "double", OP_READ),
                op_arg_dat(adt, 0, em, 1, "double", OP_READ),
                op_arg_dat(adt, 1, em, 1, "double", OP_READ),
                op_arg_dat(res, 0, em, 2, "double", OP_INC),
                op_arg_dat(res, 1, em, 2, "double", OP_INC));
            (void)exec::run_loop(
                o, "update", cells,
                [](double const* qo, double* qq, double* r, double* s) {
                    // Keep values integer and bounded: fold the residual
                    // in modulo a power of two, then clear it.
                    qq[0] = qo[0] + std::fmod(r[0], 64.0);
                    qq[1] = qo[1] + std::fmod(r[1], 64.0);
                    *s += qq[0];
                    r[0] = 0.0;
                    r[1] = 0.0;
                },
                op_arg_dat(qold, -1, OP_ID, 2, "double", OP_READ),
                op_arg_dat(q, -1, OP_ID, 2, "double", OP_WRITE),
                op_arg_dat(res, -1, OP_ID, 2, "double", OP_RW),
                op_arg_gbl(&rms[static_cast<std::size_t>(it)], 1, "double",
                           OP_INC));
        }
        if (be == exec::backend_kind::hpx_dataflow) {
            op_fence_all();
        }
        out.rms = rms.back();
        auto qv2 = q.view<double>();
        out.q.assign(qv2.begin(), qv2.end());
        auto rv = res.view<double>();
        out.res.assign(rv.begin(), rv.end());
        return out;
    }
};

class DataflowDifferential : public ::testing::TestWithParam<unsigned> {
protected:
    void SetUp() override { hpxlite::init(hpxlite::runtime_config{4}); }
    void TearDown() override { hpxlite::finalize(); }
};

TEST_P(DataflowDifferential, AirfoilShapedChainMatchesSeqBitwise) {
    airfoil_shaped prog(GetParam());
    auto ref = prog.run(exec::backend_kind::seq, 4);
    auto got = prog.run(exec::backend_kind::hpx_dataflow, 4);
    ASSERT_EQ(got.q.size(), ref.q.size());
    EXPECT_EQ(std::memcmp(got.q.data(), ref.q.data(),
                          ref.q.size() * sizeof(double)),
              0)
        << "state q diverged through the async chain";
    EXPECT_EQ(std::memcmp(got.res.data(), ref.res.data(),
                          ref.res.size() * sizeof(double)),
              0)
        << "residual diverged through the async chain";
    EXPECT_EQ(got.rms, ref.rms);
}

/// Other pool sizes against seq: same chain, same seeds,
/// bitwise-identical state. One worker runs each loop's colours one
/// sub-node at a time; odd sizes exercise uneven partition bounds and
/// boundary-straddling map footprints, and the same-colour exemption
/// on res_calc's straddling INC partitions.
TEST_P(DataflowDifferential, PartitionedChainMatchesSeqBitwise) {
    airfoil_shaped prog(GetParam());
    auto oracle = prog.run(exec::backend_kind::seq, 4);
    for (std::size_t workers : {1u, 2u, 3u, 5u}) {
        hpxlite::init(hpxlite::runtime_config{workers});
        auto got = prog.run(exec::backend_kind::hpx_dataflow, 4);
        ASSERT_EQ(got.q.size(), oracle.q.size());
        EXPECT_EQ(std::memcmp(got.q.data(), oracle.q.data(),
                              oracle.q.size() * sizeof(double)),
                  0)
            << "state q diverged at " << workers << " workers";
        EXPECT_EQ(std::memcmp(got.res.data(), oracle.res.data(),
                              oracle.res.size() * sizeof(double)),
                  0)
            << "residual diverged at " << workers << " workers";
        EXPECT_EQ(got.rms, oracle.rms) << workers << " workers";
    }
}

/// Randomized read/write loop DAGs: every loop reads two random dats and
/// read-modify-writes a third, giving a dense mix of RAW, WAR and WAW
/// edges plus reader groups that may run concurrently. The dataflow
/// execution must replay the issue order's semantics exactly; the epoch
/// counters must equal the number of writers each dat saw.
TEST_P(DataflowDifferential, RandomLoopDagMatchesSeqAndEpochCount) {
    constexpr std::size_t kElems = 400;
    constexpr int kDats = 6;
    constexpr int kLoops = 48;

    auto run = [&](exec::backend_kind be,
                   std::vector<std::vector<double>>* snapshot,
                   std::vector<std::uint64_t>* epochs) {
        auto set = op_decl_set(kElems, "elems");
        std::vector<op_dat> dats;
        for (int k = 0; k < kDats; ++k) {
            auto d = op_decl_dat_zero<double>(set, 1, "double",
                                              "d" + std::to_string(k));
            for (std::size_t i = 0; i < kElems; ++i) {
                d.view<double>()[i] = static_cast<double>((i + k) % 7);
            }
            dats.push_back(d);
        }

        std::mt19937 rng(GetParam() * 977u + 13u);
        std::uniform_int_distribution<int> pick(0, kDats - 1);
        std::vector<int> writer_count(kDats, 0);

        loop_options o;
        o.part_size = 32;
        o.backend = be;
        for (int l = 0; l < kLoops; ++l) {
            int const r1 = pick(rng);
            int r2 = pick(rng);
            int w = pick(rng);
            while (r2 == r1) r2 = (r2 + 1) % kDats;
            while (w == r1 || w == r2) w = (w + 1) % kDats;
            writer_count[w] += 1;
            (void)exec::run_loop(
                o, "mix", set,
                [](double const* a, double const* b, double* t) {
                    *t = std::fmod(*t + *a + 2.0 * *b, 1024.0);
                },
                op_arg_dat(dats[static_cast<std::size_t>(r1)], -1, OP_ID, 1,
                           "double", OP_READ),
                op_arg_dat(dats[static_cast<std::size_t>(r2)], -1, OP_ID, 1,
                           "double", OP_READ),
                op_arg_dat(dats[static_cast<std::size_t>(w)], -1, OP_ID, 1,
                           "double", OP_RW));
        }
        if (be == exec::backend_kind::hpx_dataflow) {
            op_fence_all();
        }
        snapshot->clear();
        for (auto& d : dats) {
            auto v = d.view<double>();
            snapshot->emplace_back(v.begin(), v.end());
        }
        if (epochs != nullptr) {
            epochs->clear();
            for (int k = 0; k < kDats; ++k) {
                epochs->push_back(dats[static_cast<std::size_t>(k)]
                                      .internal()
                                      .dep.epoch);
                EXPECT_EQ(epochs->back(),
                          static_cast<std::uint64_t>(writer_count
                                                         [static_cast<
                                                             std::size_t>(k)]))
                    << "dat " << k
                    << ": epoch does not equal the number of issued writers";
            }
        }
    };

    std::vector<std::vector<double>> ref, got;
    std::vector<std::uint64_t> epochs;
    run(exec::backend_kind::seq, &ref, nullptr);
    // Four workers, one, and an uneven count: all must replay the issue
    // order's semantics bitwise, and all must count writer loops
    // identically in the dat-level epochs.
    for (std::size_t workers : {4u, 1u, 5u}) {
        hpxlite::init(hpxlite::runtime_config{workers});
        run(exec::backend_kind::hpx_dataflow, &got, &epochs);
        ASSERT_EQ(ref.size(), got.size());
        for (std::size_t k = 0; k < ref.size(); ++k) {
            EXPECT_EQ(std::memcmp(got[k].data(), ref[k].data(),
                                  ref[k].size() * sizeof(double)),
                      0)
                << "dat " << k << " diverged under the randomized DAG at "
                << workers << " workers";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DataflowDifferential,
                         ::testing::Values(2u, 11u, 23u, 41u, 67u));

/// OP_INC where every contribution lands in another partition (edge e
/// targets cell (e + kN/2) mod kN, two partitions of the fixture's 4
/// away), followed
/// by a direct reader that folds the incremented dat into a gbl INC
/// reduction: the reader must see every cross-partition contribution.
class DataflowCrossPartitionInc : public DataflowDifferential {};

TEST_P(DataflowCrossPartitionInc,
       IncIntoOtherPartitionsThenReduceMatchesSeqBitwise) {
    constexpr std::size_t kN = 60;
    auto cells = op_decl_set(kN, "cells");
    auto edges = op_decl_set(kN, "edges");
    std::vector<int> tab(kN);
    for (std::size_t e = 0; e < kN; ++e) {
        tab[e] = static_cast<int>((e + kN / 2) % kN);
    }
    auto em = op_decl_map(edges, cells, 1, tab, "em_cross");
    auto cd = op_decl_dat_zero<double>(cells, 1, "double", "cd");
    auto ed = op_decl_dat_zero<double>(edges, 1, "double", "ed");
    std::mt19937 rng(GetParam());
    std::uniform_int_distribution<int> vd(1, 9);
    std::vector<double> e_init(kN);
    for (auto& v : e_init) {
        v = static_cast<double>(vd(rng));
    }

    auto scatter = [](double const* ev, double* c) { *c += *ev; };
    auto reduce = [](double const* c, double* s) { *s += *c; };

    auto run = [&](exec::backend_kind be, std::vector<double>* out,
                   double* sum) {
        std::copy(e_init.begin(), e_init.end(), ed.view<double>().begin());
        for (auto& x : cd.view<double>()) {
            x = 1.0;
        }
        loop_options o;
        o.backend = be;
        o.part_size = 8;
        *sum = 0.0;
        (void)exec::run_loop(o, "cross_inc", edges, scatter,
                             op_arg_dat(ed, -1, OP_ID, 1, "double", OP_READ),
                             op_arg_dat(cd, 0, em, 1, "double", OP_INC));
        auto h = exec::run_loop(o, "cross_sum", cells, reduce,
                                op_arg_dat(cd, -1, OP_ID, 1, "double",
                                           OP_READ),
                                op_arg_gbl(sum, 1, "double", OP_INC));
        h.get();
        op_fence_all();
        auto v = cd.view<double>();
        out->assign(v.begin(), v.end());
    };

    std::vector<double> ref, got;
    double ref_sum = 0.0;
    double got_sum = 0.0;
    run(exec::backend_kind::seq, &ref, &ref_sum);
    run(exec::backend_kind::hpx_dataflow, &got, &got_sum);
    EXPECT_EQ(std::memcmp(got.data(), ref.data(), ref.size() * sizeof(double)),
              0)
        << "cross-partition INC diverged";
    EXPECT_EQ(got_sum, ref_sum);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DataflowCrossPartitionInc,
                         ::testing::Values(3u, 17u, 29u, 53u));

/// Pools wider than the 4-worker default (6, 8 and 12 workers), so a
/// colour is cut into more slices than it has blocks and many slices
/// are empty, plus one worker, whose sub-nodes all carry worker 0's
/// hint: the airfoil-shaped chain must stay bitwise identical to seq.
class DataflowManyWorkers : public DataflowDifferential {};

TEST_P(DataflowManyWorkers, AirfoilShapedChainMatchesSeqBitwise) {
    airfoil_shaped prog(GetParam());
    auto oracle = prog.run(exec::backend_kind::seq, 4);
    for (std::size_t workers : {1u, 6u, 8u, 12u}) {
        hpxlite::init(hpxlite::runtime_config{workers});
        auto got = prog.run(exec::backend_kind::hpx_dataflow, 4);
        ASSERT_EQ(got.q.size(), oracle.q.size());
        EXPECT_EQ(std::memcmp(got.q.data(), oracle.q.data(),
                              oracle.q.size() * sizeof(double)),
                  0)
            << "state q diverged at " << workers << " workers";
        EXPECT_EQ(std::memcmp(got.res.data(), oracle.res.data(),
                              oracle.res.size() * sizeof(double)),
                  0)
            << "residual diverged at " << workers << " workers";
        EXPECT_EQ(got.rms, oracle.rms) << workers << " workers";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DataflowManyWorkers,
                         ::testing::Values(3u, 17u, 29u, 53u));

/// Randomized DAG mixing direct read-modify-writes with indirect
/// gathers (OP_READ through the map, OP_INC back through it) and
/// scatters fed by an indirect read: a dense interleaving of indirect
/// readers and INC writers over the same dats, issued without a fence,
/// or, given pool sizes, as fenced phases of four loops with phase i on
/// a pool of workers[i % workers.size()] workers. The program is a
/// function of `seed`. Returns every dat's final contents.
std::vector<std::vector<double>> random_indirect_dag(
    unsigned seed, exec::backend_kind be,
    std::vector<std::size_t> const& workers = {}) {
    constexpr std::size_t kCells = 192;
    constexpr std::size_t kEdges = 480;
    constexpr int kDats = 4;
    constexpr int kLoops = 28;

    auto cells = op_decl_set(kCells, "cells");
    auto edges = op_decl_set(kEdges, "edges");
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> cd(0, static_cast<int>(kCells) - 1);
    std::vector<int> tab(2 * kEdges);
    for (auto& v : tab) {
        v = cd(rng);
    }
    auto em = op_decl_map(edges, cells, 2, tab, "em");

    std::vector<op_dat> dats;
    for (int k = 0; k < kDats; ++k) {
        auto d = op_decl_dat_zero<double>(cells, 1, "double",
                                          "c" + std::to_string(k));
        auto v = d.view<double>();
        for (std::size_t i = 0; i < kCells; ++i) {
            v[i] = static_cast<double>((i + static_cast<std::size_t>(k)) % 5);
        }
        dats.push_back(d);
    }

    loop_options o;
    o.part_size = 32;
    o.backend = be;

    std::uniform_int_distribution<int> pick(0, kDats - 1);
    std::uniform_int_distribution<int> kind(0, 2);
    for (int l = 0; l < kLoops; ++l) {
        if (!workers.empty() && l % 4 == 0) {
            op_fence_all();
            hpxlite::init(hpxlite::runtime_config{
                workers[static_cast<std::size_t>(l / 4) % workers.size()]});
        }
        int const r1 = pick(rng);
        int r2 = pick(rng);
        int w = pick(rng);
        while (r2 == r1) r2 = (r2 + 1) % kDats;
        while (w == r1 || w == r2) w = (w + 1) % kDats;
        auto& dr1 = dats[static_cast<std::size_t>(r1)];
        auto& dr2 = dats[static_cast<std::size_t>(r2)];
        auto& dw = dats[static_cast<std::size_t>(w)];
        switch (kind(rng)) {
            case 0:  // direct read-modify-write on cells
                (void)exec::run_loop(
                    o, "direct_mix", cells,
                    [](double const* a, double const* b, double* t) {
                        *t = std::fmod(*t + *a + 2.0 * *b, 1024.0);
                    },
                    op_arg_dat(dr1, -1, OP_ID, 1, "double", OP_READ),
                    op_arg_dat(dr2, -1, OP_ID, 1, "double", OP_READ),
                    op_arg_dat(dw, -1, OP_ID, 1, "double", OP_RW));
                break;
            case 1:  // indirect gather on both slots, INC back
                (void)exec::run_loop(
                    o, "gather_mix", edges,
                    [](double const* a0, double const* a1, double* t0,
                       double* t1) {
                        *t0 += std::fmod(*a0 + 1.0, 32.0);
                        *t1 += std::fmod(*a1 + 2.0, 32.0);
                    },
                    op_arg_dat(dr1, 0, em, 1, "double", OP_READ),
                    op_arg_dat(dr1, 1, em, 1, "double", OP_READ),
                    op_arg_dat(dw, 0, em, 1, "double", OP_INC),
                    op_arg_dat(dw, 1, em, 1, "double", OP_INC));
                break;
            default:  // indirect scatter fed by an indirect read
                (void)exec::run_loop(
                    o, "scatter_mix", edges,
                    [](double const* a, double* t) {
                        *t += std::fmod(*a, 16.0) + 1.0;
                    },
                    op_arg_dat(dr2, 0, em, 1, "double", OP_READ),
                    op_arg_dat(dw, 1, em, 1, "double", OP_INC));
                break;
        }
    }
    if (be == exec::backend_kind::hpx_dataflow) {
        op_fence_all();
    }
    std::vector<std::vector<double>> out;
    for (auto& d : dats) {
        auto v = d.view<double>();
        out.emplace_back(v.begin(), v.end());
    }
    return out;
}

/// Every dat of `got` bitwise equal to the same dat of `ref`.
void expect_dats_bitwise_equal(std::vector<std::vector<double>> const& ref,
                               std::vector<std::vector<double>> const& got) {
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t k = 0; k < ref.size(); ++k) {
        EXPECT_EQ(std::memcmp(got[k].data(), ref[k].data(),
                              ref[k].size() * sizeof(double)),
                  0)
            << "dat " << k << " diverged from seq";
    }
}

/// The randomized indirect DAG on five workers.
class DataflowRandomIndirectDag : public DataflowDifferential {};

TEST_P(DataflowRandomIndirectDag, GatherScatterDagMatchesSeqBitwise) {
    unsigned const seed = GetParam() * 661u + 7u;
    auto const ref = random_indirect_dag(seed, exec::backend_kind::seq);
    hpxlite::init(hpxlite::runtime_config{5});
    expect_dats_bitwise_equal(
        ref, random_indirect_dag(seed, exec::backend_kind::hpx_dataflow));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DataflowRandomIndirectDag,
                         ::testing::Values(3u, 17u, 29u, 53u));

/// Programs whose fenced phases run on pools of different sizes. Every
/// change of size re-creates the global pool, and each dat's first loop
/// on the new pool rebuilds its dependency table at the new worker
/// count while the dat's values carry over.
class DataflowPoolResize : public DataflowDifferential {};

/// The randomized indirect DAG with each phase on a pool size drawn by
/// seed from {1, 2, 4, 8}.
TEST_P(DataflowPoolResize, RandomIndirectDagMatchesSeqBitwise) {
    unsigned const seed = GetParam() * 977u + 3u;
    std::mt19937 rng(GetParam());
    std::uniform_int_distribution<int> shift(0, 3);
    std::vector<std::size_t> workers(7);
    for (auto& w : workers) {
        w = std::size_t{1} << shift(rng);
    }
    expect_dats_bitwise_equal(
        random_indirect_dag(seed, exec::backend_kind::seq),
        random_indirect_dag(seed, exec::backend_kind::hpx_dataflow,
                            workers));
}

/// The airfoil-shaped chain, update's gbl INC included, with iteration
/// i on {1, 2, 4, 8}[i % 4] workers.
TEST_P(DataflowPoolResize, AirfoilShapedChainMatchesSeqBitwise) {
    airfoil_shaped prog(GetParam());
    auto const ref = prog.run(exec::backend_kind::seq, 8);
    auto const got =
        prog.run(exec::backend_kind::hpx_dataflow, 8, {1, 2, 4, 8});
    ASSERT_EQ(got.q.size(), ref.q.size());
    EXPECT_EQ(std::memcmp(got.q.data(), ref.q.data(),
                          ref.q.size() * sizeof(double)),
              0)
        << "state q diverged across pool resizes";
    EXPECT_EQ(std::memcmp(got.res.data(), ref.res.data(),
                          ref.res.size() * sizeof(double)),
              0)
        << "residual diverged across pool resizes";
    EXPECT_EQ(got.rms, ref.rms);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DataflowPoolResize,
                         ::testing::Values(2u, 11u, 23u, 41u, 67u));

/// The record table itself across pool re-creation: one table per dat
/// and pool size, rebuilt at the dat's first loop on a pool of another
/// size and not before.
class DataflowPoolResizeTable : public ::testing::Test {
protected:
    void TearDown() override { hpxlite::finalize(); }

    /// Issue one direct increment of `d` named `name` and wait for it.
    static void bump(op_dat const& d, char const* name) {
        loop_options o;
        o.backend = exec::backend_kind::hpx_dataflow;
        o.part_size = 16;
        exec::run_loop(o, name, d.set(), [](double* x) { *x += 1.0; },
                       op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW))
            .get();
    }
};

/// Re-creating the pool at the size it had keeps the dat's table: the
/// old pool was drained, so its nodes are history like any other.
TEST_F(DataflowPoolResizeTable, SameSizeRecreationKeepsTheTable) {
    hpxlite::init(hpxlite::runtime_config{3});
    auto cells = op_decl_set(300, "rt_cells");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "rt_d");
    bump(d, "before");
    auto const [before, n_before] = d.internal().dep.table();
    ASSERT_EQ(n_before, 3u);

    hpxlite::finalize();
    hpxlite::init(hpxlite::runtime_config{3});
    bump(d, "after");
    auto const [after, n_after] = d.internal().dep.table();
    EXPECT_EQ(after.get(), before.get());
    EXPECT_EQ(n_after, 3u);
    for (double x : d.view<double>()) {
        ASSERT_EQ(x, 2.0);
    }
}

/// A resize leaves the table alone until the dat's next loop, which
/// rebuilds it at the new worker count. The old table's healthy history
/// stays behind: the new records hold only the new loop's sub-nodes.
TEST_F(DataflowPoolResizeTable, ResizeRebuildsTheTableAtTheNewWorkerCount) {
    hpxlite::init(hpxlite::runtime_config{2});
    auto cells = op_decl_set(300, "rt_cells");
    auto d = op_decl_dat_zero<double>(cells, 1, "double", "rt_d");
    bump(d, "before");
    auto const [before, n_before] = d.internal().dep.table();
    ASSERT_EQ(n_before, 2u);

    hpxlite::init(hpxlite::runtime_config{5});
    EXPECT_EQ(d.internal().dep.table().first.get(), before.get());
    bump(d, "after");
    auto const [after, n_after] = d.internal().dep.table();
    EXPECT_NE(after.get(), before.get());
    ASSERT_EQ(n_after, 5u);
    for (std::size_t r = 0; r < n_after; ++r) {
        std::vector<exec::node_ref> nodes;
        after[r].snapshot(nodes);
        EXPECT_FALSE(nodes.empty()) << "record " << r;
        for (auto const& n : nodes) {
            EXPECT_STREQ(n->site_loop(), "after") << "record " << r;
        }
    }
    for (double x : d.view<double>()) {
        ASSERT_EQ(x, 2.0);
    }
}

class DataflowTinySet : public ::testing::Test {
protected:
    void SetUp() override { hpxlite::init(hpxlite::runtime_config{4}); }
    void TearDown() override { hpxlite::finalize(); }
};

/// More partitions than elements: 8 workers, so 8 partitions, over 3
/// cells (and 5 edges) at part_size 1, so most partitions are empty.
/// The plans and the dep records must survive the degenerate bounds
/// through a gather followed by an INC scatter.
TEST_F(DataflowTinySet, MorePartitionsThanElementsMatchesSeqBitwise) {
    hpxlite::init(hpxlite::runtime_config{8});
    auto cells = op_decl_set(3, "tiny_cells");
    auto edges = op_decl_set(5, "tiny_edges");
    std::vector<int> tab{0, 2, 1, 0, 2};
    auto em = op_decl_map(edges, cells, 1, tab, "tiny_map");
    auto cd = op_decl_dat_zero<double>(cells, 1, "double", "tiny_cd");
    auto ed = op_decl_dat_zero<double>(edges, 1, "double", "tiny_ed");
    auto gather = [](double const* c, double* r) { *r += *c + 1.0; };
    auto scatter = [](double const* r, double* c) { *c += *r; };

    auto run = [&](exec::backend_kind be) {
        auto cv = cd.view<double>();
        cv[0] = 5.0;
        cv[1] = 7.0;
        cv[2] = 9.0;
        for (auto& x : ed.view<double>()) {
            x = 0.0;
        }
        loop_options o;
        o.backend = be;
        o.part_size = 1;
        (void)exec::run_loop(o, "tiny_gather", edges, gather,
                             op_arg_dat(cd, 0, em, 1, "double", OP_READ),
                             op_arg_dat(ed, -1, OP_ID, 1, "double", OP_RW));
        auto h = exec::run_loop(o, "tiny_scatter", edges, scatter,
                                op_arg_dat(ed, -1, OP_ID, 1, "double",
                                           OP_READ),
                                op_arg_dat(cd, 0, em, 1, "double", OP_INC));
        h.get();
        op_fence_all();
        return std::array<std::vector<double>, 2>{
            std::vector<double>(ed.view<double>().begin(),
                                ed.view<double>().end()),
            std::vector<double>(cd.view<double>().begin(),
                                cd.view<double>().end())};
    };

    auto const ref = run(exec::backend_kind::seq);
    auto const got = run(exec::backend_kind::hpx_dataflow);
    EXPECT_EQ(std::memcmp(got[0].data(), ref[0].data(),
                          ref[0].size() * sizeof(double)),
              0)
        << "edge dat diverged";
    EXPECT_EQ(std::memcmp(got[1].data(), ref[1].data(),
                          ref[1].size() * sizeof(double)),
              0)
        << "cell dat diverged";
}

/// One partition through the partitioned issue path: on a one-worker
/// pool a loop is its colours chained one sub-node at a time, plus a
/// join.
class DataflowOnePartition : public ::testing::TestWithParam<unsigned> {
protected:
    void SetUp() override { hpxlite::init(hpxlite::runtime_config{1}); }
    void TearDown() override {
        fault::disarm();
        hpxlite::finalize();
    }
};

/// A one-worker pool issues every loop as one partition: the
/// airfoil-shaped chain must match seq bitwise, with every dat's
/// dependency table at granularity 1.
TEST_P(DataflowOnePartition, DefaultOnOneWorkerMatchesSeqBitwise) {
    airfoil_shaped prog(GetParam());
    auto const ref = prog.run(exec::backend_kind::seq, 4);
    auto const got = prog.run(exec::backend_kind::hpx_dataflow, 4);
    ASSERT_EQ(got.q.size(), ref.q.size());
    EXPECT_EQ(std::memcmp(got.q.data(), ref.q.data(),
                          ref.q.size() * sizeof(double)),
              0)
        << "state q diverged on one worker";
    EXPECT_EQ(std::memcmp(got.res.data(), ref.res.data(),
                          ref.res.size() * sizeof(double)),
              0)
        << "residual diverged on one worker";
    EXPECT_EQ(got.rms, ref.rms);
    for (op_dat d : {prog.q, prog.qold, prog.adt, prog.res}) {
        EXPECT_EQ(d.internal().dep.count, 1u) << d.name();
    }
}

/// A kernel fault at a seeded live colour C >= 1 of a one-partition
/// indirect INC loop fails the loop's handle and quarantines the INC
/// target under the failing sub-node's site: partition 0, colour C.
TEST_P(DataflowOnePartition, ColourFaultQuarantinesPartitionZero) {
    constexpr std::size_t kCells = 200;
    constexpr std::size_t kEdges = 600;
    auto cells = op_decl_set(kCells, "op_cells");
    auto edges = op_decl_set(kEdges, "op_edges");
    std::mt19937 rng(GetParam());
    std::uniform_int_distribution<int> cd(0, kCells - 1);
    std::vector<int> tab(2 * kEdges);
    for (auto& v : tab) {
        v = cd(rng);
    }
    auto em = op_decl_map(edges, cells, 2, tab, "op_em");
    auto acc = op_decl_dat_zero<double>(cells, 1, "double", "op_acc");
    std::array<op_arg, 2> const args{
        op_arg_dat(acc, 0, em, 1, "double", OP_INC),
        op_arg_dat(acc, 1, em, 1, "double", OP_INC)};

    loop_options o;
    o.backend = exec::backend_kind::hpx_dataflow;
    o.part_size = 16;
    // The live colours of the plan the loop runs (partition 0 of 1).
    op_plan const& plan =
        plan_get(edges, args, o.part_size);
    std::vector<std::size_t> live;
    for (std::size_t c = 0; c < plan.ncolors; ++c) {
        if (!plan.blocks_of_color(c).empty()) {
            live.push_back(c);
        }
    }
    ASSERT_GE(live.size(), 2u);
    std::size_t const color = live[1 + GetParam() % (live.size() - 1)];

    fault::arm("kernel=scatter@0." + std::to_string(color));
    auto h = exec::run_loop(o, "scatter", edges,
                            [](double* a, double* b) {
                                *a += 1.0;
                                *b += 1.0;
                            },
                            args[0], args[1]);
    EXPECT_THROW(h.get(), fault::injected_fault);
    op_fence(acc);
    ASSERT_TRUE(acc.quarantined());

    loop_options seq;
    seq.backend = exec::backend_kind::seq;
    double sum = 0.0;
    try {
        exec::run_loop(seq, "reader", cells,
                       [](double const* x, double* s) { *s += *x; },
                       op_arg_dat(acc, -1, OP_ID, 1, "double", OP_READ),
                       op_arg_gbl(&sum, 1, "double", OP_INC));
        FAIL() << "read of the failed loop's target must not run";
    } catch (exec::quarantine_error const& e) {
        EXPECT_EQ(e.info().loop, "scatter");
        EXPECT_EQ(e.info().partition, 0u);
        EXPECT_EQ(e.info().color, color);
    }
    acc.clear_quarantine();
}

/// A one-worker pool runs the loop's live colours one sub-node at a
/// time, in ascending colour order, even with the main thread helping
/// the pool while it waits: every element of an indirect INC loop runs
/// exactly once, no two kernel calls overlap, the colour of the
/// elements in visit order never decreases, and the INC target holds
/// the map-derived totals exactly.
TEST_P(DataflowOnePartition, ColoursRunInOrderOneAtATime) {
    constexpr std::size_t kCells = 200;
    constexpr std::size_t kEdges = 600;
    auto cells = op_decl_set(kCells, "oo_cells");
    auto edges = op_decl_set(kEdges, "oo_edges");
    std::mt19937 rng(GetParam());
    std::uniform_int_distribution<int> cd(0, kCells - 1);
    std::vector<int> tab(2 * kEdges);
    for (auto& v : tab) {
        v = cd(rng);
    }
    auto em = op_decl_map(edges, cells, 2, tab, "oo_em");
    std::vector<double> ids(kEdges);
    std::iota(ids.begin(), ids.end(), 0.0);
    auto eid = op_decl_dat<double>(edges, 1, "double", ids, "oo_eid");
    auto acc = op_decl_dat_zero<double>(cells, 1, "double", "oo_acc");
    std::array<op_arg, 3> const args{
        op_arg_dat(eid, -1, OP_ID, 1, "double", OP_READ),
        op_arg_dat(acc, 0, em, 1, "double", OP_INC),
        op_arg_dat(acc, 1, em, 1, "double", OP_INC)};

    loop_options o;
    o.backend = exec::backend_kind::hpx_dataflow;
    o.part_size = 16;
    op_plan const& plan =
        plan_get(edges, args, o.part_size);
    std::vector<std::size_t> color_of(kEdges, plan.ncolors);
    std::size_t live = 0;
    for (std::size_t c = 0; c < plan.ncolors; ++c) {
        auto const blocks = plan.blocks_of_color(c);
        live += blocks.empty() ? 0 : 1;
        for (std::size_t b : blocks) {
            for (std::size_t i = 0; i < plan.nelems[b]; ++i) {
                color_of[plan.offset[b] + i] = c;
            }
        }
    }
    ASSERT_GE(live, 2u);

    std::vector<std::size_t> order(kEdges, kEdges);
    std::atomic<std::size_t> cursor{0};
    std::atomic<int> running{0};
    std::atomic<int> peak{0};
    auto h = exec::run_loop(
        o, "ordered", edges,
        [&](double const* e, double* a, double* b) {
            int const now = running.fetch_add(1) + 1;
            int seen = peak.load();
            while (seen < now && !peak.compare_exchange_weak(seen, now)) {
            }
            std::size_t const k = cursor.fetch_add(1);
            if (k < order.size()) {
                order[k] = static_cast<std::size_t>(*e);
            }
            *a += *e;
            *b += 1.0;
            running.fetch_sub(1);
        },
        args[0], args[1], args[2]);
    h.get();
    op_fence(acc);

    EXPECT_EQ(peak.load(), 1) << "two colour sub-nodes of one partition "
                                 "ran at the same time";
    ASSERT_EQ(cursor.load(), kEdges);
    std::vector<std::size_t> seen(order);
    std::sort(seen.begin(), seen.end());
    for (std::size_t e = 0; e < kEdges; ++e) {
        ASSERT_EQ(seen[e], e) << "an edge ran twice or never";
    }
    for (std::size_t k = 1; k < kEdges; ++k) {
        ASSERT_LE(color_of[order[k - 1]], color_of[order[k]])
            << "edge " << order[k] << " (colour " << color_of[order[k]]
            << ") ran after edge " << order[k - 1] << " (colour "
            << color_of[order[k - 1]] << ")";
    }
    std::vector<double> want(kCells, 0.0);
    for (std::size_t e = 0; e < kEdges; ++e) {
        want[static_cast<std::size_t>(tab[2 * e])] += static_cast<double>(e);
        want[static_cast<std::size_t>(tab[2 * e + 1])] += 1.0;
    }
    auto const got = acc.view<double>();
    EXPECT_EQ(std::memcmp(got.data(), want.data(), kCells * sizeof(double)),
              0);
}

/// A one-partition loop folds its reduction partials into the user's
/// globals once, after its last live colour. Three rounds of an indirect
/// INC loop with gbl INC, MIN and MAX, each shifted by 16 per round so a
/// partial left over from an earlier round shows, are issued back to back
/// without a fence: every round's reductions and the final INC target
/// must match seq bitwise.
TEST_P(DataflowOnePartition, ReductionsCombineAfterTheLastColour) {
    constexpr std::size_t kCells = 200;
    constexpr std::size_t kEdges = 600;
    constexpr int kRounds = 3;
    auto cells = op_decl_set(kCells, "or_cells");
    auto edges = op_decl_set(kEdges, "or_edges");
    std::mt19937 rng(GetParam());
    std::uniform_int_distribution<int> cd(0, kCells - 1);
    std::vector<int> tab(2 * kEdges);
    for (auto& v : tab) {
        v = cd(rng);
    }
    auto em = op_decl_map(edges, cells, 2, tab, "or_em");
    std::uniform_int_distribution<int> vd(1, 9);
    std::vector<double> w_init(kEdges);
    for (auto& v : w_init) {
        v = static_cast<double>(vd(rng));
    }
    auto w = op_decl_dat<double>(edges, 1, "double", w_init, "or_w");
    auto acc = op_decl_dat_zero<double>(cells, 1, "double", "or_acc");

    struct reduced {
        double sum = 0.0;
        double mn = 1e9;
        double mx = -1e9;
    };
    auto run = [&](exec::backend_kind be,
                   std::array<reduced, kRounds>* out) {
        for (auto& x : acc.view<double>()) {
            x = 0.0;
        }
        loop_options o;
        o.backend = be;
        o.part_size = 16;
        for (int r = 0; r < kRounds; ++r) {
            auto& red = (*out)[static_cast<std::size_t>(r)];
            red = reduced{};
            double const shift = 16.0 * r;
            (void)exec::run_loop(
                o, "reduce_inc", edges,
                [shift](double const* wv, double* a, double* b, double* s,
                        double* mn, double* mx) {
                    double const v = *wv + shift;
                    *a += v;
                    *b += 1.0;
                    *s += v;
                    *mn = std::min(*mn, v);
                    *mx = std::max(*mx, v);
                },
                op_arg_dat(w, -1, OP_ID, 1, "double", OP_READ),
                op_arg_dat(acc, 0, em, 1, "double", OP_INC),
                op_arg_dat(acc, 1, em, 1, "double", OP_INC),
                op_arg_gbl(&red.sum, 1, "double", OP_INC),
                op_arg_gbl(&red.mn, 1, "double", OP_MIN),
                op_arg_gbl(&red.mx, 1, "double", OP_MAX));
        }
        op_fence_all();
        auto const v = acc.view<double>();
        return std::vector<double>(v.begin(), v.end());
    };

    std::array<reduced, kRounds> ref{};
    std::array<reduced, kRounds> got{};
    auto const ref_acc = run(exec::backend_kind::seq, &ref);
    auto const got_acc = run(exec::backend_kind::hpx_dataflow, &got);
    for (int r = 0; r < kRounds; ++r) {
        auto const i = static_cast<std::size_t>(r);
        EXPECT_EQ(got[i].sum, ref[i].sum) << "round " << r;
        EXPECT_EQ(got[i].mn, ref[i].mn) << "round " << r;
        EXPECT_EQ(got[i].mx, ref[i].mx) << "round " << r;
    }
    EXPECT_EQ(std::memcmp(got_acc.data(), ref_acc.data(),
                          kCells * sizeof(double)),
              0)
        << "INC target diverged from seq";
}

INSTANTIATE_TEST_SUITE_P(Seeds, DataflowOnePartition,
                         ::testing::Values(2u, 11u, 23u, 41u, 67u));

}  // namespace
