// Differential tests of the online auto-tuner (op2/tune.hpp): a loop
// issued with partitions = op2::auto_tune must produce bitwise the
// same bytes as the same program pinned to any fixed configuration —
// the tuner only picks among schedules the differential suites already
// prove equivalent, so a divergence is a tuner bug (a probe mutating
// state, a mid-exploration config leaking across loops), not rounding.
// Exercised on the airfoil-shaped chain against seq and the
// pool-partition run, and on randomized indirect DAGs against seq
// while the tuner is still exploring. The
// randomized DAG doubles as the TSan workout: many concurrent issues
// consult choose() and report() on live sites.
//
// Bit-identity holds for the usual reason: every value is an integer
// held in a double, far below 2^53.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <hpxlite/runtime.hpp>
#include <op2/op2.hpp>

using namespace op2;

namespace {

/// The five-loop airfoil-shaped time-march of the dataflow
/// differential, parameterised on the backend and the partition policy
/// (a fixed count, or op2::auto_tune).
struct airfoil_tuned {
    static constexpr std::size_t kCells = 480;
    static constexpr std::size_t kEdges = 1400;

    op_set cells, edges;
    op_map em;
    op_dat q, qold, adt, res;
    std::vector<double> q_init;

    explicit airfoil_tuned(unsigned seed) {
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

    outcome run(int iters, std::size_t partitions,
                exec::backend_kind be = exec::backend_kind::hpx_dataflow) {
        auto qv = q.view<double>();
        std::copy(q_init.begin(), q_init.end(), qv.begin());
        for (auto& x : qold.view<double>()) x = 0.0;
        for (auto& x : adt.view<double>()) x = 0.0;
        for (auto& x : res.view<double>()) x = 0.0;

        loop_options o;
        o.part_size = 48;
        o.backend = be;
        o.partitions = partitions;

        outcome out;
        std::vector<double> rms(static_cast<std::size_t>(iters), 0.0);
        for (int it = 0; it < iters; ++it) {
            (void)exec::run_loop(o, "save_soln", cells,
                                 [](double const* qq, double* qo) {
                                     qo[0] = qq[0];
                                     qo[1] = qq[1];
                                 },
                                 op_arg_dat(q, -1, OP_ID, 2, "double",
                                            OP_READ),
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
        op_fence_all();
        out.rms = rms.back();
        auto qv2 = q.view<double>();
        out.q.assign(qv2.begin(), qv2.end());
        auto rv = res.view<double>();
        out.res.assign(rv.begin(), rv.end());
        return out;
    }
};

class TuneDifferential : public ::testing::TestWithParam<unsigned> {
protected:
    void SetUp() override {
        hpxlite::init(hpxlite::runtime_config{4});
        tune::clear();
    }
    void TearDown() override {
        tune::clear();
        hpxlite::finalize();
    }
};

/// The tuned airfoil chain — exploration, then exploitation — against
/// seq and against partitions = pool size (the untuned default). 10
/// iterations x 4 sites drive each site through its full 7-entry
/// ladder (pool = 4) into exploitation.
TEST_P(TuneDifferential, AirfoilChainTunedMatchesFixedOracles) {
    airfoil_tuned prog(GetParam());
    constexpr int kIters = 10;

    auto ref = prog.run(kIters, 0, exec::backend_kind::seq);
    auto pooled = prog.run(kIters, 4);
    ASSERT_EQ(std::memcmp(ref.q.data(), pooled.q.data(),
                          ref.q.size() * sizeof(double)),
              0)
        << "fixed oracles disagree: partitioning itself is broken";

    auto tuned = prog.run(kIters, op2::auto_tune);
    EXPECT_EQ(std::memcmp(tuned.q.data(), ref.q.data(),
                          ref.q.size() * sizeof(double)),
              0)
        << "tuned state q diverged from the oracles";
    EXPECT_EQ(std::memcmp(tuned.res.data(), ref.res.data(),
                          ref.res.size() * sizeof(double)),
              0)
        << "tuned residual diverged from the oracles";
    EXPECT_EQ(tuned.rms, ref.rms);

    // Trace: every site finished its ladder (each config issued at
    // least once — the exactly-once exploration discipline is pinned
    // in test_tune.cpp) and settled into exploitation.
    for (auto const& [nm, size] :
         {std::pair<char const*, std::size_t>{"save_soln",
                                              airfoil_tuned::kCells},
          {"adt_calc", airfoil_tuned::kCells},
          {"res_calc", airfoil_tuned::kEdges},
          {"update", airfoil_tuned::kCells}}) {
        auto const st = tune::stats(nm, size, 4);
        EXPECT_FALSE(st.exploring) << nm;
        std::uint64_t total = 0;
        for (std::size_t c = 0; c < st.issues.size(); ++c) {
            EXPECT_GE(st.issues[c], 1u) << nm << " config " << c;
            total += st.issues[c];
        }
        EXPECT_EQ(total, static_cast<std::uint64_t>(kIters)) << nm;
    }
}

/// Randomized indirect DAGs replayed bitwise against seq while the
/// tuner explores: distinct loop names per slot give the tuner many
/// concurrent sites, so issues mid-ladder (including one-partition and
/// 2x-oversubscribed configs, any placement) interleave in one epoch
/// stream. This is the suite the TSan job leans on for the tuner's
/// lock-free report path.
TEST_P(TuneDifferential, RandomIndirectDagTunedMatchesSeqBitwise) {
    constexpr std::size_t kCells = 192;
    constexpr std::size_t kEdges = 480;
    constexpr int kDats = 4;
    constexpr int kLoops = 28;

    auto run = [&](exec::backend_kind be, std::size_t partitions,
                   std::vector<std::vector<double>>* snapshot) {
        auto cells = op_decl_set(kCells, "cells");
        auto edges = op_decl_set(kEdges, "edges");
        std::mt19937 rng(GetParam() * 977u + 3u);
        std::uniform_int_distribution<int> cd(0,
                                              static_cast<int>(kCells) - 1);
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
                v[i] = static_cast<double>(
                    (i + static_cast<std::size_t>(k)) % 5);
            }
            dats.push_back(d);
        }

        loop_options o;
        o.part_size = 32;
        o.backend = be;
        o.partitions = partitions;

        std::uniform_int_distribution<int> pick(0, kDats - 1);
        std::uniform_int_distribution<int> kind(0, 2);
        for (int l = 0; l < kLoops; ++l) {
            int const r1 = pick(rng);
            int r2 = pick(rng);
            int w = pick(rng);
            while (r2 == r1) r2 = (r2 + 1) % kDats;
            while (w == r1 || w == r2) w = (w + 1) % kDats;
            auto& dr1 = dats[static_cast<std::size_t>(r1)];
            auto& dr2 = dats[static_cast<std::size_t>(r2)];
            auto& dw = dats[static_cast<std::size_t>(w)];
            // Per-slot loop names: every slot is its own tuner site, so
            // one program exercises many ladders at different depths.
            // Literals, because an issued node keeps the name pointer
            // until it retires, long after this iteration's locals die.
            static char const* const kNames[] = {"dag0", "dag1", "dag2",
                                                 "dag3", "dag4", "dag5",
                                                 "dag6"};
            char const* const nm = kNames[l % 7];
            switch (kind(rng)) {
                case 0:
                    (void)exec::run_loop(
                        o, nm, cells,
                        [](double const* a, double const* b, double* t) {
                            *t = std::fmod(*t + *a + 2.0 * *b, 1024.0);
                        },
                        op_arg_dat(dr1, -1, OP_ID, 1, "double", OP_READ),
                        op_arg_dat(dr2, -1, OP_ID, 1, "double", OP_READ),
                        op_arg_dat(dw, -1, OP_ID, 1, "double", OP_RW));
                    break;
                case 1:
                    (void)exec::run_loop(
                        o, nm, edges,
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
                default:
                    (void)exec::run_loop(
                        o, nm, edges,
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
        snapshot->clear();
        for (auto& d : dats) {
            auto v = d.view<double>();
            snapshot->emplace_back(v.begin(), v.end());
        }
    };

    std::vector<std::vector<double>> ref, got;
    run(exec::backend_kind::seq, 0, &ref);
    // Replay tuned twice: the first pass is pure exploration for most
    // sites, the second mixes exploitation with the ladder's tail —
    // both must be invisible in the bytes.
    for (int pass = 0; pass < 2; ++pass) {
        run(exec::backend_kind::hpx_dataflow, op2::auto_tune, &got);
        ASSERT_EQ(ref.size(), got.size());
        for (std::size_t k = 0; k < ref.size(); ++k) {
            EXPECT_EQ(std::memcmp(got[k].data(), ref[k].data(),
                                  ref[k].size() * sizeof(double)),
                      0)
                << "dat " << k << " diverged under the tuned DAG, pass "
                << pass;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TuneDifferential,
                         ::testing::Values(2u, 11u, 29u));

}  // namespace
