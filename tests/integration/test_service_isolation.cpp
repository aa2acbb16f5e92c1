// Per-context isolation of the multi-tenant service layer
// (op2/service.hpp), asserted the only way that matters: N jobs run
// concurrently on the shared pool must produce bitwise-identical
// results to the same N jobs run one at a time. Same-shaped meshes in
// every job maximise the collision surface — identical set sizes, map
// tables, loop names and plan shapes — so a shared plan-cache entry,
// a cross-job dep record, a mixed reduction partial (the per-context
// combine lock) or a leaked quarantine span shows up as an exact
// divergence. All values are integers held in doubles, so reduction
// fold order cannot hide a defect inside rounding. Under
// -DOP2HPX_TSAN=ON the same programs double as the race check on the
// contextualised runtime.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <hpxlite/runtime.hpp>
#include <op2/op2.hpp>

using namespace op2;

namespace {

struct mesh_result {
    std::vector<double> q;
    std::vector<double> res;
    double rms = 0.0;
};

/// One tenant's program: a mini airfoil-shaped chain (save/adt/res/
/// update shapes, indirect INC through a random edges->cells map, one
/// global reduction per iteration) over its own freshly declared mesh.
/// Deterministic in `seed`; every job uses the SAME set sizes and loop
/// names, so only the context keeps their runtime state apart. With
/// `hold`, the job hands its sets out, keeping them (and their cached
/// plans) alive after it retires.
/// Each mesh job's est_bytes: its six doubles per cell.
constexpr std::size_t kJobBytes = 300 * 6 * sizeof(double);

service::job_desc make_mesh_job(std::string name, unsigned seed,
                                mesh_result* out,
                                std::vector<op_set>* hold = nullptr) {
    service::job_desc d;
    d.name = std::move(name);
    d.est_bytes = kJobBytes;
    d.program = [seed, out, hold] {
        constexpr std::size_t kCells = 300;
        constexpr std::size_t kEdges = 900;
        constexpr int kIters = 3;

        auto cells = op_decl_set(kCells, "cells");
        auto edges = op_decl_set(kEdges, "edges");
        std::mt19937 rng(seed);
        std::uniform_int_distribution<int> cd(0, kCells - 1);
        std::vector<int> tab(2 * kEdges);
        for (auto& v : tab) {
            v = cd(rng);
        }
        auto em = op_decl_map(edges, cells, 2, tab, "em");

        std::uniform_int_distribution<int> vd(1, 5);
        std::vector<double> q_init(2 * kCells);
        for (auto& v : q_init) {
            v = static_cast<double>(vd(rng));
        }
        auto q = op_decl_dat<double>(cells, 2, "double", q_init, "q");
        auto qold = op_decl_dat_zero<double>(cells, 2, "double", "qold");
        auto adt = op_decl_dat_zero<double>(cells, 1, "double", "adt");
        auto res = op_decl_dat_zero<double>(cells, 2, "double", "res");

        loop_options o;
        o.part_size = 48;
        o.backend = exec::backend_kind::hpx_dataflow;

        std::vector<double> rms(kIters, 0.0);
        for (int it = 0; it < kIters; ++it) {
            (void)exec::run_loop(
                o, "save_soln", cells,
                [](double const* qq, double* qo) {
                    qo[0] = qq[0];
                    qo[1] = qq[1];
                },
                op_arg_dat(q, -1, OP_ID, 2, "double", OP_READ),
                op_arg_dat(qold, -1, OP_ID, 2, "double", OP_WRITE));
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
        op_fence(q);
        op_fence(res);

        if (hold != nullptr) {
            *hold = {cells, edges};
        }
        out->rms = rms.back();
        auto qv = q.view<double>();
        out->q.assign(qv.begin(), qv.end());
        auto rv = res.view<double>();
        out->res.assign(rv.begin(), rv.end());
    };
    return d;
}

constexpr unsigned kSeeds[] = {3u, 17u, 29u, 53u};
constexpr std::size_t kJobs = std::size(kSeeds);

/// Run the fleet under the given admission limits, submitting job
/// `order[i]` i-th; results stay indexed by job.
std::vector<mesh_result> run_fleet(std::size_t max_in_flight,
                                   std::vector<std::size_t> const& order,
                                   std::size_t max_in_flight_bytes = 0) {
    service::scheduler_options so;
    so.max_in_flight_jobs = max_in_flight;
    so.max_in_flight_bytes = max_in_flight_bytes;
    service::scheduler sched(so);
    std::vector<mesh_result> outs(kJobs);
    std::vector<service::job> jobs;
    for (std::size_t k : order) {
        jobs.push_back(sched.submit(make_mesh_job(
            "tenant" + std::to_string(k), kSeeds[k], &outs[k])));
    }
    sched.drain();
    for (auto const& j : jobs) {
        EXPECT_EQ(j.state(), service::job_state::completed) << j.name();
    }
    return outs;
}

std::vector<std::size_t> submission_order() {
    std::vector<std::size_t> given(kJobs);
    std::iota(given.begin(), given.end(), std::size_t{0});
    return given;
}

/// Every job of `got` equals its sequential run in `seq`, bitwise.
void expect_bitwise_equal(std::vector<mesh_result> const& got,
                          std::vector<mesh_result> const& seq,
                          std::string const& label) {
    for (std::size_t k = 0; k < kJobs; ++k) {
        ASSERT_EQ(got[k].q.size(), seq[k].q.size());
        EXPECT_EQ(std::memcmp(got[k].q.data(), seq[k].q.data(),
                              seq[k].q.size() * sizeof(double)),
                  0)
            << "job " << k << " state q diverged under concurrency ("
            << label << ")";
        EXPECT_EQ(std::memcmp(got[k].res.data(), seq[k].res.data(),
                              seq[k].res.size() * sizeof(double)),
                  0)
            << "job " << k << " residual diverged under concurrency ("
            << label << ")";
        EXPECT_EQ(got[k].rms, seq[k].rms)
            << "job " << k << " reduction diverged under concurrency ("
            << label << ")";
    }
}

class ServiceIsolation : public ::testing::Test {
protected:
    void SetUp() override { hpxlite::init(hpxlite::runtime_config{4}); }
    void TearDown() override { hpxlite::finalize(); }
};

/// The headline differential: N concurrent == N sequential, bitwise,
/// per job — in three submission orders (as given, reversed, rotated by
/// one), so jobs are admitted and overlap in different orders; the
/// order changes admission, never results.
TEST_F(ServiceIsolation, ConcurrentJobsMatchSequentialBitwise) {
    std::vector<std::size_t> const given = submission_order();
    std::vector<std::size_t> const reversed(given.rbegin(), given.rend());
    std::vector<std::size_t> rotated(given.begin() + 1, given.end());
    rotated.push_back(given.front());

    auto const seq = run_fleet(1, given);
    for (auto const& [label, order] :
         {std::pair{"given", given}, std::pair{"reversed", reversed},
          std::pair{"rotated", rotated}}) {
        // 0 = pool-size in flight
        expect_bitwise_equal(run_fleet(0, order), seq,
                             std::string(label) + " order");
    }
}

/// The byte budget is the other admission limit: at two jobs' estimates
/// it admits the fleet two at a time, in submission order. Like the job
/// limit, it changes overlap, never results.
TEST_F(ServiceIsolation, ByteBudgetedFleetMatchesSequentialBitwise) {
    std::vector<std::size_t> const given = submission_order();
    auto const seq = run_fleet(1, given);
    expect_bitwise_equal(run_fleet(0, given, 2 * kJobBytes), seq,
                         "two jobs' byte budget");
}

/// Plan-cache namespacing: with purging off, concurrent same-shaped
/// jobs each populate their own namespace; purging one context's plans
/// leaves the others' untouched. The jobs' sets are held while counting:
/// a set's plans go with its last handle.
TEST_F(ServiceIsolation, JobPlanNamespacesAreDisjoint) {
    std::size_t const baseline = plan_cache_size();
    service::scheduler_options so;
    so.purge_plans = false;
    service::scheduler sched(so);
    std::vector<mesh_result> outs(kJobs);
    std::vector<std::vector<op_set>> held(kJobs);
    std::vector<service::job> jobs;
    for (std::size_t k = 0; k < kJobs; ++k) {
        jobs.push_back(sched.submit(make_mesh_job(
            "tenant" + std::to_string(k), kSeeds[k], &outs[k], &held[k])));
    }
    sched.drain();

    std::size_t per_job = 0;
    for (auto const& j : jobs) {
        std::size_t const n = plan_cache_size(j.context()->id());
        EXPECT_GT(n, 0u) << j.name() << " cached no plans";
        if (per_job == 0) {
            per_job = n;
        }
        EXPECT_EQ(n, per_job)
            << "identically shaped jobs cached different plan counts";
    }
    EXPECT_EQ(plan_cache_size(), baseline + kJobs * per_job)
        << "same-shaped jobs shared (or double-counted) plan entries";

    plan_cache_purge(jobs[0].context()->id());
    EXPECT_EQ(plan_cache_size(jobs[0].context()->id()), 0u);
    for (std::size_t k = 1; k < kJobs; ++k) {
        EXPECT_EQ(plan_cache_size(jobs[k].context()->id()), per_job)
            << "purging job 0 touched job " << k << "'s plans";
    }
    for (std::size_t k = 1; k < kJobs; ++k) {
        plan_cache_purge(jobs[k].context()->id());
    }
    EXPECT_EQ(plan_cache_size(), baseline);
}

/// Quarantine isolation: a job whose kernel dies poisons ITS dats and
/// retires failed; a healthy job running concurrently completes with
/// bitwise-correct results, its issue path never even scanning (the
/// poison gate is per-context).
TEST_F(ServiceIsolation, JobQuarantineDoesNotCrossContexts) {
    // Reference output of the healthy program, run alone.
    mesh_result ref;
    {
        service::scheduler sched;
        auto j = sched.submit(make_mesh_job("ref", 7u, &ref));
        sched.drain();
        ASSERT_EQ(j.state(), service::job_state::completed);
    }

    // Dats of the faulty job outlive it (held here) so the poison is
    // still observable at retirement.
    op_set set;
    op_dat x;
    service::scheduler sched;

    service::job_desc bad;
    bad.name = "faulty";
    bad.program = [&set, &x] {
        set = op_decl_set(256, "elems");
        x = op_decl_dat_zero<double>(set, 1, "double", "x");
        loop_options o;
        o.backend = exec::backend_kind::hpx_dataflow;
        (void)exec::run_loop(
            o, "dies", set,
            [](double* v) {
                *v += 1.0;
                throw std::runtime_error("injected kernel failure");
            },
            op_arg_dat(x, -1, OP_ID, 1, "double", OP_RW));
        // No fence here: retirement fences and then detects the poison.
    };
    auto jb = sched.submit(std::move(bad));

    mesh_result got;
    auto jg = sched.submit(make_mesh_job("healthy", 7u, &got));
    sched.drain();

    EXPECT_EQ(jb.state(), service::job_state::failed)
        << "kernel failure did not fail the owning job";
    EXPECT_TRUE(jb.failed());
    EXPECT_EQ(jg.state(), service::job_state::completed)
        << "one tenant's fault leaked into another";
    ASSERT_EQ(got.q.size(), ref.q.size());
    EXPECT_EQ(std::memcmp(got.q.data(), ref.q.data(),
                          ref.q.size() * sizeof(double)),
              0)
        << "healthy job's state diverged beside a quarantined job";
    EXPECT_EQ(got.rms, ref.rms);

    // The poison lives in the faulty job's context only; clearing it is
    // the tenant's own recovery path, untouched by the service.
    EXPECT_GT(x.internal().dep.poison_count(), 0u);
    x.clear_quarantine();
    EXPECT_EQ(x.internal().dep.poison_count(), 0u);
}

}  // namespace
