// Unit tests of the multi-tenant service layer (op2/service.hpp): the
// scheduler's submission-order admission control, per-job metrics,
// failure reporting, retirement fencing and plan-cache namespacing. The heavyweight
// concurrent-vs-sequential differential lives in
// tests/integration/test_service_isolation.cpp.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <hpxlite/runtime.hpp>
#include <op2/op2.hpp>

using namespace op2;

namespace {

class ServiceTest : public ::testing::Test {
protected:
    void SetUp() override { hpxlite::init(hpxlite::runtime_config{4}); }
    void TearDown() override { hpxlite::finalize(); }
};

/// A retired job's runtime_context dies with its last handle: a
/// dataflow loop's group, parked for reuse after the loop ran, must not
/// keep the context of the job that issued it.
TEST_F(ServiceTest, RetiredJobReleasesItsContext) {
    std::weak_ptr<runtime_context> ctx;
    {
        service::scheduler sched;
        service::job_desc d;
        d.name = "retiring";
        d.program = [] {
            auto set = op_decl_set(256, "elems");
            auto x = op_decl_dat_zero<double>(set, 1, "double", "x");
            loop_options o;
            o.backend = exec::backend_kind::hpx_dataflow;
            double sum = 0.0;
            exec::run_loop(o, "retiring_sum", set,
                           [](double const* v, double* s) { *s += *v; },
                           op_arg_dat(x, -1, OP_ID, 1, "double", OP_READ),
                           op_arg_gbl(&sum, 1, "double", OP_INC))
                .get();
        };
        auto const j = sched.submit(std::move(d));
        sched.drain();
        ASSERT_EQ(j.state(), service::job_state::completed);
        ctx = j.context();
    }
    hpxlite::finalize();
    EXPECT_TRUE(ctx.expired())
        << "the retired job's context is still held (use count "
        << ctx.use_count() << ")";
}

TEST_F(ServiceTest, JobsRunAndReportMetrics) {
    service::scheduler sched;
    std::vector<double> sums(3, 0.0);
    std::vector<service::job> jobs;
    for (int k = 0; k < 3; ++k) {
        service::job_desc d;
        d.name = "job" + std::to_string(k);
        d.program = [k, &sums] {
            auto set = op_decl_set(256, "elems");
            auto x = op_decl_dat_zero<double>(set, 1, "double", "x");
            loop_options o;
            o.backend = exec::backend_kind::hpx_dataflow;
            for (int it = 0; it < 3; ++it) {
                (void)exec::run_loop(
                    o, "bump", set, [](double* v) { *v += 1.0; },
                    op_arg_dat(x, -1, OP_ID, 1, "double", OP_RW));
            }
            double sum = 0.0;
            (void)exec::run_loop(
                o, "sum", set,
                [](double const* v, double* s) { *s += *v; },
                op_arg_dat(x, -1, OP_ID, 1, "double", OP_READ),
                op_arg_gbl(&sum, 1, "double", OP_INC));
            op_fence_all();
            sums[static_cast<std::size_t>(k)] = sum;
        };
        jobs.push_back(sched.submit(std::move(d)));
    }
    sched.drain();

    for (int k = 0; k < 3; ++k) {
        auto const& j = jobs[static_cast<std::size_t>(k)];
        EXPECT_EQ(j.state(), service::job_state::completed) << j.name();
        EXPECT_FALSE(j.failed());
        EXPECT_EQ(sums[static_cast<std::size_t>(k)], 256.0 * 3.0);
        auto const m = j.metrics();
        EXPECT_EQ(m.loops_issued, 4u) << j.name();
        EXPECT_GE(m.latency_s, m.run_s);
        EXPECT_NE(j.context()->id(), 0u);
    }
    // Two jobs never share a context.
    EXPECT_NE(jobs[0].context()->id(), jobs[1].context()->id());

    auto const sm = sched.metrics();
    EXPECT_EQ(sm.submitted, 3u);
    EXPECT_EQ(sm.completed, 3u);
    EXPECT_EQ(sm.failed, 0u);
    EXPECT_EQ(sm.loops_issued, 12u);
    EXPECT_GT(sm.throughput_jobs_s, 0.0);
    EXPECT_GE(sm.p99_latency_s, sm.p95_latency_s);
}

TEST_F(ServiceTest, JobAdmissionRespectsInFlightLimit) {
    service::scheduler_options so;
    so.max_in_flight_jobs = 1;
    service::scheduler sched(so);

    std::atomic<int> running{0};
    std::atomic<int> peak{0};
    std::mutex order_mtx;
    std::vector<int> started;
    for (int k = 0; k < 6; ++k) {
        service::job_desc d;
        d.name = "serial" + std::to_string(k);
        d.program = [&, k] {
            int const now = running.fetch_add(1) + 1;
            int prev = peak.load();
            while (prev < now && !peak.compare_exchange_weak(prev, now)) {
            }
            {
                std::lock_guard<std::mutex> lk(order_mtx);
                started.push_back(k);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            running.fetch_sub(1);
        };
        (void)sched.submit(std::move(d));
    }
    sched.drain();
    EXPECT_EQ(peak.load(), 1) << "admission let two jobs overlap";
    EXPECT_EQ(sched.metrics().completed, 6u);
    EXPECT_EQ(started, (std::vector<int>{0, 1, 2, 3, 4, 5}))
        << "jobs must start in submission order";
}

TEST_F(ServiceTest, JobAdmissionRespectsByteBudget) {
    service::scheduler_options so;
    so.max_in_flight_bytes = 100;
    service::scheduler sched(so);

    std::atomic<int> running{0};
    std::atomic<int> peak{0};
    auto body = [&] {
        int const now = running.fetch_add(1) + 1;
        int prev = peak.load();
        while (prev < now && !peak.compare_exchange_weak(prev, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        running.fetch_sub(1);
    };
    for (int k = 0; k < 4; ++k) {
        service::job_desc d;
        d.name = "fat" + std::to_string(k);
        d.est_bytes = 60;  // any two together blow the 100-byte budget
        d.program = body;
        (void)sched.submit(std::move(d));
    }
    // Bigger than the whole budget: must still run (alone), not starve.
    service::job_desc huge;
    huge.name = "oversized";
    huge.est_bytes = 1000;
    huge.program = body;
    (void)sched.submit(std::move(huge));

    sched.drain();
    EXPECT_EQ(peak.load(), 1) << "byte budget admitted overlapping jobs";
    EXPECT_EQ(sched.metrics().completed, 5u);
}

/// A job that blocks until `release` is set (a slot holder).
service::job_desc holder(std::string name, std::size_t est_bytes,
                         std::atomic<bool> const& release) {
    service::job_desc d;
    d.name = std::move(name);
    d.est_bytes = est_bytes;
    d.program = [&release] {
        while (!release.load(std::memory_order_acquire)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    };
    return d;
}

service::job_desc noop(std::string name, std::size_t est_bytes = 0) {
    service::job_desc d;
    d.name = std::move(name);
    d.est_bytes = est_bytes;
    d.program = [] {};
    return d;
}

TEST_F(ServiceTest, QueuedJobWaitsUntilASlotFrees) {
    service::scheduler_options so;
    so.max_in_flight_jobs = 1;
    service::scheduler sched(so);

    std::atomic<bool> release{false};
    auto jh = sched.submit(holder("holder", 0, release));
    auto jq = sched.submit(noop("queued"));
    // submit() admits synchronously, so both states are settled here.
    EXPECT_EQ(jh.state(), service::job_state::running);
    EXPECT_EQ(jq.state(), service::job_state::waiting);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(jq.state(), service::job_state::waiting)
        << "admitted past the in-flight limit";

    release.store(true, std::memory_order_release);
    jq.wait();
    EXPECT_EQ(jq.state(), service::job_state::completed);
    auto const m = jq.metrics();
    EXPECT_GE(m.wait_s, 0.020) << "wait_s must cover the time spent queued";
    EXPECT_GE(m.latency_s, m.wait_s);
    EXPECT_GE(m.latency_s, m.run_s);
    sched.drain();
    EXPECT_EQ(sched.metrics().completed, 2u);
}

TEST_F(ServiceTest, HeadOfLineJobIsNeverOvertakenBySmallerOnes) {
    service::scheduler_options so;
    so.max_in_flight_bytes = 100;
    service::scheduler sched(so);

    std::atomic<bool> release{false};
    auto jh = sched.submit(holder("holder", 60, release));
    auto jhead = sched.submit(noop("head", 60));  // 120 > 100: must wait
    auto jsmall = sched.submit(noop("small", 10));  // 70 would fit
    EXPECT_EQ(jh.state(), service::job_state::running);
    EXPECT_EQ(jhead.state(), service::job_state::waiting);
    EXPECT_EQ(jsmall.state(), service::job_state::waiting)
        << "a smaller job overtook the queue head";

    release.store(true, std::memory_order_release);
    sched.drain();
    EXPECT_EQ(jhead.state(), service::job_state::completed);
    EXPECT_EQ(jsmall.state(), service::job_state::completed);
    EXPECT_EQ(sched.metrics().completed, 3u);
}

TEST_F(ServiceTest, OversizedJobRunsOnlyWithTheProcessToItself) {
    service::scheduler_options so;
    so.max_in_flight_bytes = 100;
    service::scheduler sched(so);

    std::atomic<bool> release{false};
    auto jh = sched.submit(holder("holder", 10, release));
    service::job behind;
    service::job_state behind_state_during = service::job_state::completed;
    service::job_desc big;
    big.name = "oversized";
    big.est_bytes = 1000;
    big.program = [&] { behind_state_during = behind.state(); };
    auto jbig = sched.submit(std::move(big));
    behind = sched.submit(noop("behind", 10));
    EXPECT_EQ(jbig.state(), service::job_state::waiting)
        << "an oversized job was admitted beside another";
    EXPECT_EQ(behind.state(), service::job_state::waiting);

    release.store(true, std::memory_order_release);
    sched.drain();
    EXPECT_EQ(jbig.state(), service::job_state::completed);
    EXPECT_EQ(behind_state_during, service::job_state::waiting)
        << "a job was admitted beside the oversized one";
    EXPECT_EQ(behind.state(), service::job_state::completed);
}

TEST_F(ServiceTest, FailedJobReleasesItsSlotAndBytes) {
    service::scheduler_options so;
    so.max_in_flight_jobs = 2;
    so.max_in_flight_bytes = 100;
    service::scheduler sched(so);
    service::job_desc bad;
    bad.name = "throws";
    bad.est_bytes = 60;
    bad.program = [] { throw std::runtime_error("tenant bug"); };
    auto jb = sched.submit(std::move(bad));
    sched.drain();
    ASSERT_TRUE(jb.failed());

    // These two fit the limits together only if the failed job gave
    // back both its slot and its 60 bytes.
    std::atomic<bool> release{false};
    auto jh = sched.submit(holder("holder", 60, release));
    auto js = sched.submit(noop("small", 40));
    EXPECT_EQ(jh.state(), service::job_state::running);
    EXPECT_NE(js.state(), service::job_state::waiting)
        << "the failed job still holds admission capacity";
    release.store(true, std::memory_order_release);
    sched.drain();
    EXPECT_EQ(sched.metrics().failed, 1u);
    EXPECT_EQ(sched.metrics().completed, 2u);
}

TEST_F(ServiceTest, ProgramRunsUnderItsJobsContext) {
    service::scheduler sched;
    std::uint64_t seen = 0;
    service::job_desc d;
    d.name = "ctx";
    d.program = [&seen] { seen = current_context()->id(); };
    auto j = sched.submit(std::move(d));
    j.wait();
    EXPECT_EQ(seen, j.context()->id());
    EXPECT_NE(seen, runtime_context::default_context()->id());
    EXPECT_EQ(current_context()->id(),
              runtime_context::default_context()->id())
        << "submitting must not change the caller's context";
}

TEST_F(ServiceTest, SubmitWithoutProgramThrows) {
    service::scheduler sched;
    service::job_desc d;
    d.name = "empty";
    EXPECT_THROW((void)sched.submit(std::move(d)), std::invalid_argument);
    EXPECT_EQ(sched.metrics().submitted, 0u)
        << "a rejected job must not be counted";
    // The scheduler stays usable.
    auto j = sched.submit(noop("after"));
    j.wait();
    EXPECT_EQ(j.state(), service::job_state::completed);
}

TEST_F(ServiceTest, DestructorDrainsQueuedJobs) {
    std::atomic<int> ran{0};
    std::vector<service::job> jobs;
    {
        service::scheduler_options so;
        so.max_in_flight_jobs = 1;
        service::scheduler sched(so);
        for (int k = 0; k < 4; ++k) {
            service::job_desc d;
            d.name = "queued" + std::to_string(k);
            d.program = [&ran] {
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
                ran.fetch_add(1);
            };
            jobs.push_back(sched.submit(std::move(d)));
        }
    }
    EXPECT_EQ(ran.load(), 4);
    for (auto const& j : jobs) {
        EXPECT_EQ(j.state(), service::job_state::completed) << j.name();
    }
}

TEST_F(ServiceTest, RetirementFencesLoopsTheProgramLeftInFlight) {
    constexpr std::size_t kElems = 1024;
    std::atomic<bool> entered{false};
    std::atomic<bool> open{false};
    std::atomic<std::size_t> visits{0};
    // Held past the program: a dat it destroyed would be its own to fence.
    op_set set;
    op_dat x;
    service::scheduler sched;
    service::job_desc d;
    d.name = "unfenced";
    d.program = [&] {
        set = op_decl_set(kElems, "elems");
        x = op_decl_dat_zero<double>(set, 1, "double", "x");
        loop_options o;
        o.backend = exec::backend_kind::hpx_dataflow;
        (void)exec::run_loop(
            o, "gated", set,
            [&](double* v) {
                entered.store(true, std::memory_order_release);
                while (!open.load(std::memory_order_acquire)) {
                    std::this_thread::sleep_for(std::chrono::milliseconds(1));
                }
                *v += 1.0;
                visits.fetch_add(1, std::memory_order_relaxed);
            },
            op_arg_dat(x, -1, OP_ID, 1, "double", OP_RW));
        // No fence: retirement must drain the loop before completing.
    };
    auto j = sched.submit(std::move(d));
    while (!entered.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(j.state(), service::job_state::running)
        << "the job retired with its loop still in flight";
    open.store(true, std::memory_order_release);
    j.wait();
    EXPECT_EQ(j.state(), service::job_state::completed);
    EXPECT_EQ(visits.load(), kElems);
}

TEST_F(ServiceTest, JobFailureIsReportedAndIsolated) {
    service::scheduler sched;
    service::job_desc bad;
    bad.name = "throws";
    bad.program = [] { throw std::runtime_error("tenant bug"); };
    auto jb = sched.submit(std::move(bad));

    double sum = 0.0;
    service::job_desc good;
    good.name = "fine";
    good.program = [&sum] {
        auto set = op_decl_set(64, "elems");
        auto x = op_decl_dat_zero<double>(set, 1, "double", "x");
        loop_options o;
        o.backend = exec::backend_kind::hpx_dataflow;
        (void)exec::run_loop(o, "one", set, [](double* v) { *v = 1.0; },
                             op_arg_dat(x, -1, OP_ID, 1, "double",
                                        OP_WRITE));
        (void)exec::run_loop(
            o, "sum", set, [](double const* v, double* s) { *s += *v; },
            op_arg_dat(x, -1, OP_ID, 1, "double", OP_READ),
            op_arg_gbl(&sum, 1, "double", OP_INC));
        op_fence_all();
    };
    auto jg = sched.submit(std::move(good));
    sched.drain();

    EXPECT_EQ(jb.state(), service::job_state::failed);
    EXPECT_TRUE(jb.failed());
    EXPECT_THROW(jb.rethrow(), std::runtime_error);
    EXPECT_EQ(jg.state(), service::job_state::completed);
    jg.rethrow();  // no-op on success
    EXPECT_EQ(sum, 64.0);
    EXPECT_EQ(sched.metrics().failed, 1u);
    EXPECT_EQ(sched.metrics().completed, 1u);
}

TEST_F(ServiceTest, JobPlansArePurgedAtRetirement) {
    std::uint64_t ctx_id = 0;
    {
        service::scheduler sched;  // purge_plans defaults on
        service::job_desc d;
        d.name = "planner";
        d.program = [] {
            auto cells = op_decl_set(128, "cells");
            auto edges = op_decl_set(200, "edges");
            std::vector<int> tab(2 * 200);
            for (std::size_t i = 0; i < tab.size(); ++i) {
                tab[i] = static_cast<int>(i % 128);
            }
            auto em = op_decl_map(edges, cells, 2, tab, "em");
            auto x = op_decl_dat_zero<double>(cells, 1, "double", "x");
            loop_options o;
            o.backend = exec::backend_kind::hpx_dataflow;
            (void)exec::run_loop(
                o, "scatter", edges,
                [](double* a, double* b) {
                    *a += 1.0;
                    *b += 1.0;
                },
                op_arg_dat(x, 0, em, 1, "double", OP_INC),
                op_arg_dat(x, 1, em, 1, "double", OP_INC));
            op_fence_all();
        };
        auto j = sched.submit(std::move(d));
        j.wait();
        ctx_id = j.context()->id();
        sched.drain();
    }
    EXPECT_NE(ctx_id, 0u);
    EXPECT_EQ(plan_cache_size(ctx_id), 0u)
        << "retired job left plans behind";
}

}  // namespace
