// Table I: the execution policies implemented in HPX (seq, par,
// seq(task), par(task)) — demonstrated on the real hpxlite runtime on
// this host: each policy runs the same loop; the task variants return
// futures. Reports per-policy wall time and the task-policy asynchrony
// (time to *issue* vs time to *complete*).
//
// Service mode (the second section): op2::service admitting a heavy
// mixed fleet of independent op2 jobs onto the shared pool in
// submission order. Emits the service_*_fifo rows into BENCH_op2.json:
// aggregate throughput (jobs/s) and p95/p99 job latency (see
// bench/README.md; a floor in bench_thresholds.json gates the
// throughput row).
//
// Flags: --quick (CI-sized fleet), --help.

#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <hpxlite/hpxlite.hpp>
#include <op2/op2.hpp>

#include "bench_json.hpp"

namespace {

/// One job for the service fleet: `iters` iterations of a
/// direct+indirect loop chain (scatter through a random edges->cells
/// map, one reduction per iteration) over a freshly declared mesh of
/// `cells` cells.
op2::service::job_desc make_fleet_job(std::string name, unsigned seed,
                                      std::size_t cells, int iters) {
    using namespace op2;
    service::job_desc d;
    d.name = std::move(name);
    d.est_bytes = cells * 4 * sizeof(double);
    d.program = [seed, cells, iters] {
        std::size_t const nedges = cells * 3;
        auto cset = op_decl_set(cells, "cells");
        auto eset = op_decl_set(nedges, "edges");
        std::mt19937 rng(seed);
        std::uniform_int_distribution<int> cd(
            0, static_cast<int>(cells) - 1);
        std::vector<int> tab(2 * nedges);
        for (auto& v : tab) {
            v = cd(rng);
        }
        auto em = op_decl_map(eset, cset, 2, tab, "em");
        auto q = op_decl_dat_zero<double>(cset, 1, "double", "q");
        auto r = op_decl_dat_zero<double>(cset, 1, "double", "r");

        loop_options o;
        o.backend = exec::backend_kind::hpx_dataflow;
        std::vector<double> sums(static_cast<std::size_t>(iters), 0.0);
        for (int it = 0; it < iters; ++it) {
            (void)exec::run_loop(
                o, "seed", cset, [](double* v) { *v += 1.0; },
                op_arg_dat(q, -1, OP_ID, 1, "double", OP_RW));
            (void)exec::run_loop(
                o, "scatter", eset,
                [](double const* a, double const* b, double* ra,
                   double* rb) {
                    *ra += *b;
                    *rb += *a;
                },
                op_arg_dat(q, 0, em, 1, "double", OP_READ),
                op_arg_dat(q, 1, em, 1, "double", OP_READ),
                op_arg_dat(r, 0, em, 1, "double", OP_INC),
                op_arg_dat(r, 1, em, 1, "double", OP_INC));
            (void)exec::run_loop(
                o, "fold", cset,
                [](double* v, double* s) {
                    *v = 0.0;
                    *s += 1.0;
                },
                op_arg_dat(r, -1, OP_ID, 1, "double", OP_RW),
                op_arg_gbl(&sums[static_cast<std::size_t>(it)], 1, "double",
                           OP_INC));
        }
        op_fence(q);
        op_fence(r);
    };
    return d;
}

op2::service::scheduler_metrics run_fleet(int njobs, std::size_t base_cells,
                                          int iters) {
    op2::service::scheduler sched;
    for (int k = 0; k < njobs; ++k) {
        // Three job sizes, interleaved: small jobs queue behind big ones.
        std::size_t const cells = base_cells << (k % 3);
        (void)sched.submit(make_fleet_job("job" + std::to_string(k),
                                          static_cast<unsigned>(17 * k + 3),
                                          cells, iters));
    }
    sched.drain();
    return sched.metrics();
}

void usage(char const* argv0) {
    std::printf(
        "usage: %s [--quick] [--help]\n"
        "  --quick  CI-sized run: smaller fleet and meshes, same rows\n"
        "  --help   this text\n",
        argv0);
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--help") == 0) {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            return 2;
        }
    }

    std::printf("==============================================================\n");
    std::printf("Table I — execution policies (host-measured, hpxlite)\n");
    std::printf("==============================================================\n");
    hpxlite::init();

    std::size_t const n = quick ? 400'000 : 4'000'000;
    std::vector<double> v(n, 1.0);
    hpxlite::util::irange r(0, n);
    auto body = [&](std::size_t i) { v[i] = v[i] * 1.0001 + 0.5; };

    namespace ex = hpxlite::execution;
    using hpxlite::parallel::for_each;

    {
        hpxlite::util::stopwatch sw;
        for_each(ex::seq, r.begin(), r.end(), body);
        std::printf("%-12s total %8.3f ms   (sequential)\n", "seq",
                    sw.elapsed_s() * 1e3);
    }
    {
        hpxlite::util::stopwatch sw;
        for_each(ex::par, r.begin(), r.end(), body);
        std::printf("%-12s total %8.3f ms   (parallel, synchronous)\n", "par",
                    sw.elapsed_s() * 1e3);
    }
    {
        hpxlite::util::stopwatch sw;
        auto f = for_each(ex::seq(ex::task), r.begin(), r.end(), body);
        double const issue_ms = sw.elapsed_s() * 1e3;
        f.wait();
        std::printf("%-12s total %8.3f ms   (issue returned after %.4f ms)\n",
                    "seq(task)", sw.elapsed_s() * 1e3, issue_ms);
    }
    {
        hpxlite::util::stopwatch sw;
        auto f = for_each(ex::par(ex::task), r.begin(), r.end(), body);
        double const issue_ms = sw.elapsed_s() * 1e3;
        f.wait();
        std::printf("%-12s total %8.3f ms   (issue returned after %.4f ms)\n",
                    "par(task)", sw.elapsed_s() * 1e3, issue_ms);
    }
    std::printf("\n(par_vec of the Parallelism TS is not implemented by HPX "
                "itself — Table I marks it TS-only; hpxlite follows HPX.)\n");

    std::printf("\n==============================================================\n");
    std::printf("Service mode — a mixed job fleet in submission order\n");
    std::printf("==============================================================\n");

    int const njobs = quick ? 12 : 48;
    std::size_t const base_cells = quick ? 400 : 2000;
    int const iters = quick ? 3 : 8;
    std::printf("fleet: %d jobs, meshes %zu/%zu/%zu cells, "
                "%d iteration(s) each\n\n",
                njobs, base_cells, base_cells * 2, base_cells * 4, iters);

    benchutil::bench_log log("bench_table1_policies");
    auto const m = run_fleet(njobs, base_cells, iters);
    std::printf("%7.1f jobs/s   mean wait %7.2f ms   p95 %7.2f ms   "
                "p99 %7.2f ms   (%llu loops)\n",
                m.throughput_jobs_s, m.mean_wait_s * 1e3,
                m.p95_latency_s * 1e3, m.p99_latency_s * 1e3,
                static_cast<unsigned long long>(m.loops_issued));
    // The _fifo suffix keeps the row names of the trajectory.
    log.add("service_throughput_fifo", m.throughput_jobs_s, "jobs/s",
            "aggregate job throughput, mixed fleet, submission order");
    log.add("service_p95_ms_fifo", m.p95_latency_s * 1e3, "ms",
            "p95 job latency (submit->retire), submission order");
    log.add("service_p99_ms_fifo", m.p99_latency_s * 1e3, "ms",
            "p99 job latency (submit->retire), submission order");
    log.write();

    hpxlite::finalize();
    return 0;
}
