// Jacobi relaxation on an unstructured grid — the second canonical OP2
// demo application ("jac"), expressed through this library's API and run
// on the HPX dataflow backend.
//
// Solves the 5-point Laplace problem A u = f on an n x n interior grid:
// the off-diagonal entries live on "edges" (node-pairs), the update loop
// gathers neighbour contributions indirectly (OP_INC) exactly like the
// Airfoil residual loop, and a global reduction tracks convergence.
//
// Demonstrates:
//  * a numerically verifiable app that is NOT Airfoil,
//  * asynchronous iteration issue: all Jacobi sweeps are issued up
//    front, chained only through their true data dependencies,
//  * global reductions under the dataflow backend,
//  * service mode (--service N): N independent Jacobi solves submitted
//    as op2::service jobs, admitted in submission order and run
//    concurrently on the shared pool.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <op2/op2.hpp>

namespace {

constexpr std::size_t kN = 48;        // interior grid is kN x kN
constexpr int kIters = 200;

std::size_t node_id(std::size_t i, std::size_t j, std::size_t n) {
    return j * n + i;
}

struct jacobi_result {
    double first = 0.0;   // ||u_next - u|| after the first sweep
    double last = 0.0;    // ... after the final sweep
    double u_mid = 0.0;   // u at the point source
    bool monotone_tail = true;
};

/// One full Jacobi solve on an n x n grid: declares its own sets, map
/// and dats, issues all sweeps asynchronously, fences once. Safe to run
/// concurrently with other solves inside service jobs — each call's
/// entities are private to it.
jacobi_result run_jacobi(std::size_t n, int iters) {
    std::size_t const nnode = n * n;
    // Horizontal + vertical neighbour pairs.
    std::vector<int> etab;
    for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t i = 0; i + 1 < n; ++i) {
            etab.push_back(static_cast<int>(node_id(i, j, n)));
            etab.push_back(static_cast<int>(node_id(i + 1, j, n)));
        }
    }
    for (std::size_t j = 0; j + 1 < n; ++j) {
        for (std::size_t i = 0; i < n; ++i) {
            etab.push_back(static_cast<int>(node_id(i, j, n)));
            etab.push_back(static_cast<int>(node_id(i, j + 1, n)));
        }
    }
    std::size_t const nedge = etab.size() / 2;

    op2::op_set nodes = op2::op_decl_set(nnode, "nodes");
    op2::op_set edges = op2::op_decl_set(nedge, "edges");
    op2::op_map ppedge = op2::op_decl_map(edges, nodes, 2, etab, "ppedge");

    // RHS: point source in the middle; u starts at zero.
    std::vector<double> f(nnode, 0.0);
    f[node_id(n / 2, n / 2, n)] = 1.0;
    op2::op_dat p_f = op2::op_decl_dat(nodes, 1, "double", f, "p_f");
    op2::op_dat p_u = op2::op_decl_dat_zero<double>(nodes, 1, "double", "p_u");
    op2::op_dat p_du = op2::op_decl_dat_zero<double>(nodes, 1, "double", "p_du");

    op2::loop_options opts;
    opts.part_size = 64;

    // Jacobi: du = f + 1/4 * sum(neighbour u); then u <- du, track |du-u|.
    auto res_kernel = [](double const* u1, double const* u2, double* du1,
                         double* du2) {
        *du1 += 0.25 * *u2;
        *du2 += 0.25 * *u1;
    };
    auto update_kernel = [](double const* f_, double* u, double* du,
                            double* delta) {
        double const next = *f_ + *du;
        *delta += (next - *u) * (next - *u);
        *u = next;
        *du = 0.0;
    };

    std::vector<double> deltas(static_cast<std::size_t>(iters), 0.0);
    for (int it = 0; it < iters; ++it) {
        (void)op2::op_par_loop_hpx(
            opts, "res", edges, res_kernel,
            op2::op_arg_dat(p_u, 0, ppedge, 1, "double", op2::OP_READ),
            op2::op_arg_dat(p_u, 1, ppedge, 1, "double", op2::OP_READ),
            op2::op_arg_dat(p_du, 0, ppedge, 1, "double", op2::OP_INC),
            op2::op_arg_dat(p_du, 1, ppedge, 1, "double", op2::OP_INC));
        (void)op2::op_par_loop_hpx(
            opts, "update", nodes, update_kernel,
            op2::op_arg_dat(p_f, -1, op2::OP_ID, 1, "double", op2::OP_READ),
            op2::op_arg_dat(p_u, -1, op2::OP_ID, 1, "double", op2::OP_RW),
            op2::op_arg_dat(p_du, -1, op2::OP_ID, 1, "double", op2::OP_RW),
            op2::op_arg_gbl(&deltas[static_cast<std::size_t>(it)], 1,
                            "double", op2::OP_INC));
    }
    op2::op_fence(p_u);  // the only synchronisation point
    op2::op_fence(p_du);

    jacobi_result r;
    r.first = std::sqrt(deltas[0]);
    r.last = std::sqrt(deltas[static_cast<std::size_t>(iters - 1)]);
    r.u_mid = p_u.view<double>()[node_id(n / 2, n / 2, n)];
    // Jacobi converges linearly with rate ~cos(pi/n); the update norm
    // must be monotonically decreasing (modulo noise) at the tail.
    for (int it = iters / 2; it + 1 < iters; ++it) {
        r.monotone_tail = r.monotone_tail &&
                          deltas[static_cast<std::size_t>(it + 1)] <=
                              deltas[static_cast<std::size_t>(it)] * 1.0001;
    }
    return r;
}

bool converged(jacobi_result const& r) {
    return r.last < 0.1 * r.first && r.monotone_tail &&
           std::isfinite(r.u_mid) && r.u_mid > 1.0;
}

void help(char const* argv0, std::FILE* out) {
    std::fprintf(out,
        "usage: %s [options]\n"
        "\n"
        "Jacobi relaxation on a %zux%zu unstructured grid, %d sweeps\n"
        "issued asynchronously on the HPX dataflow backend.\n"
        "\n"
        "options:\n"
        "  --service N     run N independent Jacobi solves as op2::service\n"
        "                  jobs, admitted in submission order and run\n"
        "                  concurrently on the shared pool (grid sizes\n"
        "                  vary across jobs; default: single solve, no\n"
        "                  service layer)\n"
        "  --help          this text\n",
        argv0, kN, kN, kIters);
}

}  // namespace

int main(int argc, char** argv) {
    int service_jobs = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0) {
            help(argv[0], stdout);
            return 0;
        } else if (std::strcmp(argv[i], "--service") == 0 && i + 1 < argc) {
            service_jobs = std::atoi(argv[++i]);
        } else {
            help(argv[0], stderr);
            return 2;
        }
    }

    hpxlite::init();

    if (service_jobs > 0) {
        // Service mode: a fleet of independent solves of mixed grid
        // sizes, admitted in submission order. Every job must converge
        // exactly as it does solo.
        op2::service::scheduler sched;
        std::vector<jacobi_result> results(
            static_cast<std::size_t>(service_jobs));
        std::vector<op2::service::job> jobs;
        for (int k = 0; k < service_jobs; ++k) {
            int const cls = k % 3;
            std::size_t const n = kN / 2 << cls;  // 24 / 48 / 96
            int const iters = kIters / 2;
            op2::service::job_desc d;
            d.name = "jacobi" + std::to_string(k);
            d.est_bytes = n * n * 3 * sizeof(double);
            auto* out = &results[static_cast<std::size_t>(k)];
            d.program = [n, iters, out] { *out = run_jacobi(n, iters); };
            jobs.push_back(sched.submit(std::move(d)));
        }
        sched.drain();

        bool all_ok = true;
        for (std::size_t k = 0; k < jobs.size(); ++k) {
            auto const& j = jobs[k];
            auto const m = j.metrics();
            bool const ok =
                j.state() == op2::service::job_state::completed &&
                converged(results[k]);
            all_ok = all_ok && ok;
            std::printf("  %-10s %-8s wait %7.2f ms  run %7.2f ms  "
                        "%4llu loops  ||du|| %.3e  %s\n",
                        j.name().c_str(),
                        j.failed() ? "FAILED" : "completed", m.wait_s * 1e3,
                        m.run_s * 1e3,
                        static_cast<unsigned long long>(m.loops_issued),
                        results[k].last, ok ? "converged" : "NOT CONVERGED");
        }
        auto const sm = sched.metrics();
        std::printf("service: %llu jobs, %.1f jobs/s, p95 latency %.2f ms\n",
                    static_cast<unsigned long long>(sm.completed + sm.failed),
                    sm.throughput_jobs_s, sm.p95_latency_s * 1e3);
        hpxlite::finalize();
        return all_ok ? 0 : 1;
    }

    auto const r = run_jacobi(kN, kIters);
    std::printf("Jacobi on %zux%zu grid, %d sweeps (all issued "
                "asynchronously):\n", kN, kN, kIters);
    std::printf("  first        ||u_next - u|| = %.6e\n", r.first);
    std::printf("  final        ||u_next - u|| = %.6e\n", r.last);
    std::printf("u at the source: %.6f (expect > 1, finite)\n", r.u_mid);
    bool const ok = converged(r);
    std::printf("converged: %s\n", ok ? "yes" : "NO");
    hpxlite::finalize();
    return ok ? 0 : 1;
}
