// Microbenchmarks of the OP2 layer on this host: plan construction,
// per-backend loop dispatch overhead, the staged engine's direct and
// indirect argument resolution, and a mini-Airfoil step.
//
// Running this binary (any build; Release with OP2HPX_BENCH_NATIVE=ON is
// the meaningful configuration) writes/merges the machine-readable perf
// trajectory file BENCH_op2.json — see bench/README.md for the schema.

#include <benchmark/benchmark.h>

#include <map>
#include <string>

#include <airfoil/app.hpp>
#include <airfoil/mesh.hpp>
#include <op2/op2.hpp>

#include "bench_json.hpp"

namespace {

airfoil::mesh const& bench_mesh() {
    static airfoil::mesh m = [] {
        airfoil::mesh_params p;
        p.nx = 60;
        p.ny = 30;
        return airfoil::make_mesh(p);
    }();
    return m;
}

/// Larger mesh for the indirect resolution benches, so gather cost (not
/// dispatch) dominates.
airfoil::mesh const& gather_mesh() {
    static airfoil::mesh m = [] {
        airfoil::mesh_params p;
        p.nx = 160;
        p.ny = 80;
        return airfoil::make_mesh(p);
    }();
    return m;
}

void bm_plan_build(benchmark::State& state) {
    auto const& m = bench_mesh();
    auto edges = op2::op_decl_set(m.nedge, "edges");
    auto cells = op2::op_decl_set(m.ncell, "cells");
    auto pecell = op2::op_decl_map(edges, cells, 2, m.pecell, "pecell");
    auto res = op2::op_decl_dat_zero<double>(cells, 4, "double", "res");
    std::array<op2::op_arg, 2> args{
        op2::op_arg_dat(res, 0, pecell, 4, "double", op2::OP_INC),
        op2::op_arg_dat(res, 1, pecell, 4, "double", op2::OP_INC)};
    auto const part = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        auto plan = op2::plan_build(edges, args, part);
        benchmark::DoNotOptimize(plan.ncolors);
    }
}
BENCHMARK(bm_plan_build)->Arg(64)->Arg(128)->Arg(512);

/// The headline engine microbenchmark: a res_calc-shaped indirect loop
/// (4 indirect reads, 2 indirect increments) through the staged engine
/// (plan gather tables + pointer bumping).
void bm_indirect_resolution(benchmark::State& state) {
    hpxlite::init();
    auto const& m = gather_mesh();
    auto edges = op2::op_decl_set(m.nedge, "edges");
    auto nodes = op2::op_decl_set(m.nnode, "nodes");
    auto cells = op2::op_decl_set(m.ncell, "cells");
    auto pedge = op2::op_decl_map(edges, nodes, 2, m.pedge, "pedge");
    auto pecell = op2::op_decl_map(edges, cells, 2, m.pecell, "pecell");
    auto x = op2::op_decl_dat<double>(nodes, 2, "double", m.x, "x");
    auto q = op2::op_decl_dat_zero<double>(cells, 4, "double", "q");
    auto res = op2::op_decl_dat_zero<double>(cells, 4, "double", "res");

    op2::loop_options opts;
    for (auto _ : state) {
        op2::op_par_loop_fork_join(
            opts, "gather_scatter", edges,
            [](double const* x1, double const* x2, double const* q1,
               double const* q2, double* r1, double* r2) {
                double const dx = x1[0] - x2[0];
                double const dy = x1[1] - x2[1];
                for (int d = 0; d < 4; ++d) {
                    double const f = dx * q1[d] - dy * q2[d];
                    r1[d] += f;
                    r2[d] -= f;
                }
            },
            op2::op_arg_dat(x, 0, pedge, 2, "double", op2::OP_READ),
            op2::op_arg_dat(x, 1, pedge, 2, "double", op2::OP_READ),
            op2::op_arg_dat(q, 0, pecell, 4, "double", op2::OP_READ),
            op2::op_arg_dat(q, 1, pecell, 4, "double", op2::OP_READ),
            op2::op_arg_dat(res, 0, pecell, 4, "double", op2::OP_INC),
            op2::op_arg_dat(res, 1, pecell, 4, "double", op2::OP_INC));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(m.nedge));
}
BENCHMARK(bm_indirect_resolution);

/// Gather-dominated indirect loop (tiny kernel, two indirect reads and a
/// direct write) — isolates pure argument-resolution cost, the thing the
/// staged tables remove.
void bm_indirect_gather(benchmark::State& state) {
    hpxlite::init();
    auto const& m = gather_mesh();
    auto edges = op2::op_decl_set(m.nedge, "edges");
    auto nodes = op2::op_decl_set(m.nnode, "nodes");
    auto pedge = op2::op_decl_map(edges, nodes, 2, m.pedge, "pedge");
    auto x = op2::op_decl_dat<double>(nodes, 2, "double", m.x, "x");
    auto len = op2::op_decl_dat_zero<double>(edges, 2, "double", "len");

    op2::loop_options opts;
    for (auto _ : state) {
        op2::op_par_loop_fork_join(
            opts, "edge_len", edges,
            [](double const* a, double const* b, double* s) {
                s[0] = a[0] - b[0];
                s[1] = a[1] - b[1];
            },
            op2::op_arg_dat(x, 0, pedge, 2, "double", op2::OP_READ),
            op2::op_arg_dat(x, 1, pedge, 2, "double", op2::OP_READ),
            op2::op_arg_dat(len, -1, op2::OP_ID, 2, "double", op2::OP_WRITE));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(m.nedge));
}
BENCHMARK(bm_indirect_gather);

/// A purely direct loop: the all-direct pointer-bump fast path.
void bm_direct_resolution(benchmark::State& state) {
    hpxlite::init();
    auto const& m = gather_mesh();
    auto cells = op2::op_decl_set(m.ncell, "cells");
    auto q = op2::op_decl_dat_zero<double>(cells, 4, "double", "q");
    auto qold = op2::op_decl_dat_zero<double>(cells, 4, "double", "qold");

    op2::loop_options opts;
    for (auto _ : state) {
        op2::op_par_loop_fork_join(
            opts, "save_soln", cells,
            [](double const* a, double* b) {
                for (int d = 0; d < 4; ++d) {
                    b[d] = a[d];
                }
            },
            op2::op_arg_dat(q, -1, op2::OP_ID, 4, "double", op2::OP_READ),
            op2::op_arg_dat(qold, -1, op2::OP_ID, 4, "double", op2::OP_WRITE));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(m.ncell));
}
BENCHMARK(bm_direct_resolution);

void bm_airfoil_step(benchmark::State& state) {
    hpxlite::init();
    auto const& m = bench_mesh();
    auto prob = airfoil::make_problem(m);
    airfoil::app_config cfg;
    cfg.niter = 1;
    cfg.be = state.range(0) == 0   ? op2::backend::seq
             : state.range(0) == 1 ? op2::backend::fork_join
                                   : op2::backend::hpx;
    for (auto _ : state) {
        auto r = airfoil::run(prob, cfg);
        benchmark::DoNotOptimize(r.final_rms);
    }
    state.SetLabel(op2::to_string(cfg.be));
}
BENCHMARK(bm_airfoil_step)->Arg(0)->Arg(1)->Arg(2);

/// Per-issue cost of a tiny loop, the row that prices the runtime's
/// fixed overhead per op_par_loop:
///   Arg(0): fork-join dispatch (the seed's row),
///   Arg(2): hpx_dataflow issue (executor groups recycled through the
///           cross-issue pool; the argument keeps its row name).
/// The hpx variant issues a 16-loop dependent chain per iteration and
/// waits once, so steady-state issue cost dominates over wake-up
/// latency.
void bm_loop_dispatch_overhead(benchmark::State& state) {
    hpxlite::init();
    auto set = op2::op_decl_set(64, "tiny");
    auto d = op2::op_decl_dat_zero<double>(set, 1, "double", "d");
    op2::loop_options opts;
    if (state.range(0) == 0) {
        for (auto _ : state) {
            op2::op_par_loop_fork_join(opts, "tiny", set,
                                       [](double* x) { *x += 1.0; },
                                       op2::op_arg_dat(d, -1, op2::OP_ID, 1,
                                                       "double", op2::OP_RW));
        }
        state.SetItemsProcessed(state.iterations() * 64);
        state.SetLabel("fork_join");
        return;
    }
    constexpr int kChain = 16;
    opts.backend = op2::exec::backend_kind::hpx_dataflow;
    for (auto _ : state) {
        op2::exec::loop_handle last;
        for (int l = 0; l < kChain; ++l) {
            last = op2::exec::run_loop(
                opts, "tiny_hpx", set, [](double* x) { *x += 1.0; },
                op2::op_arg_dat(d, -1, op2::OP_ID, 1, "double", op2::OP_RW));
        }
        last.get();
    }
    state.SetItemsProcessed(state.iterations() * 64 * kChain);
    state.SetLabel("hpx");
}
BENCHMARK(bm_loop_dispatch_overhead)->Arg(0)->Arg(2);

/// Console reporter that additionally collects every run so main() can
/// derive speedups and write the trajectory file.
class trajectory_collector : public benchmark::ConsoleReporter {
public:
    void ReportRuns(std::vector<Run> const& runs) override {
        for (auto const& r : runs) {
            real_ns_[r.benchmark_name()] = r.GetAdjustedRealTime();
        }
        ConsoleReporter::ReportRuns(runs);
    }

    [[nodiscard]] std::map<std::string, double> const& real_ns() const {
        return real_ns_;
    }

private:
    std::map<std::string, double> real_ns_;  // name -> real time (ns/iter)
};

}  // namespace

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    trajectory_collector collector;
    benchmark::RunSpecifiedBenchmarks(&collector);

    benchutil::bench_log log("bench_micro_op2");
    for (auto const& [name, ns] : collector.real_ns()) {
        log.add(name, ns, "ns/iter");
    }

    log.write();
    benchmark::Shutdown();
    return 0;
}
