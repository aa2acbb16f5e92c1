// Partition-affine first touch (OP2HPX_FIRST_TOUCH /
// memory::set_first_touch): the bench_dataflow_chain partition sweep — a
// dependent direct RW chain at 4 partitions with affinity placement —
// over a dat whose pages were first-touched by their owning workers vs.
// one initialised wholesale by the loading thread. On a single NUMA node
// this measures cache-warmth at best (parity is expected on small
// machines); the row exists so the trajectory shows the effect the day
// CI lands on bigger iron.
//
// Emits into BENCH_op2.json (schema op2hpx-bench-v1):
//   first_touch_on         ns/loop, affinity chain, owner-touched pages
//   first_touch_off        ns/loop, affinity chain, loader-touched pages
//   first_touch_speedup    x, on vs off
//
// `--quick` shrinks repetitions for the CI smoke run.

#include <cstdio>
#include <cstring>
#include <string>

#include <hpxlite/hpxlite.hpp>
#include <op2/op2.hpp>

#include "bench_json.hpp"

using namespace op2;

namespace {

constexpr std::size_t kChainElems = 262144;
constexpr int kChainLen = 8;
int g_chains = 30;  // (--quick: 5)

double time_chain(op_dat& d, op_set const& cells, int chains) {
    loop_options o;
    o.backend = exec::backend_kind::hpx_dataflow;
    o.part_size = 256;
    o.partitions = 4;
    o.placement = placement_kind::affinity;
    auto kern = [](double* v) { *v += 1.0; };
    auto run_chain = [&] {
        exec::loop_handle last;
        for (int l = 0; l < kChainLen; ++l) {
            last = exec::run_loop(o, "ft_chain", cells, kern,
                                  op_arg_dat(d, -1, OP_ID, 1, "double",
                                             OP_RW));
        }
        last.wait();
    };
    for (int w = 0; w < 3; ++w) {
        run_chain();
    }
    hpxlite::util::stopwatch sw;
    for (int c = 0; c < chains; ++c) {
        run_chain();
    }
    return sw.elapsed_s() * 1e9 /
           (static_cast<double>(chains) * kChainLen);
}

}  // namespace

int main(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            g_chains = 5;
        }
    }
    hpxlite::init(hpxlite::runtime_config{4});
    std::size_t const nworkers = hpxlite::get_num_worker_threads();
    std::string const workers_label =
        std::to_string(nworkers) + " workers";
    benchutil::bench_log log("bench_gather");

    auto chain_cells = op_decl_set(kChainElems, "ft_cells");
    auto d_off = [&] {
        op2::memory::first_touch_scope scope(false);
        return op_decl_dat_zero<double>(chain_cells, 1, "double", "ft_off");
    }();
    double const off_ns = time_chain(d_off, chain_cells, g_chains);
    auto d_on = [&] {
        op2::memory::first_touch_scope scope(true);
        return op_decl_dat_zero<double>(chain_cells, 1, "double", "ft_on");
    }();
    double const on_ns = time_chain(d_on, chain_cells, g_chains);
    // Sanity: both chains executed every loop.
    double const expect = static_cast<double>((3 + g_chains) * kChainLen);
    if (d_off.view<double>()[0] != expect ||
        d_on.view<double>()[0] != expect) {
        std::fprintf(stderr, "FAIL: first-touch chain dropped loops\n");
        return 1;
    }
    std::printf("first touch (%d-loop affinity chain, %zu elems, %s):\n",
                kChainLen, kChainElems, workers_label.c_str());
    std::printf("  loader-touched  : %12.1f ns/loop\n", off_ns);
    std::printf("  owner-touched   : %12.1f ns/loop\n", on_ns);
    std::printf("  speedup         : %12.2fx\n", off_ns / on_ns);
    log.add("first_touch_off", off_ns, "ns/iter",
            "affinity chain, loader-thread first touch, " + workers_label);
    log.add("first_touch_on", on_ns, "ns/iter",
            "affinity chain, partition-affine first touch, " +
                workers_label);
    log.add("first_touch_speedup", off_ns / on_ns, "x",
            "owner_vs_loader_first_touch, " + workers_label);

    log.write();
    hpxlite::finalize();
    return 0;
}
