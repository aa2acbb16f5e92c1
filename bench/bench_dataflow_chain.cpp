// Dependency-layer benchmarks of the dataflow engine on a dependent
// loop chain — the shape of airfoil's time-march.
//
// The partition sweep: a dependent direct RW chain issued on pools of 1,
// 2 and 4 workers, so at 1, 2 and 4 partitions (one sub-node per
// (colour, slice), one slice per worker). At 1 partition loop i+1 waits
// for all of loop i; at P partitions its sub-node for slice p waits only
// for loop i's slice p, so the slices pipeline independently through
// the chain — dependent loops overlap. The chain's dat survives each
// re-creation of the pool, so the sweep also runs the rebuild of its
// dependency table at the new worker count.
//
// Plus the straddle section: a dependent *indirect* INC chain over a
// ring map whose partitions straddle the partition boundary — the shape
// whose same-colour sub-nodes overlap through the same-colour exemption.
//
// Emits into BENCH_op2.json (schema op2hpx-bench-v1):
//   dataflow_chain_part<P>            ns per loop, dependent chain on P
//                                     workers (P = 1, 2, 4)
//   dataflow_chain_partition_speedup  x, 4 workers vs 1
//   dataflow_chain_straddle_exempt    ns per loop, indirect INC straddle
//                                     chain on 4 workers
//
// Worker counts in row labels are derived from the live pool size, so
// rows recorded on multi-core CI runners are self-describing. Exits 1
// when a chain's final values show a lost or duplicated loop.
//
// `--quick` shrinks warmup/measured repetitions for the CI smoke run.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <hpxlite/hpxlite.hpp>
#include <op2/op2.hpp>

#include "bench_json.hpp"

using namespace op2;

namespace {

// Partition sweep: a big mesh so the loop body amortises the
// sub-node/join machinery and the sweep measures overlap, not node
// overhead.
constexpr std::size_t kSweepElems = 262144;
constexpr int kSweepChainLen = 8;
int g_sweep_chains = 30;  // (--quick: 5)

// Straddle chain (same-colour exemption): indirect INC through a ring
// map is heavier per element than the direct sweep, so a smaller mesh
// keeps the section's runtime comparable.
constexpr std::size_t kStraddleElems = 131072;

double ns_per_loop(double total_s, int chains, int chain_len) {
    return total_s * 1e9 / (static_cast<double>(chains) * chain_len);
}

}  // namespace

int main(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            g_sweep_chains = 5;
        }
    }
    auto workers_label = [] {
        return std::to_string(hpxlite::get_num_worker_threads()) + " workers";
    };
    loop_options opts;
    opts.part_size = 256;
    auto kern = [](double* x) { *x += 1.0; };
    hpxlite::util::stopwatch sw;

    // --- partition sweep ----------------------------------------------
    // A dependent RW chain on a big mesh, issued on pools of 1 / 2 / 4
    // workers. Direct args give each sub-node a single-partition
    // footprint, so at P > 1 the chain becomes P independent pipelines:
    // partition p of loop i+1 starts as soon as partition p of loop i
    // is done, while one partition holds loop i+1 until all of loop i
    // finished.
    auto sweep_cells = op_decl_set(kSweepElems, "sweep_cells");
    auto sweep_d =
        op_decl_dat_zero<double>(sweep_cells, 1, "double", "sweep_d");
    auto sweep_arg = [&] {
        return op_arg_dat(sweep_d, -1, OP_ID, 1, "double", OP_RW);
    };

    benchutil::bench_log log("bench_dataflow_chain");
    std::printf("partition sweep (%d loops x %d chains, %zu elems):\n",
                kSweepChainLen, g_sweep_chains, kSweepElems);
    double part1_ns = 0.0;
    double part4_ns = 0.0;
    int sweep_loops = 0;
    auto run_sweep_chain = [&](loop_options const& po) {
        exec::loop_handle last;
        for (int l = 0; l < kSweepChainLen; ++l) {
            last = exec::run_loop(po, "sweep_chain", sweep_cells, kern,
                                  sweep_arg());
        }
        last.wait();
        sweep_loops += kSweepChainLen;
    };
    auto time_sweep_chain = [&](loop_options const& po) {
        for (int w = 0; w < 3; ++w) {
            run_sweep_chain(po);
        }
        sw.reset();
        for (int c = 0; c < g_sweep_chains; ++c) {
            run_sweep_chain(po);
        }
        return ns_per_loop(sw.elapsed_s(), g_sweep_chains, kSweepChainLen);
    };
    for (std::size_t parts : {1u, 2u, 4u}) {
        hpxlite::init(hpxlite::runtime_config{parts});
        loop_options po = opts;
        po.backend = exec::backend_kind::hpx_dataflow;
        double const ns = time_sweep_chain(po);
        if (parts == 1) {
            part1_ns = ns;
        }
        if (parts == 4) {
            part4_ns = ns;
        }
        std::printf("  workers=%zu       : %9.1f ns/loop\n", parts, ns);
        log.add("dataflow_chain_part" + std::to_string(parts), ns, "ns/iter",
                "dependent RW chain, " + workers_label());
    }
    std::printf("  partition spdup : %9.2fx (4 workers vs 1)\n",
                part1_ns / part4_ns);

    // Sanity: every sweep loop adds 1 to every element.
    op_fence_all();
    if (sweep_d.view<double>()[0] != static_cast<double>(sweep_loops)) {
        std::fprintf(stderr, "FAIL: sweep chain executed %.0f loops, "
                             "expected %d\n",
                     sweep_d.view<double>()[0], sweep_loops);
        return 1;
    }

    // --- same-colour exemption: boundary-straddling INC chain ---------
    // A dependent indirect chain: every loop INCs a cells dat through a
    // ring map (edge i -> cells i, i+1 mod n), so consecutive loops
    // conflict on every record (the chain), and within one loop every
    // partition's footprint straddles into its neighbour. The
    // same-colour exemption lets those sub-nodes overlap instead of
    // serialising through conservative WAW record edges.
    auto str_cells = op_decl_set(kStraddleElems, "straddle_cells");
    auto str_edges = op_decl_set(kStraddleElems, "straddle_edges");
    std::vector<int> str_tab(2 * kStraddleElems);
    for (std::size_t e = 0; e < kStraddleElems; ++e) {
        str_tab[2 * e] = static_cast<int>(e);
        str_tab[2 * e + 1] = static_cast<int>((e + 1) % kStraddleElems);
    }
    auto str_map = op_decl_map(str_edges, str_cells, 2, str_tab, "str_em");
    auto str_d =
        op_decl_dat_zero<double>(str_cells, 1, "double", "str_d");
    auto str_kern = [](double* a, double* b) {
        *a += 1.0;
        *b += 1.0;
    };
    int straddle_loops = 0;
    double straddle_ns = 0.0;
    {
        loop_options po = opts;
        po.backend = exec::backend_kind::hpx_dataflow;
        auto run_chain = [&] {
            exec::loop_handle last;
            for (int l = 0; l < kSweepChainLen; ++l) {
                last = exec::run_loop(
                    po, "straddle_chain", str_edges, str_kern,
                    op_arg_dat(str_d, 0, str_map, 1, "double", OP_INC),
                    op_arg_dat(str_d, 1, str_map, 1, "double", OP_INC));
            }
            last.wait();
            straddle_loops += kSweepChainLen;
        };
        for (int w = 0; w < 3; ++w) {
            run_chain();
        }
        sw.reset();
        for (int c = 0; c < g_sweep_chains; ++c) {
            run_chain();
        }
        straddle_ns =
            ns_per_loop(sw.elapsed_s(), g_sweep_chains, kSweepChainLen);
    }
    op_fence_all();
    // Sanity: every cell has two in-edges, each straddle loop adds 2.
    double const str_expect = 2.0 * straddle_loops;
    if (str_d.view<double>()[0] != str_expect) {
        std::fprintf(stderr,
                     "FAIL: straddle chain executed %.0f INCs/cell, "
                     "expected %.0f\n",
                     str_d.view<double>()[0], str_expect);
        return 1;
    }
    std::printf("straddle INC chain (%d loops x %d chains, %zu edges, %s):\n",
                kSweepChainLen, g_sweep_chains, kStraddleElems,
                workers_label().c_str());
    std::printf("  workers=4       : %9.1f ns/loop\n", straddle_ns);

    log.add("dataflow_chain_partition_speedup", part1_ns / part4_ns, "x",
            "partitioned_4_vs_1");
    log.add("dataflow_chain_straddle_exempt", straddle_ns, "ns/iter",
            "indirect INC straddle chain, " + workers_label());
    log.write();

    hpxlite::finalize();
    return 0;
}
