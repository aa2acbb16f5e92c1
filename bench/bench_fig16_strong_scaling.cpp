// Figure 16: strong-scaling speedup (fixed problem, growing threads) of
// `dataflow` vs `#pragma omp parallel for` on Airfoil.
//
// Paper observation: ~33% better performance for dataflow at scale, due
// to asynchronous task execution and interleaving of dependent loops;
// the scaling knee appears at 16 threads where hyper-threading engages.

#include <cstdio>
#include <string>

#include <psim/testbed.hpp>

#include "bench_common.hpp"

int main() {
    using namespace benchutil;
    print_title("Figure 16", "strong-scaling speedup: omp vs dataflow");

    auto tb = psim::paper_testbed();

    // 1-thread baselines.
    psim::sim_options base;
    base.threads = 1;
    base.iterations = tb.iterations;
    base.chunking = psim::chunk_mode::omp_static;
    double const omp1 = simulate_fork_join(tb.machine, tb.airfoil, base).total_s;
    base.chunking = psim::chunk_mode::auto_chunk;
    double const df1 = simulate_dataflow(tb.machine, tb.airfoil, base).total_s;

    print_row({"threads", "omp_speedup", "df_speedup", "df_gain"});
    double gain32 = 0.0;
    for (int t : psim::paper_thread_counts()) {
        psim::sim_options o;
        o.threads = t;
        o.iterations = tb.iterations;
        o.chunking = psim::chunk_mode::omp_static;
        double const omp = simulate_fork_join(tb.machine, tb.airfoil, o).total_s;
        o.chunking = psim::chunk_mode::auto_chunk;
        double const df = simulate_dataflow(tb.machine, tb.airfoil, o).total_s;
        print_row({std::to_string(t), fmt(omp1 / omp, 2), fmt(df1 / df, 2),
                   pct(omp / df)});
        if (t == 32) {
            gain32 = omp / df - 1.0;
        }
    }
    std::printf("\npaper: ~33%% better performance for dataflow at high "
                "thread counts; modeled at 32 threads: %+.1f%%\n",
                gain32 * 100.0);
    return 0;
}
