#pragma once

#include <cstddef>
#include <vector>

#include <airfoil/mesh.hpp>
#include <op2/op2.hpp>

namespace airfoil {

/// Configuration of one Airfoil run.
struct app_config {
    mesh_params mesh;
    int niter = 100;  ///< outer pseudo-time iterations (paper: 1000)
    op2::backend be = op2::backend::seq;
    op2::loop_options opts;
    /// Record sqrt(rms/ncell) every `rms_stride` iterations (>=1).
    int rms_stride = 1;
    /// Fault-tolerant execution: checkpoint the state dats (q, qold,
    /// adt, res) every N iterations and, when an iteration segment
    /// fails (an injected fault, a throwing kernel, a quarantined
    /// read), roll back to the last checkpoint and re-issue the
    /// segment, up to `retries` times. Recovery is exact: the
    /// rms accumulators of a re-issued segment are re-zeroed and the
    /// dat bytes restored wholesale, so a recovered run's output is
    /// bitwise-identical to an undisturbed run of the same
    /// configuration. 0 disables checkpointing (the seed behaviour:
    /// issue everything, fence once).
    int checkpoint_every = 0;
    /// Rollback budget of the checkpointed march: how many failed
    /// segments may be restored and re-issued before the failure
    /// propagates. The loop layers themselves never retry (a loop is
    /// not idempotent mid-flight).
    std::size_t retries = 0;
};

/// Outcome of one run.
struct app_result {
    std::vector<double> rms_history;  ///< sampled residual trajectory
    double final_rms = 0.0;
    double elapsed_s = 0.0;           ///< wall-clock of the iteration loop
    std::vector<double> q_final;      ///< final conserved state (ncell*4)
    /// Checkpoint rollbacks taken (checkpoint_every > 0 only): how many
    /// failed segments were rolled back and re-issued successfully.
    int recoveries = 0;
};

/// The OP2 view of the Airfoil mesh: declared sets, maps, and dats.
/// Kept alive for the duration of the simulation.
struct problem {
    op2::op_set nodes, edges, bedges, cells;
    op2::op_map pedge, pecell, pbedge, pbecell, pcell;
    op2::op_dat p_bound, p_x, p_q, p_qold, p_adt, p_res;
    std::size_t ncell = 0;
};

/// Declare all OP2 entities for `m`.
problem make_problem(mesh const& m);

/// Run the five-loop Airfoil iteration (paper Fig. 2) on the configured
/// backend:
///  * seq / fork_join: loops execute synchronously (fork_join has the
///    OpenMP-style global barrier after every loop);
///  * hpx: all 2*niter*5 loops are *issued* up front and chained through
///    dat futures (dataflow interleaving, Section IV); the run fences at
///    the end.
app_result run(app_config const& cfg);

/// Convenience: run on an existing problem (shared by tests/benches).
app_result run(problem& prob, app_config const& cfg);

}  // namespace airfoil
