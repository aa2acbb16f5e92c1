#include <airfoil/app.hpp>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include <airfoil/kernels.hpp>
#include <hpxlite/util/timing.hpp>

namespace airfoil {

using namespace op2;

problem make_problem(mesh const& m) {
    problem p;
    p.ncell = m.ncell;

    p.nodes = op_decl_set(m.nnode, "nodes");
    p.edges = op_decl_set(m.nedge, "edges");
    p.bedges = op_decl_set(m.nbedge, "bedges");
    p.cells = op_decl_set(m.ncell, "cells");

    p.pedge = op_decl_map(p.edges, p.nodes, 2, m.pedge, "pedge");
    p.pecell = op_decl_map(p.edges, p.cells, 2, m.pecell, "pecell");
    p.pbedge = op_decl_map(p.bedges, p.nodes, 2, m.pbedge, "pbedge");
    p.pbecell = op_decl_map(p.bedges, p.cells, 1, m.pbecell, "pbecell");
    p.pcell = op_decl_map(p.cells, p.nodes, 4, m.pcell, "pcell");

    p.p_bound = op_decl_dat(p.bedges, 1, "int", m.bound, "p_bound");
    p.p_x = op_decl_dat(p.nodes, 2, "double", m.x, "p_x");
    p.p_q = op_decl_dat(p.cells, 4, "double", m.q_init, "p_q");
    p.p_qold = op_decl_dat_zero<double>(p.cells, 4, "double", "p_qold");
    p.p_adt = op_decl_dat_zero<double>(p.cells, 1, "double", "p_adt");
    p.p_res = op_decl_dat_zero<double>(p.cells, 4, "double", "p_res");
    return p;
}

namespace {

/// One inner step (the paper's Fig. 2 loop chain, issued on `be`).
/// `rms` must point to stable storage when be == hpx. When `handles`
/// is non-null every issued loop's handle is appended — the
/// checkpoint-recovering driver gets failures at segment granularity
/// through handle.get() instead of one terminal fence.
void issue_step(problem& p, op2::backend be, loop_options const& opts,
                double* rms,
                std::vector<exec::loop_handle>* handles = nullptr) {
    namespace k = airfoil::kernels;

    // All backends dispatch through the exec layer; with hpx_dataflow the
    // whole time-march chain is merely *issued* here — the staged kernels
    // run asynchronously out of the epoch graph and the caller fences
    // once at the end of the run.
    loop_options lo = opts;
    lo.backend = to_exec_backend(be);
    auto loop = [&](char const* name, op_set const& set, auto kernel,
                    auto... args) {
        auto h = exec::run_loop(lo, name, set, kernel, args...);
        if (handles != nullptr) {
            handles->push_back(std::move(h));
        }
    };

    loop("save_soln", p.cells, k::save_soln,
         op_arg_dat(p.p_q, -1, OP_ID, 4, "double", OP_READ),
         op_arg_dat(p.p_qold, -1, OP_ID, 4, "double", OP_WRITE));

    for (int kk = 0; kk < 2; ++kk) {
        loop("adt_calc", p.cells, k::adt_calc,
             op_arg_dat(p.p_x, 0, p.pcell, 2, "double", OP_READ),
             op_arg_dat(p.p_x, 1, p.pcell, 2, "double", OP_READ),
             op_arg_dat(p.p_x, 2, p.pcell, 2, "double", OP_READ),
             op_arg_dat(p.p_x, 3, p.pcell, 2, "double", OP_READ),
             op_arg_dat(p.p_q, -1, OP_ID, 4, "double", OP_READ),
             op_arg_dat(p.p_adt, -1, OP_ID, 1, "double", OP_WRITE));

        loop("res_calc", p.edges, k::res_calc,
             op_arg_dat(p.p_x, 0, p.pedge, 2, "double", OP_READ),
             op_arg_dat(p.p_x, 1, p.pedge, 2, "double", OP_READ),
             op_arg_dat(p.p_q, 0, p.pecell, 4, "double", OP_READ),
             op_arg_dat(p.p_q, 1, p.pecell, 4, "double", OP_READ),
             op_arg_dat(p.p_adt, 0, p.pecell, 1, "double", OP_READ),
             op_arg_dat(p.p_adt, 1, p.pecell, 1, "double", OP_READ),
             op_arg_dat(p.p_res, 0, p.pecell, 4, "double", OP_INC),
             op_arg_dat(p.p_res, 1, p.pecell, 4, "double", OP_INC));

        loop("bres_calc", p.bedges, k::bres_calc,
             op_arg_dat(p.p_x, 0, p.pbedge, 2, "double", OP_READ),
             op_arg_dat(p.p_x, 1, p.pbedge, 2, "double", OP_READ),
             op_arg_dat(p.p_q, 0, p.pbecell, 4, "double", OP_READ),
             op_arg_dat(p.p_adt, 0, p.pbecell, 1, "double", OP_READ),
             op_arg_dat(p.p_res, 0, p.pbecell, 4, "double", OP_INC),
             op_arg_dat(p.p_bound, -1, OP_ID, 1, "int", OP_READ));

        loop("update", p.cells, k::update,
             op_arg_dat(p.p_qold, -1, OP_ID, 4, "double", OP_READ),
             op_arg_dat(p.p_q, -1, OP_ID, 4, "double", OP_WRITE),
             op_arg_dat(p.p_res, -1, OP_ID, 4, "double", OP_RW),
             op_arg_dat(p.p_adt, -1, OP_ID, 1, "double", OP_READ),
             op_arg_gbl(rms, 1, "double", OP_INC));
    }
}

}  // namespace

app_result run(problem& p, app_config const& cfg) {
    if (cfg.niter <= 0) {
        throw std::invalid_argument("airfoil::run: niter must be positive");
    }
    int const stride = cfg.rms_stride < 1 ? 1 : cfg.rms_stride;

    app_result result;
    // Per-iteration rms accumulators; stable storage so the hpx backend
    // can keep the whole pipeline in flight and fence only once.
    std::vector<double> rms(static_cast<std::size_t>(cfg.niter), 0.0);

    hpxlite::util::stopwatch sw;
    if (cfg.checkpoint_every > 0) {
        // Fault-tolerant march: checkpoint the state dats every N
        // iterations and re-issue a failed segment from the last
        // checkpoint, up to cfg.retries rollbacks. Recovery is exact —
        // the restored bytes and the re-zeroed rms accumulators make a
        // recovered run bitwise-identical to an undisturbed one.
        std::vector<op_dat> const state = {p.p_q, p.p_qold, p.p_adt,
                                           p.p_res};
        exec::checkpoint ckpt;
        ckpt.capture(state);
        std::size_t tries = cfg.retries;
        std::vector<exec::loop_handle> handles;
        int it = 0;
        while (it < cfg.niter) {
            int const seg_end =
                std::min(cfg.niter, it + cfg.checkpoint_every);
            try {
                handles.clear();
                for (int i = it; i < seg_end; ++i) {
                    // Re-issued iterations must re-accumulate from
                    // zero: OP_INC globals are not covered by the dat
                    // checkpoint.
                    rms[static_cast<std::size_t>(i)] = 0.0;
                    issue_step(p, cfg.be, cfg.opts,
                               &rms[static_cast<std::size_t>(i)],
                               &handles);
                }
                for (auto const& h : handles) {
                    h.get();
                }
                ckpt.capture(state);  // segment good: advance the epoch
                it = seg_end;
            } catch (...) {
                if (tries == 0) {
                    throw;
                }
                --tries;
                ++result.recoveries;
                // Quiesce whatever is still in flight (failed nodes
                // skip their bodies), then restore the last good epoch
                // — contents, dependency records, and quarantine.
                op_fence_all();
                ckpt.rollback();
            }
        }
    } else {
        for (int it = 0; it < cfg.niter; ++it) {
            issue_step(p, cfg.be, cfg.opts,
                       &rms[static_cast<std::size_t>(it)]);
        }
        if (cfg.be == backend::hpx) {
            op_fence_all();
        }
    }
    result.elapsed_s = sw.elapsed_s();

    for (int it = 0; it < cfg.niter; ++it) {
        if ((it + 1) % stride == 0 || it + 1 == cfg.niter) {
            result.rms_history.push_back(
                std::sqrt(rms[static_cast<std::size_t>(it)] /
                          static_cast<double>(2 * p.ncell)));
        }
    }
    result.final_rms = result.rms_history.empty() ? 0.0
                                                  : result.rms_history.back();
    auto qv = p.p_q.view<double>();
    result.q_final.assign(qv.begin(), qv.end());
    return result;
}

app_result run(app_config const& cfg) {
    mesh m = make_mesh(cfg.mesh);
    problem p = make_problem(m);
    return run(p, cfg);
}

}  // namespace airfoil
