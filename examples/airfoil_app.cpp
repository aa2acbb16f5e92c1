// The Airfoil CFD application (paper Section II-B) end to end:
// generates (or loads) the mesh, runs the five-loop iteration on the
// chosen backend and reports the residual trajectory and timing.
// Doubles as the fault-tolerance demo: with --fault an injection plan
// is armed, and with --checkpoint-every/--retries the run checkpoints
// its state dats and recovers from the injected failures — the final
// output is bitwise-identical to an undisturbed run.
//
// Usage: airfoil_app [seq|fork_join|hpx] [nx ny] [niter]
//                    [--mesh-file PATH] [--checkpoint-every N]
//                    [--retries K] [--fault PLAN] [--watchdog-ms T]
//
//   --mesh-file PATH       load a new_grid.dat mesh instead of
//                          generating one (errors name file, section
//                          and line, and exit non-zero)
//   --checkpoint-every N   checkpoint q/qold/adt/res every N iterations
//   --retries K            roll a failed segment back up to K times
//   --fault PLAN           arm an op2::fault plan (see op2/fault.hpp;
//                          e.g. "kernel=res_calc@1.0")
//   --watchdog-ms T        report a graph dump after T ms without
//                          progress

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <airfoil/app.hpp>
#include <airfoil/mesh_io.hpp>
#include <op2/service.hpp>

namespace {

void help(char const* argv0, std::FILE* out) {
    std::fprintf(
        out,
        "usage: %s [seq|fork_join|hpx] [nx ny] [niter] [flags]\n"
        "\n"
        "positionals (in order):\n"
        "  backend                seq | fork_join | hpx (default hpx)\n"
        "  nx ny                  generated mesh size in cells "
        "(default 120 60)\n"
        "  niter                  time-march iterations (default 200)\n"
        "\n"
        "flags (anywhere on the command line):\n"
        "  --mesh-file PATH       load a new_grid.dat mesh instead of\n"
        "                         generating one\n"
        "  --checkpoint-every N   checkpoint q/qold/adt/res every N\n"
        "                         iterations\n"
        "  --retries K            roll a failed segment back up to K times\n"
        "  --fault PLAN           arm an op2::fault plan (op2/fault.hpp;\n"
        "                         e.g. \"kernel=res_calc@1.0\")\n"
        "  --watchdog-ms T        dump the epoch graph after T ms without\n"
        "                         progress\n"
        "  --service N            service mode: run N independent\n"
        "                         airfoil jobs concurrently through\n"
        "                         op2::service, admitted in submission\n"
        "                         order (see docs/service.md)\n"
        "  --help                 this text\n",
        argv0);
}

int usage(char const* argv0) {
    help(argv0, stderr);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    airfoil::app_config cfg;
    cfg.mesh.nx = 120;
    cfg.mesh.ny = 60;
    cfg.niter = 200;
    cfg.rms_stride = 20;
    cfg.be = op2::backend::hpx;

    std::string mesh_file;
    std::string fault_plan;
    long watchdog_ms = 0;
    int service_jobs = 0;

    // Flags may appear anywhere; positionals keep their seed order
    // (backend, nx ny, niter).
    int npos = 0;
    char const* pos[4] = {nullptr, nullptr, nullptr, nullptr};
    for (int i = 1; i < argc; ++i) {
        auto flag_value = [&](char const* name) -> char const* {
            if (std::strcmp(argv[i], name) != 0) {
                return nullptr;
            }
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s needs a value\n", argv[0],
                             name);
                std::exit(2);
            }
            return argv[++i];
        };
        if (char const* v = flag_value("--mesh-file")) {
            mesh_file = v;
        } else if (char const* v = flag_value("--checkpoint-every")) {
            cfg.checkpoint_every = std::atoi(v);
        } else if (char const* v = flag_value("--retries")) {
            cfg.retries = static_cast<std::size_t>(std::atol(v));
        } else if (char const* v = flag_value("--fault")) {
            fault_plan = v;
        } else if (char const* v = flag_value("--watchdog-ms")) {
            watchdog_ms = std::atol(v);
        } else if (char const* v = flag_value("--service")) {
            service_jobs = std::atoi(v);
        } else if (std::strcmp(argv[i], "--help") == 0) {
            help(argv[0], stdout);
            return 0;
        } else if (argv[i][0] == '-') {
            return usage(argv[0]);
        } else if (npos < 4) {
            pos[npos++] = argv[i];
        } else {
            return usage(argv[0]);
        }
    }
    if (npos > 0) {
        if (std::strcmp(pos[0], "seq") == 0) {
            cfg.be = op2::backend::seq;
        } else if (std::strcmp(pos[0], "fork_join") == 0) {
            cfg.be = op2::backend::fork_join;
        } else if (std::strcmp(pos[0], "hpx") == 0) {
            cfg.be = op2::backend::hpx;
        } else {
            return usage(argv[0]);
        }
    }
    if (npos > 2) {
        cfg.mesh.nx = static_cast<std::size_t>(std::atoi(pos[1]));
        cfg.mesh.ny = static_cast<std::size_t>(std::atoi(pos[2]));
    }
    if (npos > 3) {
        cfg.niter = std::atoi(pos[3]);
    }

    if (!fault_plan.empty()) {
        try {
            op2::fault::arm(fault_plan);
        } catch (std::exception const& e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 2;
        }
    }

    hpxlite::init();
    int rc = 0;
    try {
        std::optional<op2::exec::watchdog> dog;
        if (watchdog_ms > 0) {
            dog.emplace(std::chrono::milliseconds(watchdog_ms));
        }

        if (service_jobs > 0) {
            // Service mode: a fleet of independent airfoil jobs (three
            // mesh sizes) admitted in submission order and run
            // concurrently on the shared pool — each with its own mesh,
            // plans and fault scope (docs/service.md).
            std::printf("airfoil service: %d job(s)\n", service_jobs);
            op2::service::scheduler sched;
            auto results = std::vector<airfoil::app_result>(
                static_cast<std::size_t>(service_jobs));
            std::vector<op2::service::job> jobs;
            for (int k = 0; k < service_jobs; ++k) {
                airfoil::app_config jcfg = cfg;
                jcfg.mesh.nx =
                    std::max<std::size_t>(cfg.mesh.nx / 4, 8)
                    << (k % 3);
                jcfg.mesh.ny = std::max<std::size_t>(cfg.mesh.ny / 4, 8);
                jcfg.niter = std::max(cfg.niter / 10, 2);
                jcfg.rms_stride = jcfg.niter;
                op2::service::job_desc d;
                d.name = "airfoil" + std::to_string(k);
                d.est_bytes =
                    jcfg.mesh.nx * jcfg.mesh.ny * 7 * sizeof(double);
                auto* out = &results[static_cast<std::size_t>(k)];
                d.program = [jcfg, out] { *out = airfoil::run(jcfg); };
                jobs.push_back(sched.submit(std::move(d)));
            }
            sched.drain();
            for (std::size_t k = 0; k < jobs.size(); ++k) {
                auto const& j = jobs[k];
                auto const m = j.metrics();
                std::printf(
                    "  %-10s %-9s wait %7.2f ms  run %8.2f ms  "
                    "%4llu loops  rms %.6e\n",
                    j.name().c_str(),
                    j.failed() ? "FAILED" : "completed", m.wait_s * 1e3,
                    m.run_s * 1e3,
                    static_cast<unsigned long long>(m.loops_issued),
                    results[k].rms_history.empty()
                        ? 0.0
                        : results[k].rms_history.back());
            }
            auto const sm = sched.metrics();
            std::printf(
                "service: %llu/%llu job(s) completed, %.1f jobs/s, "
                "p95 %.2f ms, p99 %.2f ms\n",
                static_cast<unsigned long long>(sm.completed),
                static_cast<unsigned long long>(sm.submitted),
                sm.throughput_jobs_s, sm.p95_latency_s * 1e3,
                sm.p99_latency_s * 1e3);
            hpxlite::finalize();
            return sm.failed == 0 ? 0 : 1;
        }

        airfoil::app_result result;
        if (!mesh_file.empty()) {
            airfoil::mesh m = airfoil::read_mesh_file(mesh_file);
            std::printf(
                "airfoil: %zu nodes / %zu cells from %s, %d iterations, "
                "backend=%s\n",
                m.nnode, m.ncell, mesh_file.c_str(), cfg.niter,
                op2::to_string(cfg.be));
            airfoil::problem prob = airfoil::make_problem(m);
            result = airfoil::run(prob, cfg);
        } else {
            std::printf(
                "airfoil: %zux%zu cells, %d iterations, backend=%s\n",
                cfg.mesh.nx, cfg.mesh.ny, cfg.niter,
                op2::to_string(cfg.be));
            result = airfoil::run(cfg);
        }

        int it = cfg.rms_stride;
        for (double r : result.rms_history) {
            std::printf("  iter %6d  rms %.10e\n", it, r);
            it += cfg.rms_stride;
        }
        std::printf("elapsed: %.4f s  (%.2f us per cell-iteration)\n",
                    result.elapsed_s,
                    result.elapsed_s * 1e6 /
                        (static_cast<double>(cfg.mesh.nx * cfg.mesh.ny) *
                         cfg.niter));
        if (cfg.checkpoint_every > 0) {
            std::printf("checkpoint: every %d iteration(s), %d recover%s\n",
                        cfg.checkpoint_every, result.recoveries,
                        result.recoveries == 1 ? "y" : "ies");
        }

        std::printf("\nper-loop timing (op_timing_output):\n");
        std::ostringstream os;
        op2::op_timing_output(os);
        std::fputs(os.str().c_str(), stdout);
    } catch (airfoil::mesh_io_error const& e) {
        // Structured mesh failure: the message already names file,
        // section and line — report it and exit non-zero.
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        rc = 1;
    } catch (std::exception const& e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        rc = 1;
    }

    hpxlite::finalize();
    return rc;
}
