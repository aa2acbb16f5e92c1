// perfbench: the op2hpx Airfoil benchmark (workloads, metrics and the
// layer map are documented in README.md next to this file).
//
//   perfbench --workload airfoil_large|airfoil_small
//             --seed N --seconds S --trace 0|1 [--out DIR]
//
// Drives the public API from outside: airfoil::make_mesh /
// make_problem / run, op2::exec::run_loop, op2::op_fence_all,
// op2::plan_build / plan_cache_size, op2::service::scheduler and the
// hpxlite pool counters. Every loop runs with default loop_options.
// The last line of stdout is one JSON object: correct, attempted,
// failed, metrics (end-to-end metrics with --trace 0, per-layer metrics
// with --trace 1).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <optional>
#include <random>
#include <sched.h>
#include <string>
#include <string_view>
#include <vector>

#include <airfoil/app.hpp>
#include <airfoil/kernels.hpp>
#include <airfoil/mesh.hpp>
#include <hpxlite/runtime.hpp>
#include <op2/op2.hpp>

#include "trace.hpp"

extern char** environ;

namespace {

using namespace perfbench;
using op2::backend;

// ------------------------------------------------------------ settings

/// Setups per run; setup_s is their median.
constexpr int kSetupReps = 7;
/// Correctness tolerance against the seq reference march: q normwise
/// (max |dq| / max |q_ref|) and final rms relative.
constexpr double kTolQ = 1e-10;
constexpr double kTolRms = 1e-6;
/// Service jobs submitted one at a time by the traced runs to give the
/// service layer's numbers on the workload's own mesh.
constexpr int kProbeJobs = 3;

struct airfoil_shape {
    std::size_t nx;
    std::size_t ny;
    int iters;  ///< iterations per march
};

constexpr airfoil_shape kLarge{600, 300, 8};
constexpr airfoil_shape kSmall{48, 24, 200};

constexpr std::array<char const*, 5> kLoopNames{
    "save_soln", "adt_calc", "res_calc", "bres_calc", "update"};

// --------------------------------------------------------------- stats

double median(std::vector<double> v) {
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    std::size_t const n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Mean of the middle 80 % of the samples. seq marches rotate over the
/// CPUs (run_rounds), and on a shared host some CPUs run slower than
/// others for seconds at a time, so the samples come in clusters whose
/// shares shift from run to run. A median jumps between the clusters
/// as the shares shift; this mean moves with them smoothly, and
/// dropping 10 % at each end keeps single stalls out of it.
double trimmed_mean(std::vector<double> v) {
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    std::size_t const cut = v.size() / 10;
    double sum = 0.0;
    for (std::size_t i = cut; i < v.size() - cut; ++i) {
        sum += v[i];
    }
    return sum / static_cast<double>(v.size() - 2 * cut);
}

/// The highest percentile, up to p90, with at least ten samples beyond
/// it: the (n-10)-th smallest sample, or the p90 sample once n >= 100
/// (the maximum below 11 samples). It moves smoothly with n, so runs
/// that complete a few more or fewer marches stay comparable; the cap
/// keeps it off the few samples a burst of host contention decides.
struct tail_stat {
    double value = 0.0;
    double pct = 100.0;
    std::size_t n = 0;
    std::size_t beyond = 0;
};

tail_stat tail(std::vector<double> v) {
    tail_stat t;
    t.n = v.size();
    if (v.empty()) {
        return t;
    }
    std::sort(v.begin(), v.end());
    std::size_t rank = t.n;  // 1-based
    if (t.n > 10) {
        rank = std::min(t.n - 10, static_cast<std::size_t>(std::ceil(
                                      0.90 * static_cast<double>(t.n))));
    }
    t.value = v[rank - 1];
    t.beyond = t.n - rank;
    t.pct = 100.0 * static_cast<double>(rank) / static_cast<double>(t.n);
    return t;
}

double seconds_since(std::int64_t t0_ns) {
    return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

struct usage {
    double cpu_s = 0.0;
    long csw = 0;
};

usage sample_usage() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    usage u;
    u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                         ru.ru_stime.tv_usec);
    u.csw = ru.ru_nvcsw + ru.ru_nivcsw;
    return u;
}

// -------------------------------------------------------------- report

struct metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
    bool in_json = true;  ///< false: printed for reading only
};

struct report {
    std::vector<metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t bitwise = 0;   ///< checked results bitwise-equal to seq
    std::uint64_t mismatch = 0;  ///< traced chains that differ from run()
    std::vector<std::string> notes;

    void add(std::string name, double value, std::string unit,
             std::string note = {}) {
        metrics.push_back({std::move(name), value, std::move(unit),
                           std::move(note)});
    }
    /// Tails are printed, not part of the JSON result: their ten-run
    /// quartile spread on a shared host exceeds any bound worth setting.
    void add_tail(std::string const& name, std::vector<double> const& v,
                  std::string const& unit) {
        auto const t = tail(v);
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      "p%.1f of n=%zu, %zu beyond (printed only)", t.pct,
                      t.n, t.beyond);
        add(name, t.value, unit, buf);
        metrics.back().in_json = false;
    }
};

// ------------------------------------------------------ the loop chain

/// The five Airfoil loops with the argument lists airfoil::run issues
/// them with; `v(index, set, kernel, args...)` is called for loop
/// `which` (index into kLoopNames).
template <typename Visit>
void visit_loop(int which, airfoil::problem& p, double* rms, Visit&& v) {
    using namespace op2;
    namespace k = airfoil::kernels;
    switch (which) {
        case 0:
            v(0, p.cells, k::save_soln,
              op_arg_dat(p.p_q, -1, OP_ID, 4, "double", OP_READ),
              op_arg_dat(p.p_qold, -1, OP_ID, 4, "double", OP_WRITE));
            break;
        case 1:
            v(1, p.cells, k::adt_calc,
              op_arg_dat(p.p_x, 0, p.pcell, 2, "double", OP_READ),
              op_arg_dat(p.p_x, 1, p.pcell, 2, "double", OP_READ),
              op_arg_dat(p.p_x, 2, p.pcell, 2, "double", OP_READ),
              op_arg_dat(p.p_x, 3, p.pcell, 2, "double", OP_READ),
              op_arg_dat(p.p_q, -1, OP_ID, 4, "double", OP_READ),
              op_arg_dat(p.p_adt, -1, OP_ID, 1, "double", OP_WRITE));
            break;
        case 2:
            v(2, p.edges, k::res_calc,
              op_arg_dat(p.p_x, 0, p.pedge, 2, "double", OP_READ),
              op_arg_dat(p.p_x, 1, p.pedge, 2, "double", OP_READ),
              op_arg_dat(p.p_q, 0, p.pecell, 4, "double", OP_READ),
              op_arg_dat(p.p_q, 1, p.pecell, 4, "double", OP_READ),
              op_arg_dat(p.p_adt, 0, p.pecell, 1, "double", OP_READ),
              op_arg_dat(p.p_adt, 1, p.pecell, 1, "double", OP_READ),
              op_arg_dat(p.p_res, 0, p.pecell, 4, "double", OP_INC),
              op_arg_dat(p.p_res, 1, p.pecell, 4, "double", OP_INC));
            break;
        case 3:
            v(3, p.bedges, k::bres_calc,
              op_arg_dat(p.p_x, 0, p.pbedge, 2, "double", OP_READ),
              op_arg_dat(p.p_x, 1, p.pbedge, 2, "double", OP_READ),
              op_arg_dat(p.p_q, 0, p.pbecell, 4, "double", OP_READ),
              op_arg_dat(p.p_adt, 0, p.pbecell, 1, "double", OP_READ),
              op_arg_dat(p.p_res, 0, p.pbecell, 4, "double", OP_INC),
              op_arg_dat(p.p_bound, -1, OP_ID, 1, "int", OP_READ));
            break;
        default:
            v(4, p.cells, k::update,
              op_arg_dat(p.p_qold, -1, OP_ID, 4, "double", OP_READ),
              op_arg_dat(p.p_q, -1, OP_ID, 4, "double", OP_WRITE),
              op_arg_dat(p.p_res, -1, OP_ID, 4, "double", OP_RW),
              op_arg_dat(p.p_adt, -1, OP_ID, 1, "double", OP_READ),
              op_arg_gbl(rms, 1, "double", OP_INC));
            break;
    }
}

/// One iteration of the chain in airfoil::run's issue order.
template <typename Visit>
void chain_step(airfoil::problem& p, double* rms, Visit&& v) {
    visit_loop(0, p, rms, v);
    for (int kk = 0; kk < 2; ++kk) {
        for (int which = 1; which <= 4; ++which) {
            visit_loop(which, p, rms, v);
        }
    }
}

struct loop_args {
    op2::op_set set;
    std::vector<op2::op_arg> args;
};

std::array<loop_args, 5> five_loops(airfoil::problem& p, double* rms) {
    std::array<loop_args, 5> out;
    for (int which = 0; which < 5; ++which) {
        visit_loop(which, p, rms,
                   [&](int li, op2::op_set const& set, auto /*kernel*/,
                       auto... args) {
                       out[static_cast<std::size_t>(li)] = {set, {args...}};
                   });
    }
    return out;
}

/// Computed bytes of one call (README.md, "Computed bytes"): per element
/// of the iteration set, dim * sizeof(T) per dat argument — once for
/// READ and WRITE, twice for RW and INC (read plus write) — plus one
/// 4-byte map entry per distinct (map, slot). Global arguments are free.
double loop_bytes(loop_args const& l) {
    double per_elem = 0.0;
    std::vector<std::pair<std::uint64_t, int>> slots;
    for (auto const& a : l.args) {
        if (a.is_gbl()) {
            continue;
        }
        bool const twice = a.acc == op2::OP_RW || a.acc == op2::OP_INC;
        per_elem += static_cast<double>(a.dim) *
                    static_cast<double>(a.dat.elem_bytes()) * (twice ? 2 : 1);
        if (a.is_indirect()) {
            std::pair<std::uint64_t, int> const s{a.map.id(), a.idx};
            if (std::find(slots.begin(), slots.end(), s) == slots.end()) {
                slots.push_back(s);
                per_elem += sizeof(int);
            }
        }
    }
    return per_elem * static_cast<double>(l.set.size());
}

/// Cold plan_build of the five loops at `nparts` partitions (the hpx
/// default: one per pool worker), in ms. Call on a freshly declared
/// problem: the colour memo is keyed by set.
double plan_build_ms(airfoil::problem& p, std::size_t nparts) {
    double rms = 0.0;
    auto const loops = five_loops(p, &rms);
    span_scope s("plan_build", "op2.plan", "five loops");
    std::size_t blocks = 0;
    for (auto const& l : loops) {
        for (std::size_t part = 0; part < nparts; ++part) {
            blocks += op2::plan_build(l.set, l.args,
                                      op2::plan_desc{op2::default_part_size,
                                                     true, nparts, part})
                          .nblocks;
        }
    }
    if (blocks == 0) {
        throw std::runtime_error("plan_build produced no blocks");
    }
    return s.close();
}

// ------------------------------------------------------------- marches

/// Result of one march plus what the traced chain measured.
struct march_out {
    backend be = backend::seq;
    int iters = 0;
    std::vector<double> q;
    double rms = 0.0;
    double wall_ms = 0.0;
    // traced chain only
    bool wait_each = false;
    std::array<std::vector<double>, 5> call_ms;  ///< per run_loop call
    double issue_ms = 0.0;                       ///< sum of call_ms
    double fence_ms = 0.0;                       ///< op_fence_all
    std::array<double, 5> done_ms{};            ///< completion increments
    double cpu_s = 0.0;
    long csw = 0;
    std::uint64_t tasks = 0;
};

/// The march as airfoil::run issues it (whole chain, one fence).
march_out plain_march(airfoil::problem& p, backend be, int iters) {
    airfoil::app_config cfg;
    cfg.be = be;
    cfg.niter = iters;
    cfg.rms_stride = iters;
    auto r = airfoil::run(p, cfg);
    march_out m;
    m.be = be;
    m.iters = iters;
    m.q = std::move(r.q_final);
    m.rms = r.final_rms;
    m.wall_ms = r.elapsed_s * 1e3;
    return m;
}

/// The same chain issued by the benchmark through run_loop, with a span
/// around every call. hpx marches either fence once (op_fence_all) or,
/// with `wait_each`, wait every handle in issue order and attribute the
/// time between consecutive completions to the loop that completed.
march_out traced_march(airfoil::problem& p, backend be, int iters,
                       bool wait_each) {
    march_out m;
    m.be = be;
    m.iters = iters;
    bool const async = be == backend::hpx;
    m.wait_each = async && wait_each;

    op2::loop_options lo;
    lo.backend = op2::to_exec_backend(be);
    std::vector<double> rms(static_cast<std::size_t>(iters), 0.0);
    std::vector<op2::exec::loop_handle> handles;
    std::vector<int> handle_loop;

    auto& pool = hpxlite::get_pool();
    usage const u0 = sample_usage();
    std::uint64_t const tasks0 = pool.tasks_executed();
    span_scope march("march", "airfoil", op2::to_string(be));
    for (int it = 0; it < iters; ++it) {
        chain_step(p, &rms[static_cast<std::size_t>(it)],
                   [&](int li, op2::op_set const& set, auto kernel,
                       auto... args) {
                       auto const l = static_cast<std::size_t>(li);
                       span_scope s("run_loop", "op2.exec", kLoopNames[l]);
                       auto h = op2::exec::run_loop(lo, kLoopNames[l], set,
                                                    kernel, args...);
                       double const ms = s.close();
                       m.call_ms[l].push_back(ms);
                       m.issue_ms += ms;
                       if (m.wait_each) {
                           handles.push_back(std::move(h));
                           handle_loop.push_back(li);
                       }
                   });
    }
    if (async) {
        for (std::size_t h = 0; h < handles.size(); ++h) {
            auto const l = static_cast<std::size_t>(handle_loop[h]);
            span_scope s("wait", "op2.exec", kLoopNames[l]);
            handles[h].get();
            m.done_ms[l] += s.close();
        }
        span_scope f("op_fence_all", "op2.exec");
        op2::op_fence_all();
        m.fence_ms = f.close();
    }
    m.wall_ms = march.close();
    usage const u1 = sample_usage();
    m.cpu_s = u1.cpu_s - u0.cpu_s;
    m.csw = u1.csw - u0.csw;
    m.tasks = pool.tasks_executed() - tasks0;

    auto const qv = p.p_q.view<double>();
    m.q.assign(qv.begin(), qv.end());
    m.rms = std::sqrt(rms.back() / static_cast<double>(2 * p.ncell));
    return m;
}

// ---------------------------------------------------------- correctness

struct reference {
    std::vector<double> q;
    double rms = 0.0;
};

bool bitwise_equal(std::vector<double> const& a, double ra,
                   std::vector<double> const& b, double rb) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0 &&
           std::memcmp(&ra, &rb, sizeof(double)) == 0;
}

/// Within tolerance of the seq reference (NaN fails).
bool matches(std::vector<double> const& q, double rms, reference const& ref) {
    if (q.size() != ref.q.size() || !(std::abs(rms - ref.rms) <=
                                      kTolRms * std::abs(ref.rms))) {
        return false;
    }
    double scale = 0.0;
    double diff = 0.0;
    for (std::size_t i = 0; i < q.size(); ++i) {
        scale = std::max(scale, std::abs(ref.q[i]));
        double const d = std::abs(q[i] - ref.q[i]);
        if (!(d <= diff)) {
            diff = d;  // also catches NaN
        }
    }
    return diff <= kTolQ * scale;
}

/// Count one march/job against the reference.
void check(report& rep, march_out const& m, reference const& ref) {
    ++rep.attempted;
    if (!matches(m.q, m.rms, ref)) {
        ++rep.failed;
    } else if (bitwise_equal(m.q, m.rms, ref.q, ref.rms)) {
        ++rep.bitwise;
    }
}

// --------------------------------------------------- a declared problem

struct bench_problem {
    airfoil_shape shape{};
    airfoil::problem prob;
    std::vector<double> q_init;
    reference ref;  ///< seq march from the initial state
    /// airfoil::run's march on each backend from the initial state: the
    /// traced chain must reproduce it bit for bit.
    std::map<backend, march_out> by_run;
    double mesh_s = 0.0;
    double declare_s = 0.0;
};

/// Restore the initial state (every dat the chain writes).
void reset(bench_problem& bp) {
    op2::op_fence_all();
    auto q = bp.prob.p_q.view<double>();
    std::copy(bp.q_init.begin(), bp.q_init.end(), q.begin());
    for (auto* d : {&bp.prob.p_qold, &bp.prob.p_adt, &bp.prob.p_res}) {
        auto v = d->view<double>();
        std::fill(v.begin(), v.end(), 0.0);
    }
}

void declare(bench_problem& bp, airfoil_shape shape) {
    bp.shape = shape;
    std::int64_t t = now_ns();
    airfoil::mesh m;
    {
        span_scope s("make_mesh", "airfoil");
        m = airfoil::make_mesh({shape.nx, shape.ny});
    }
    bp.mesh_s = seconds_since(t);
    t = now_ns();
    {
        span_scope s("make_problem", "airfoil");
        bp.prob = airfoil::make_problem(m);
    }
    bp.declare_s = seconds_since(t);
    bp.q_init = m.q_init;
}

/// Warm-up marches from the initial state on `backends`; seq first, as
/// the reference.
void warm_up(bench_problem& bp, std::vector<backend> const& backends) {
    bp.by_run.clear();
    for (backend be : backends) {
        reset(bp);
        bp.by_run[be] = plain_march(bp.prob, be, bp.shape.iters);
    }
    bp.ref = {bp.by_run.at(backend::seq).q, bp.by_run.at(backend::seq).rms};
}

// -------------------------------------------------------------- rounds

/// The CPUs this process may run on, in order.
std::vector<int> allowed_cpus() {
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set)) {
                cpus.push_back(c);
            }
        }
    }
    return cpus;
}

/// Pins the calling thread to one CPU while it lives, then restores its
/// mask. Best effort: where the kernel refuses, nothing changes.
class pin_scope {
public:
    explicit pin_scope(int cpu) {
        CPU_ZERO(&prev_);
        pinned_ = sched_getaffinity(0, sizeof prev_, &prev_) == 0;
        if (pinned_) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
        }
    }
    ~pin_scope() {
        if (pinned_) {
            sched_setaffinity(0, sizeof prev_, &prev_);
        }
    }
    pin_scope(pin_scope const&) = delete;
    pin_scope& operator=(pin_scope const&) = delete;

private:
    cpu_set_t prev_;
    bool pinned_ = false;
};

struct round_log {
    std::map<backend, std::vector<double>> per_iter_ms;
    std::vector<march_out> traced;
};

/// Rounds of one march per backend (seeded order each round) from the
/// same initial state, for `seconds` (at least three rounds). Traced
/// rounds issue the chain through run_loop; their hpx marches alternate
/// between one fence and per-handle waits.
void run_rounds(bench_problem& bp, std::vector<backend> backends,
                double seconds, bool traced, std::mt19937_64& rng,
                report& rep, round_log& log) {
    int const iters = bp.shape.iters;
    static std::vector<int> const cpus = allowed_cpus();
    std::int64_t const t0 = now_ns();
    for (std::size_t round = 0;
         round < 3 || seconds_since(t0) < seconds; ++round) {
        std::shuffle(backends.begin(), backends.end(), rng);
        for (backend be : backends) {
            reset(bp);
            // A seq march runs on this thread alone, so it would time
            // whichever core the scheduler happens to keep it on; on a
            // shared host one core's speed drifts on its own. Round r
            // runs it on the r-th allowed CPU, so every run samples all
            // of them. Parallel marches use every core anyway.
            std::optional<pin_scope> pin;
            if (be == backend::seq && !cpus.empty()) {
                pin.emplace(cpus[round % cpus.size()]);
            }
            march_out m;
            try {
                if (traced) {
                    group_scope march_group(spans().next_id(), 0);
                    m = traced_march(bp.prob, be, iters, round % 2 == 1);
                } else {
                    m = plain_march(bp.prob, be, iters);
                }
            } catch (std::exception const& e) {
                ++rep.attempted;
                ++rep.failed;
                rep.notes.push_back(std::string("march failed: ") + e.what());
                continue;
            }
            check(rep, m, bp.ref);
            if (traced) {
                auto const& run = bp.by_run.at(be);
                // hpx combines rms partials in partition-completion
                // order, so its rms varies in the last bits between two
                // airfoil::run calls as well: q must match bit for bit,
                // rms within the tolerance.
                bool const same =
                    be == backend::hpx
                        ? bitwise_equal(m.q, 0.0, run.q, 0.0) &&
                              std::abs(m.rms - run.rms) <=
                                  kTolRms * std::abs(run.rms)
                        : bitwise_equal(m.q, m.rms, run.q, run.rms);
                if (!same) {
                    ++rep.mismatch;
                }
            }
            log.per_iter_ms[be].push_back(m.wall_ms / iters);
            if (traced) {
                log.traced.push_back(std::move(m));
            }
        }
    }
}

// ------------------------------------------------------------- service

struct job_out {
    march_out march;
    double setup_ms = 0.0;
};

/// The body of one service job: declare its own mesh, then march it on
/// hpx through the traced chain.
void job_body(airfoil_shape shape, bool wait_each, std::uint64_t group,
              std::uint64_t parent, job_out* out) {
    group_scope gs(group, parent);
    span_scope body("job", "op2.service");
    bench_problem bp;
    declare(bp, shape);
    out->setup_ms = (bp.mesh_s + bp.declare_s) * 1e3;
    out->march = traced_march(bp.prob, backend::hpx, shape.iters, wait_each);
}

/// Service jobs of the workload's own mesh, submitted one at a time to
/// a scheduler with default options (fifo, purge_plans on): the
/// service.* rows. Each job is checked against the seq reference.
void service_probe(bench_problem const& bp, report& rep) {
    airfoil_shape const shape = bp.shape;
    std::vector<double> submit_us;
    std::vector<double> wait_ms;
    std::vector<double> run_ms;
    std::vector<double> setup_ms;
    std::vector<double> march_ms;
    op2::service::scheduler sched(op2::service::scheduler_options{});
    for (int i = 0; i < kProbeJobs; ++i) {
        job_out out;
        op2::service::job_desc d;
        d.name = "probe" + std::to_string(i);
        d.est_loops = static_cast<std::uint64_t>(shape.iters) * 9;
        d.est_bytes = shape.nx * shape.ny * 16 * sizeof(double);
        std::uint64_t const group = spans().next_id();
        group_scope gs(group, 0);
        span_scope sub("submit", "op2.service", "job");
        d.program = [shape, wait_each = i % 2 == 1, group,
                     parent = sub.id(), o = &out] {
            job_body(shape, wait_each, group, parent, o);
        };
        op2::service::job job = sched.submit(std::move(d));
        submit_us.push_back(sub.close() * 1e3);
        job.wait();
        if (job.failed()) {
            ++rep.attempted;
            ++rep.failed;
            try {
                job.rethrow();
            } catch (std::exception const& e) {
                rep.notes.push_back(std::string("job failed: ") + e.what());
            }
            continue;
        }
        check(rep, out.march, bp.ref);
        auto const jm = job.metrics();
        wait_ms.push_back(jm.wait_s * 1e3);
        run_ms.push_back(jm.run_s * 1e3);
        setup_ms.push_back(out.setup_ms);
        march_ms.push_back(out.march.wall_ms);
    }
    rep.add("service.submit_us", median(submit_us), "us");
    rep.add("service.wait_ms", median(wait_ms), "ms");
    rep.add("service.run_ms", median(run_ms), "ms");
    rep.add("service.job_setup_ms", median(setup_ms), "ms");
    rep.add("service.job_march_ms", median(march_ms), "ms");
}

// ---------------------------------------------------- per-layer tables

/// Per-layer exec/memory numbers from traced marches of one problem.
void exec_layers(std::vector<march_out> const& marches,
                 airfoil::problem& p, report& rep) {
    std::vector<double> issue_us;
    std::vector<double> issue_share;
    std::vector<double> fence_ms;
    std::array<std::vector<double>, 5> seq_ms;
    std::array<std::vector<double>, 5> fj_ms;
    std::array<std::vector<double>, 5> done_ms;
    std::vector<double> busy_fj;
    for (auto const& m : marches) {
        for (std::size_t l = 0; l < 5; ++l) {
            auto& dst = m.be == backend::seq         ? seq_ms[l]
                        : m.be == backend::fork_join ? fj_ms[l]
                                                     : done_ms[l];
            if (m.be != backend::hpx) {
                dst.insert(dst.end(), m.call_ms[l].begin(),
                           m.call_ms[l].end());
            } else if (m.wait_each) {
                dst.push_back(m.done_ms[l] / m.iters);
            }
        }
        if (m.be == backend::fork_join) {
            busy_fj.push_back(m.cpu_s / (m.wall_ms * 1e-3));
        }
        if (m.be != backend::hpx) {
            continue;
        }
        for (auto const& calls : m.call_ms) {
            for (double ms : calls) {
                issue_us.push_back(ms * 1e3);
            }
        }
        issue_share.push_back(m.issue_ms / m.wall_ms);
        if (!m.wait_each) {
            fence_ms.push_back(m.fence_ms / m.iters);
        }
    }
    rep.add("exec.issue_us", median(issue_us), "us",
            "median time inside one hpx run_loop");
    rep.add("exec.issue_share", median(issue_share), "ratio",
            "issue time over hpx march wall time");
    rep.add("exec.fence_wait_ms", median(fence_ms), "ms",
            "op_fence_all per iteration");
    double rms = 0.0;
    auto const loops = five_loops(p, &rms);
    for (std::size_t l = 0; l < 5; ++l) {
        std::string const n = kLoopNames[l];
        double const fj = median(fj_ms[l]);
        rep.add("exec." + n + ".seq_ms", median(seq_ms[l]), "ms",
                "per run_loop call");
        rep.add("exec." + n + ".fork_join_ms", fj, "ms", "per run_loop call");
        rep.add("exec." + n + ".hpx_done_ms", median(done_ms[l]), "ms",
                "completion increments per iteration, handles waited in "
                "issue order");
        double const bytes = loop_bytes(loops[l]);
        rep.add("memory." + n + ".bytes", bytes, "B",
                "computed: set * (sum dim*sizeof(T)*{1 R/W, 2 RW/INC} + "
                "4 per distinct map slot)");
        rep.add("memory." + n + ".fork_join_gbs", bytes / (fj * 1e6), "GB/s",
                "computed bytes over fork_join_ms");
    }
    rep.add("hpxlite.busy_cores.fork_join", median(busy_fj), "cores",
            "(user+sys) / wall over fork_join marches");
}

// ------------------------------------------------------------ workloads

struct cli {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string out_dir = ".bench_out";
};

std::size_t pool_workers() { return hpxlite::get_pool().size(); }

void run_airfoil(airfoil_shape shape, cli const& c, report& rep) {
    std::mt19937_64 rng(c.seed);
    std::vector<backend> const all{backend::seq, backend::fork_join,
                                   backend::hpx};
    bench_problem bp;
    std::vector<double> setup_s;
    std::vector<double> mesh_s;
    std::vector<double> declare_s;
    std::vector<double> plan_ms;
    std::size_t cache_entries = 0;
    for (int r = 0; r < kSetupReps; ++r) {
        std::int64_t const t0 = now_ns();
        bp = bench_problem{};
        declare(bp, shape);
        double plan_s = 0.0;
        if (c.trace) {
            plan_ms.push_back(plan_build_ms(bp.prob, pool_workers()));
            plan_s = plan_ms.back() * 1e-3;
        }
        std::size_t const cache0 = op2::plan_cache_size();
        warm_up(bp, all);
        cache_entries = op2::plan_cache_size() - cache0;
        setup_s.push_back(seconds_since(t0) - plan_s);
        mesh_s.push_back(bp.mesh_s);
        declare_s.push_back(bp.declare_s);
    }

    if (!c.trace) {
        round_log log;
        run_rounds(bp, all, c.seconds, false, rng, rep, log);
        for (backend be : {backend::hpx, backend::fork_join, backend::seq}) {
            auto const& v = log.per_iter_ms[be];
            std::string const name =
                std::string(op2::to_string(be)) + "_iter_ms";
            char buf[96];
            std::snprintf(buf, sizeof buf,
                          "mean of the middle 80%% of n=%zu; median %.4g",
                          v.size(), median(v));
            rep.add(name, trimmed_mean(v), "ms", buf);
            rep.add_tail(name + "_tail", v, "ms");
        }
        rep.add("setup_s", median(setup_s), "s",
                "median of " + std::to_string(kSetupReps) + " set-ups");
        char buf[96];
        std::snprintf(buf, sizeof buf, "ratio fork_join/hpx per iteration: "
                      "%.3f (for reading, not a metric)",
                      trimmed_mean(log.per_iter_ms[backend::fork_join]) /
                          trimmed_mean(log.per_iter_ms[backend::hpx]));
        rep.notes.push_back(buf);
        return;
    }

    rep.add("airfoil.mesh_s", median(mesh_s), "s");
    rep.add("airfoil.declare_s", median(declare_s), "s");
    rep.add("plan.build_ms", median(plan_ms), "ms",
            "cold plan_build, five loops, default partition count");
    rep.add("plan.cache_entries", static_cast<double>(cache_entries),
            "count", "plans cached by the warm-up marches");

    round_log plain;
    run_rounds(bp, all, 0.35 * c.seconds, false, rng, rep, plain);
    spans().enable();
    round_log traced;
    run_rounds(bp, all, 0.55 * c.seconds, true, rng, rep, traced);
    exec_layers(traced.traced, bp.prob, rep);

    std::vector<double> busy;
    std::vector<double> tasks;
    std::vector<double> csw;
    for (auto const& m : traced.traced) {
        if (m.be == backend::hpx) {
            busy.push_back(m.cpu_s / (m.wall_ms * 1e-3));
            tasks.push_back(static_cast<double>(m.tasks) / shape.iters);
            csw.push_back(static_cast<double>(m.csw) / shape.iters);
        }
    }
    rep.add("hpxlite.busy_cores.hpx", median(busy), "cores",
            "(user+sys) / wall over hpx marches");
    rep.add("hpxlite.tasks_per_iter", median(tasks), "count");
    rep.add("hpxlite.ctx_switches_per_iter", median(csw), "count");
    service_probe(bp, rep);
    rep.add("trace.overhead",
            trimmed_mean(traced.per_iter_ms[backend::hpx]) /
                trimmed_mean(plain.per_iter_ms[backend::hpx]),
            "ratio", "traced / untraced hpx_iter_ms");
}

// ----------------------------------------------------------------- main

int usage_error(char const* msg) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "airfoil_large|airfoil_small --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n",
                 msg);
    return 2;
}

long llc_bytes() {
    for (int name : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
        long const v = sysconf(name);
        if (v > 0) {
            return v;
        }
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    cli c;
    bool have_seed = false;
    bool have_trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string_view const k = argv[i];
        char const* v = argv[i + 1];
        if (k == "--workload") {
            c.workload = v;
        } else if (k == "--seed") {
            c.seed = std::strtoull(v, nullptr, 10);
            have_seed = true;
        } else if (k == "--seconds") {
            c.seconds = std::strtod(v, nullptr);
        } else if (k == "--trace") {
            c.trace = std::string_view(v) == "1";
            have_trace = true;
        } else if (k == "--out") {
            c.out_dir = v;
        } else {
            return usage_error("unknown argument");
        }
    }
    if (argc % 2 == 0 || c.workload.empty() || !have_seed || !have_trace ||
        !(c.seconds > 0.0)) {
        return usage_error("missing or odd arguments");
    }
    if (c.workload != "airfoil_large" && c.workload != "airfoil_small") {
        return usage_error("unknown workload");
    }
    // Knob variables would silently change the default path measured.
    for (char** e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "OP2HPX_", 7) == 0 ||
            std::strncmp(*e, "HPXLITE_", 8) == 0) {
            std::fprintf(stderr,
                         "perfbench: refusing to run with %s set: the "
                         "benchmark measures the default configuration\n",
                         *e);
            return 2;
        }
    }

    std::size_t const nproc = std::max<std::size_t>(allowed_cpus().size(), 1);
    std::size_t const workers = nproc > 1 ? nproc - 1 : 1;
    hpxlite::init(hpxlite::runtime_config{workers});
    std::printf("env: nproc=%zu llc_bytes=%ld workers=%zu build=%s seed=%llu "
                "workload=%s seconds=%g trace=%d\n",
                nproc, llc_bytes(), pool_workers(), PERFBENCH_BUILD_TYPE,
                static_cast<unsigned long long>(c.seed), c.workload.c_str(),
                c.seconds, c.trace ? 1 : 0);

    report rep;
    try {
        run_airfoil(c.workload == "airfoil_large" ? kLarge : kSmall, c, rep);
    } catch (std::exception const& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        hpxlite::finalize();
        return 1;
    }
    if (!c.trace) {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        rep.add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
                "MB");
    }

    std::string const tag =
        c.workload + "_seed" + std::to_string(c.seed);
    std::string table;
    char line[512];
    for (auto const& m : rep.metrics) {
        std::snprintf(line, sizeof line, "%-34s %14.6g %-6s %s\n",
                      m.name.c_str(), m.value, m.unit.c_str(),
                      m.note.c_str());
        table += line;
    }
    std::printf("%s", table.c_str());
    for (auto const& n : rep.notes) {
        std::printf("note: %s\n", n.c_str());
    }
    double const failed_frac =
        rep.attempted == 0 ? 1.0
                           : static_cast<double>(rep.failed) /
                                 static_cast<double>(rep.attempted);
    std::printf("checked: %llu marches/jobs, %llu failed (failed_frac %.4g), "
                "%llu bitwise-equal to seq; tolerance q %.0e normwise, rms "
                "%.0e relative\n",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed), failed_frac,
                static_cast<unsigned long long>(rep.bitwise), kTolQ, kTolRms);
    if (c.trace) {
        std::printf("traced chains differing from airfoil::run: %llu\n",
                    static_cast<unsigned long long>(rep.mismatch));
        std::error_code ec;
        std::filesystem::create_directories(c.out_dir, ec);
        std::string const trace_path =
            c.out_dir + "/trace_" + tag + ".json";
        std::string const table_path =
            c.out_dir + "/layers_" + tag + ".txt";
        bool ok = spans().write_chrome(trace_path);
        if (std::FILE* f = std::fopen(table_path.c_str(), "w")) {
            std::fprintf(f, "# %s seed=%llu nproc=%zu workers=%zu\n%s",
                         c.workload.c_str(),
                         static_cast<unsigned long long>(c.seed), nproc,
                         pool_workers(), table.c_str());
            ok = std::fclose(f) == 0 && ok;
        } else {
            ok = false;
        }
        std::printf("trace: %zu spans (%zu more not kept) -> %s (Chrome "
                    "Trace Event JSON); table -> %s%s\n",
                    spans().size(), spans().dropped(), trace_path.c_str(),
                    table_path.c_str(), ok ? "" : " [WRITE FAILED]");
    }

    bool const correct = rep.failed == 0 && rep.mismatch == 0 &&
                         rep.attempted > 0;
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(rep.attempted);
    json += ", \"failed\": " + std::to_string(rep.failed);
    json += ", \"metrics\": {";
    char const* sep = "";
    for (auto const& m : rep.metrics) {
        if (!m.in_json) {
            continue;
        }
        std::snprintf(line, sizeof line,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      sep, m.name.c_str(),
                      std::isfinite(m.value) ? m.value : -1.0,
                      m.unit.c_str());
        json += line;
        sep = ", ";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    hpxlite::finalize();
    return 0;
}
