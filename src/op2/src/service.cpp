#include <op2/service.hpp>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <hpxlite/runtime.hpp>
#include <op2/dat.hpp>
#include <op2/exec/dataflow.hpp>
#include <op2/plan.hpp>
#include <psim/scheduler.hpp>

namespace op2::service {

namespace detail {

struct job_impl {
    job_desc desc;
    std::shared_ptr<runtime_context> ctx;
    double est_cost_s = 0.0;
    std::uint64_t seq = 0;
    std::chrono::steady_clock::time_point t_submit{};
    std::chrono::steady_clock::time_point t_admit{};

    mutable std::mutex mtx;
    mutable std::condition_variable cv;
    job_state state = job_state::waiting;
    std::exception_ptr error;
    job_metrics metrics;
};

}  // namespace detail

namespace {

using clock = std::chrono::steady_clock;

double secs(clock::duration d) {
    return std::chrono::duration_cast<std::chrono::duration<double>>(d)
        .count();
}

/// Price a job through the simulator: its declared workload as a
/// dependent chain of est_loops identical loops (the pessimistic shape
/// — nothing overlaps across instances, the "chain" in
/// shortest_chain_first). Simulated once at submission with iterations
/// capped, then scaled linearly to the declared length; an ordering
/// heuristic, not a prediction.
double price_job(job_desc const& d, std::size_t pool_threads) {
    if (d.est_loops == 0) {
        return 0.0;
    }
    psim::machine_model m;
    m.cores = static_cast<int>(pool_threads == 0 ? 1 : pool_threads);
    m.smt = 1;

    psim::loop_class lc;
    lc.name = d.name;
    lc.blocks = d.est_bytes == 0
                    ? 8
                    : std::max<std::size_t>(1, d.est_bytes / (128 * 1024));
    lc.bytes_per_block =
        static_cast<double>(d.est_bytes) / static_cast<double>(lc.blocks);

    psim::workload w;
    w.loops.push_back(std::move(lc));
    w.issue_order = {0};
    w.cross_deps = {{0, 0}};  // instance i+1 depends on instance i

    psim::sim_options o;
    o.threads = m.cores;
    auto const iters = static_cast<int>(std::min<std::uint64_t>(
        d.est_loops, 64));
    o.iterations = iters;

    auto const r = psim::simulate_dataflow(m, w, o);
    return r.total_s * (static_cast<double>(d.est_loops) /
                        static_cast<double>(iters));
}

/// Drain every live dat declared under `ctx`: the per-context
/// equivalent of op_fence_all (same snapshot-then-wait discipline as
/// runtime.cpp's fence_impl). Dats the job's program already destroyed
/// were its own responsibility to fence — the standard op2 contract.
void fence_context(runtime_context const& ctx) {
    std::vector<exec::node_ref> nodes;
    for (auto const& di : op2::detail::all_dats()) {
        if (!di->ctx || di->ctx->id() != ctx.id()) {
            continue;
        }
        auto const [recs, count] = di->dep.table();
        for (std::size_t p = 0; p < count; ++p) {
            recs[p].snapshot(nodes);
            for (auto& n : nodes) {
                n->wait();
            }
        }
    }
}

/// Strict submission order: always the head of the queue.
class fifo_policy final : public schedule_policy {
public:
    [[nodiscard]] char const* name() const noexcept override {
        return "fifo";
    }
    std::size_t pick(std::span<job_view const> /*waiting*/) override {
        return 0;
    }
};

/// Tenants take turns: the first waiting job of a tenant other than the
/// last one served; the head when only one tenant is waiting.
class round_robin_policy final : public schedule_policy {
public:
    [[nodiscard]] char const* name() const noexcept override {
        return "round_robin";
    }
    std::size_t pick(std::span<job_view const> waiting) override {
        std::size_t picked = 0;
        for (std::size_t i = 0; i < waiting.size(); ++i) {
            if (last_ != waiting[i].tenant) {
                picked = i;
                break;
            }
        }
        last_ = waiting[picked].tenant;
        return picked;
    }

private:
    std::string last_;
};

/// Cheapest psim-priced job first (ties broken by submission order —
/// est_cost_s is 0 for jobs that declared no estimates, so those run
/// fifo among themselves, ahead of priced work).
class shortest_chain_policy final : public schedule_policy {
public:
    [[nodiscard]] char const* name() const noexcept override {
        return "shortest_chain_first";
    }
    std::size_t pick(std::span<job_view const> waiting) override {
        std::size_t best = 0;
        for (std::size_t i = 1; i < waiting.size(); ++i) {
            if (waiting[i].est_cost_s < waiting[best].est_cost_s) {
                best = i;
            }
        }
        return best;
    }
};

}  // namespace

std::unique_ptr<schedule_policy> make_policy(std::string_view name) {
    if (name == "fifo") {
        return std::make_unique<fifo_policy>();
    }
    if (name == "round_robin") {
        return std::make_unique<round_robin_policy>();
    }
    if (name == "shortest_chain_first") {
        return std::make_unique<shortest_chain_policy>();
    }
    throw std::invalid_argument("op2::service: unknown policy '" +
                                std::string(name) + "'");
}

std::vector<std::string_view> policy_names() {
    return {"fifo", "round_robin", "shortest_chain_first"};
}

// --- job handle -----------------------------------------------------------

std::string const& job::name() const { return impl_->desc.name; }

job_state job::state() const {
    std::lock_guard<std::mutex> lk(impl_->mtx);
    return impl_->state;
}

void job::wait() const {
    std::unique_lock<std::mutex> lk(impl_->mtx);
    impl_->cv.wait(lk, [&] {
        return impl_->state == job_state::completed ||
               impl_->state == job_state::failed;
    });
}

bool job::failed() const { return state() == job_state::failed; }

void job::rethrow() const {
    std::exception_ptr err;
    {
        std::lock_guard<std::mutex> lk(impl_->mtx);
        err = impl_->error;
    }
    if (err) {
        std::rethrow_exception(err);
    }
}

job_metrics job::metrics() const {
    std::lock_guard<std::mutex> lk(impl_->mtx);
    return impl_->metrics;
}

std::shared_ptr<runtime_context> const& job::context() const {
    return impl_->ctx;
}

// --- scheduler ------------------------------------------------------------

struct scheduler::state {
    scheduler_options opts;
    std::unique_ptr<schedule_policy> policy;
    hpxlite::threads::thread_pool& pool;
    std::size_t max_jobs;

    mutable std::mutex mtx;
    std::condition_variable cv;
    std::deque<std::shared_ptr<detail::job_impl>> waiting;
    std::size_t in_flight = 0;
    std::size_t in_flight_bytes = 0;
    std::uint64_t next_seq = 1;

    // Measured-cost re-pricing (under mtx): EWMA of each tenant's
    // completed jobs' run_s. admit_locked substitutes it for the psim
    // price in the job_views, so shortest_chain_first orders by what
    // the tenant's jobs actually cost once one has retired. Failed
    // jobs don't feed it — a job that died early would advertise the
    // tenant as cheap.
    std::unordered_map<std::string, double> tenant_ewma;

    // Aggregate metrics (under mtx).
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t loops_issued = 0;
    std::vector<double> wait_samples;
    std::vector<double> latency_samples;
    clock::time_point t_first{};
    clock::time_point t_last{};
    bool any_submitted = false;
};

namespace {

double percentile(std::vector<double> samples, double p) {
    if (samples.empty()) {
        return 0.0;
    }
    std::sort(samples.begin(), samples.end());
    double const pos = p * static_cast<double>(samples.size() - 1);
    auto const lo = static_cast<std::size_t>(pos);
    auto const hi = std::min(lo + 1, samples.size() - 1);
    double const frac = pos - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

}  // namespace

scheduler::scheduler(scheduler_options opts)
  : st_(new state{std::move(opts), nullptr, hpxlite::get_pool(), 0}) {
    st_->policy = make_policy(st_->opts.policy);
    st_->max_jobs = st_->opts.max_in_flight_jobs != 0
                        ? st_->opts.max_in_flight_jobs
                        : std::max<std::size_t>(1, st_->pool.size());
}

scheduler::~scheduler() { drain(); }

job scheduler::submit(job_desc desc) {
    if (!desc.program) {
        throw std::invalid_argument("op2::service: job '" + desc.name +
                                    "' has no program");
    }
    if (desc.tenant.empty()) {
        desc.tenant = desc.name;
    }
    auto impl = std::make_shared<detail::job_impl>();
    impl->ctx = make_context(desc.name);
    impl->est_cost_s = price_job(desc, st_->pool.size());
    impl->desc = std::move(desc);
    impl->t_submit = clock::now();

    {
        std::lock_guard<std::mutex> lk(st_->mtx);
        impl->seq = st_->next_seq++;
        ++st_->submitted;
        if (!st_->any_submitted) {
            st_->any_submitted = true;
            st_->t_first = impl->t_submit;
        }
        st_->waiting.push_back(impl);
        admit_locked();
    }
    return job(std::move(impl));
}

/// Admit in strict policy order while the picked job fits the limits
/// (caller holds st_->mtx). Head-of-line blocking is deliberate: a job
/// the policy chose is never skipped for a smaller one behind it, so
/// nothing starves. A job bigger than the whole byte budget is admitted
/// once it has the process to itself.
void scheduler::admit_locked() {
    auto& s = *st_;
    while (!s.waiting.empty() && s.in_flight < s.max_jobs) {
        std::vector<job_view> views;
        views.reserve(s.waiting.size());
        for (auto const& w : s.waiting) {
            double cost = w->est_cost_s;
            if (auto it = s.tenant_ewma.find(w->desc.tenant);
                it != s.tenant_ewma.end()) {
                cost = it->second;  // measured beats modelled
            }
            views.push_back({w->desc.name.c_str(), w->desc.tenant.c_str(),
                             cost, w->seq});
        }
        std::size_t idx = s.policy->pick(views);
        if (idx >= s.waiting.size()) {
            idx = 0;
        }
        auto j = s.waiting[idx];
        bool const fits =
            s.opts.max_in_flight_bytes == 0 ||
            s.in_flight_bytes + j->desc.est_bytes <=
                s.opts.max_in_flight_bytes ||
            s.in_flight == 0;
        if (!fits) {
            break;
        }
        s.waiting.erase(s.waiting.begin() +
                        static_cast<std::ptrdiff_t>(idx));
        ++s.in_flight;
        s.in_flight_bytes += j->desc.est_bytes;
        {
            std::lock_guard<std::mutex> lk(j->mtx);
            j->state = job_state::running;
            j->t_admit = clock::now();
        }
        j->cv.notify_all();
        s.pool.submit([this, j] { run_job(j); });
    }
}

void scheduler::run_job(std::shared_ptr<detail::job_impl> const& j) {
    std::exception_ptr err;
    {
        // The job's program and everything it issues inline run under
        // its context; loops the program spawns capture what they need
        // (combine lock, poison gate) at issue, so stolen sub-nodes on
        // other workers never consult this TLS slot.
        context_scope scope(j->ctx);
        try {
            j->desc.program();
        } catch (...) {
            err = std::current_exception();
        }
    }
    fence_context(*j->ctx);
    if (!err &&
        j->ctx->poison_spans.load(std::memory_order_acquire) != 0) {
        err = std::make_exception_ptr(std::runtime_error(
            "op2::service: job '" + j->desc.name +
            "' retired with quarantined spans (a sub-node failed; see "
            "dump_graph)"));
    }
    if (st_->opts.purge_plans) {
        plan_cache_purge(j->ctx->id());
    }

    auto const t_end = clock::now();
    job_metrics m;
    m.wait_s = secs(j->t_admit - j->t_submit);
    m.run_s = secs(t_end - j->t_admit);
    m.latency_s = secs(t_end - j->t_submit);
    m.loops_issued = j->ctx->loops_issued.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lk(j->mtx);
        j->error = err;
        j->metrics = m;
        j->state = err ? job_state::failed : job_state::completed;
    }
    j->cv.notify_all();

    {
        std::lock_guard<std::mutex> lk(st_->mtx);
        --st_->in_flight;
        st_->in_flight_bytes -= j->desc.est_bytes;
        if (!err) {
            // Feed the tenant's EWMA with the measured run time. The
            // first sample seeds it outright; later samples blend, so
            // one outlier run does not whipsaw the ordering.
            constexpr double alpha = 0.5;
            auto [it, inserted] =
                st_->tenant_ewma.try_emplace(j->desc.tenant, m.run_s);
            if (!inserted) {
                it->second = alpha * m.run_s + (1.0 - alpha) * it->second;
            }
        }
        ++(err ? st_->failed : st_->completed);
        st_->loops_issued += m.loops_issued;
        st_->wait_samples.push_back(m.wait_s);
        st_->latency_samples.push_back(m.latency_s);
        st_->t_last = t_end;
        admit_locked();
        // Notify while still holding the lock: the moment a waiter in
        // drain() sees in_flight == 0 it may destroy *st_, so this
        // thread must be finished with the cv before the lock drops.
        st_->cv.notify_all();
    }
}

void scheduler::drain() {
    std::unique_lock<std::mutex> lk(st_->mtx);
    st_->cv.wait(lk, [&] {
        return st_->waiting.empty() && st_->in_flight == 0;
    });
}

double scheduler::measured_tenant_cost(std::string_view tenant) const {
    std::lock_guard<std::mutex> lk(st_->mtx);
    auto const it = st_->tenant_ewma.find(std::string(tenant));
    return it == st_->tenant_ewma.end() ? 0.0 : it->second;
}

scheduler_metrics scheduler::metrics() const {
    std::lock_guard<std::mutex> lk(st_->mtx);
    scheduler_metrics m;
    m.policy = st_->policy->name();
    m.submitted = st_->submitted;
    m.completed = st_->completed;
    m.failed = st_->failed;
    m.loops_issued = st_->loops_issued;
    std::uint64_t const finished = st_->completed + st_->failed;
    if (st_->any_submitted && finished > 0) {
        m.wall_s = secs(st_->t_last - st_->t_first);
        if (m.wall_s > 0.0) {
            m.throughput_jobs_s =
                static_cast<double>(finished) / m.wall_s;
        }
    }
    if (!st_->wait_samples.empty()) {
        double sum = 0.0;
        for (double w : st_->wait_samples) {
            sum += w;
        }
        m.mean_wait_s = sum / static_cast<double>(st_->wait_samples.size());
    }
    if (!st_->latency_samples.empty()) {
        double sum = 0.0;
        for (double l : st_->latency_samples) {
            sum += l;
        }
        m.mean_latency_s =
            sum / static_cast<double>(st_->latency_samples.size());
        m.p95_latency_s = percentile(st_->latency_samples, 0.95);
        m.p99_latency_s = percentile(st_->latency_samples, 0.99);
    }
    return m;
}

}  // namespace op2::service
