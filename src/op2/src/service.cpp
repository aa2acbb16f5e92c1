#include <op2/service.hpp>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <hpxlite/runtime.hpp>
#include <op2/dat.hpp>
#include <op2/plan.hpp>

namespace op2::service {

namespace detail {

struct job_impl {
    job_desc desc;
    std::shared_ptr<runtime_context> ctx;
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

/// Drain every live dat declared under `ctx`: the per-context
/// equivalent of op_fence_all. Dats the job's program already destroyed
/// were its own responsibility to fence — the standard op2 contract.
void fence_context(runtime_context const& ctx) {
    for (auto const& di : op2::detail::all_dats()) {
        if (di->ctx && di->ctx->id() == ctx.id()) {
            op2::detail::fence_dat(*di);
        }
    }
}

}  // namespace

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
    state(scheduler_options o, hpxlite::threads::thread_pool& p)
      : opts(std::move(o)),
        pool(p),
        max_jobs(opts.max_in_flight_jobs != 0
                     ? opts.max_in_flight_jobs
                     : std::max<std::size_t>(1, pool.size())) {}

    scheduler_options const opts;
    hpxlite::threads::thread_pool& pool;
    std::size_t const max_jobs;

    mutable std::mutex mtx;
    std::condition_variable cv;
    std::deque<std::shared_ptr<detail::job_impl>> waiting;
    std::size_t in_flight = 0;
    std::size_t in_flight_bytes = 0;

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
  : st_(std::make_unique<state>(std::move(opts), hpxlite::get_pool())) {}

scheduler::~scheduler() { drain(); }

job scheduler::submit(job_desc desc) {
    if (!desc.program) {
        throw std::invalid_argument("op2::service: job '" + desc.name +
                                    "' has no program");
    }
    auto impl = std::make_shared<detail::job_impl>();
    impl->ctx = make_context(desc.name);
    impl->desc = std::move(desc);
    impl->t_submit = clock::now();

    {
        std::lock_guard<std::mutex> lk(st_->mtx);
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

/// Admit the queue head while it fits the limits (caller holds
/// st_->mtx). Head-of-line blocking is deliberate: a job is never
/// skipped for a smaller one behind it, so nothing starves. A job
/// bigger than the whole byte budget is admitted once it has the
/// process to itself.
void scheduler::admit_locked() {
    auto& s = *st_;
    while (!s.waiting.empty() && s.in_flight < s.max_jobs) {
        auto j = s.waiting.front();
        bool const fits =
            s.opts.max_in_flight_bytes == 0 ||
            s.in_flight_bytes + j->desc.est_bytes <=
                s.opts.max_in_flight_bytes ||
            s.in_flight == 0;
        if (!fits) {
            break;
        }
        s.waiting.pop_front();
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

scheduler_metrics scheduler::metrics() const {
    std::lock_guard<std::mutex> lk(st_->mtx);
    scheduler_metrics m;
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
