#include <op2/fault.hpp>

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <hpxlite/threads/thread_pool.hpp>

namespace op2::fault {

namespace {

/// One armed kernel site: loop name x partition x colour, firing once
/// on the K-th matching hit.
struct kernel_site {
    std::string loop;
    bool any_partition = false;
    std::size_t partition = 0;
    bool any_color = false;
    std::size_t color = 0;
    std::size_t nth = 1;  // 1-based matching-hit count to fire on
    std::atomic<std::size_t> hits{0};
    std::atomic<bool> fired{false};
};

struct plan_impl {
    std::string spec;
    std::uint64_t seed = 1;

    std::vector<std::unique_ptr<kernel_site>> kernels;

    std::size_t alloc_nth = 0;  // 0 = off
    std::atomic<std::size_t> alloc_count{0};

    std::size_t delay_nth = 0;
    std::size_t delay_us = 0;
    std::size_t drop_nth = 0;
    double jitter_rate = 0.0;
    std::size_t jitter_max_us = 0;
    std::atomic<std::size_t> task_count{0};
    std::atomic<std::uint64_t> rng{1};

    [[nodiscard]] bool wants_task_hook() const noexcept {
        return delay_nth != 0 || drop_nth != 0 || jitter_rate > 0.0;
    }
};

/// The active plan. Retired plans are kept alive in g_retired for the
/// life of the process: a hook may hold the raw pointer across a
/// concurrent re-arm, and leaking a handful of small plan objects is
/// cheaper than refcounting on the injection path.
std::atomic<plan_impl*> g_plan{nullptr};
std::mutex g_arm_mtx;
std::vector<std::unique_ptr<plan_impl>>& retired() {
    static auto* r = new std::vector<std::unique_ptr<plan_impl>>();
    return *r;
}

[[noreturn]] void bad_spec(std::string_view spec, std::string const& why) {
    throw std::invalid_argument("op2.fault: malformed plan '" +
                                std::string(spec) + "': " + why);
}

std::size_t parse_size(std::string_view tok, std::string_view spec,
                       char const* what) {
    std::size_t v = 0;
    auto const* end = tok.data() + tok.size();
    auto const res = std::from_chars(tok.data(), end, v);
    if (res.ec != std::errc{} || res.ptr != end) {
        bad_spec(spec, std::string(what) + " expects a number, got '" +
                           std::string(tok) + "'");
    }
    return v;
}

double parse_rate(std::string_view tok, std::string_view spec) {
    double v = 0.0;
    auto const* end = tok.data() + tok.size();
    auto const res = std::from_chars(tok.data(), end, v);
    if (res.ec != std::errc{} || res.ptr != end) {
        bad_spec(spec, "jitter rate expects a number, got '" +
                           std::string(tok) + "'");
    }
    if (!(v >= 0.0) || v > 1.0) {
        bad_spec(spec, "jitter rate must be in [0, 1], got '" +
                           std::string(tok) + "'");
    }
    return v;
}

/// kernel=NAME@P.C[#K] — P and C may be '*'.
void parse_kernel_site(plan_impl& plan, std::string_view val,
                       std::string_view spec) {
    auto site = std::make_unique<kernel_site>();
    std::size_t const at = val.rfind('@');
    if (at == std::string_view::npos || at == 0) {
        bad_spec(spec, "kernel site needs NAME@P.C, got '" +
                           std::string(val) + "'");
    }
    site->loop = std::string(val.substr(0, at));
    std::string_view addr = val.substr(at + 1);
    if (std::size_t const hash = addr.rfind('#');
        hash != std::string_view::npos) {
        site->nth = parse_size(addr.substr(hash + 1), spec, "kernel #K");
        if (site->nth == 0) {
            bad_spec(spec, "kernel #K is 1-based");
        }
        addr = addr.substr(0, hash);
    }
    std::size_t const dot = addr.find('.');
    if (dot == std::string_view::npos) {
        bad_spec(spec, "kernel site needs P.C after '@', got '" +
                           std::string(addr) + "'");
    }
    std::string_view const p = addr.substr(0, dot);
    std::string_view const c = addr.substr(dot + 1);
    if (p == "*") {
        site->any_partition = true;
    } else {
        site->partition = parse_size(p, spec, "kernel partition");
    }
    if (c == "*") {
        site->any_color = true;
    } else {
        site->color = parse_size(c, spec, "kernel colour");
    }
    plan.kernels.push_back(std::move(site));
}

std::unique_ptr<plan_impl> parse(std::string_view spec) {
    auto plan = std::make_unique<plan_impl>();
    plan->spec = std::string(spec);
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t const semi = spec.find(';', pos);
        std::string_view const item =
            spec.substr(pos, semi == std::string_view::npos ? std::string_view::npos
                                                            : semi - pos);
        pos = semi == std::string_view::npos ? spec.size() : semi + 1;
        if (item.empty()) {
            continue;
        }
        std::size_t const eq = item.find('=');
        if (eq == std::string_view::npos) {
            bad_spec(spec, "directive without '=': '" + std::string(item) +
                               "'");
        }
        std::string_view const key = item.substr(0, eq);
        std::string_view const val = item.substr(eq + 1);
        if (key == "seed") {
            plan->seed = parse_size(val, spec, "seed");
        } else if (key == "kernel") {
            parse_kernel_site(*plan, val, spec);
        } else if (key == "alloc") {
            plan->alloc_nth = parse_size(val, spec, "alloc");
            if (plan->alloc_nth == 0) {
                bad_spec(spec, "alloc=K is 1-based");
            }
        } else if (key == "delay") {
            std::size_t const colon = val.find(':');
            if (colon == std::string_view::npos) {
                bad_spec(spec, "delay expects K:US");
            }
            plan->delay_nth =
                parse_size(val.substr(0, colon), spec, "delay K");
            plan->delay_us =
                parse_size(val.substr(colon + 1), spec, "delay US");
            if (plan->delay_nth == 0) {
                bad_spec(spec, "delay=K:US is 1-based");
            }
        } else if (key == "drop") {
            plan->drop_nth = parse_size(val, spec, "drop");
            if (plan->drop_nth == 0) {
                bad_spec(spec, "drop=K is 1-based");
            }
        } else if (key == "jitter") {
            std::size_t const colon = val.find(':');
            if (colon == std::string_view::npos) {
                bad_spec(spec, "jitter expects RATE:MAXUS");
            }
            plan->jitter_rate = parse_rate(val.substr(0, colon), spec);
            plan->jitter_max_us =
                parse_size(val.substr(colon + 1), spec, "jitter MAXUS");
        } else {
            bad_spec(spec, "unknown directive '" + std::string(key) + "'");
        }
    }
    plan->rng.store(plan->seed == 0 ? 0x9e3779b97f4a7c15ull : plan->seed,
                    std::memory_order_relaxed);
    return plan;
}

/// splitmix64 step on the plan's RNG state: seeded, lock-free, and
/// deterministic given one consumer order (jitter is a fuzz mode, not a
/// replay mode — the *sites* printed on arm are what make a red run
/// reproducible).
std::uint64_t next_rand(plan_impl& plan) {
    std::uint64_t z =
        plan.rng.fetch_add(0x9e3779b97f4a7c15ull, std::memory_order_relaxed) +
        0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

hpxlite::threads::task_fault task_hook() {
    plan_impl* const plan = g_plan.load(std::memory_order_acquire);
    if (plan == nullptr) {
        return hpxlite::threads::task_fault::none;
    }
    std::size_t const n =
        plan->task_count.fetch_add(1, std::memory_order_relaxed) + 1;
    if (plan->delay_nth != 0 && n == plan->delay_nth) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(plan->delay_us));
    }
    if (plan->jitter_rate > 0.0 && plan->jitter_max_us != 0) {
        std::uint64_t const r = next_rand(*plan);
        double const u =
            static_cast<double>(r >> 11) * (1.0 / 9007199254740992.0);
        if (u < plan->jitter_rate) {
            std::this_thread::sleep_for(std::chrono::microseconds(
                next_rand(*plan) % (plan->jitter_max_us + 1)));
        }
    }
    if (plan->drop_nth != 0 && n == plan->drop_nth) {
        return hpxlite::threads::task_fault::drop;
    }
    return hpxlite::threads::task_fault::none;
}

/// Arm the OP2HPX_FAULT_PLAN environment plan when libop2 loads, so a
/// whole test binary can be fuzzed without touching any test.
struct env_armer {
    env_armer() {
        if (char const* spec = std::getenv("OP2HPX_FAULT_PLAN");
            spec != nullptr && *spec != '\0') {
            try {
                arm(spec);
            } catch (std::exception const& e) {
                std::fprintf(stderr, "op2.fault: ignoring %s: %s\n",
                             "OP2HPX_FAULT_PLAN", e.what());
            }
        }
    }
};
env_armer const g_env_armer;

}  // namespace

void arm(std::string_view spec) {
    if (spec.empty()) {
        disarm();
        return;
    }
    auto plan = parse(spec);  // throws before anything is installed
    std::lock_guard<std::mutex> lk(g_arm_mtx);
    plan_impl* const raw = plan.get();
    retired().push_back(std::move(plan));
    g_plan.store(raw, std::memory_order_release);
    detail::g_armed.store(true, std::memory_order_release);
    hpxlite::threads::set_task_fault_hook(
        raw->wants_task_hook() ? &task_hook : nullptr);
    std::fprintf(stderr, "op2.fault: armed plan '%s' (seed %llu)\n",
                 raw->spec.c_str(),
                 static_cast<unsigned long long>(raw->seed));
}

void disarm() noexcept {
    std::lock_guard<std::mutex> lk(g_arm_mtx);
    detail::g_armed.store(false, std::memory_order_release);
    g_plan.store(nullptr, std::memory_order_release);
    hpxlite::threads::set_task_fault_hook(nullptr);
}

std::string active_plan() {
    plan_impl* const plan = g_plan.load(std::memory_order_acquire);
    return plan != nullptr ? plan->spec : std::string{};
}

namespace detail {

void on_kernel_slow(char const* loop, std::size_t partition,
                    std::size_t color) {
    plan_impl* const plan = g_plan.load(std::memory_order_acquire);
    if (plan == nullptr) {
        return;
    }
    for (auto const& site : plan->kernels) {
        if (site->loop != loop) {
            continue;
        }
        if (!site->any_partition && site->partition != partition) {
            continue;
        }
        if (!site->any_color && site->color != color) {
            continue;
        }
        std::size_t const hit =
            site->hits.fetch_add(1, std::memory_order_relaxed) + 1;
        if (hit == site->nth &&
            !site->fired.exchange(true, std::memory_order_relaxed)) {
            throw injected_fault(
                "injected fault: kernel site " + site->loop + "@" +
                std::to_string(partition) + "." + std::to_string(color) +
                " (hit " + std::to_string(hit) + ")");
        }
    }
}

void on_alloc_slow(std::size_t bytes) {
    plan_impl* const plan = g_plan.load(std::memory_order_acquire);
    if (plan == nullptr || plan->alloc_nth == 0) {
        return;
    }
    std::size_t const n =
        plan->alloc_count.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n == plan->alloc_nth) {
        throw injected_fault("injected fault: allocation #" +
                             std::to_string(n) + " (" +
                             std::to_string(bytes) + " bytes)");
    }
}

}  // namespace detail

}  // namespace op2::fault
