#include <psim/machine.hpp>

#include <algorithm>
#include <cmath>

namespace psim {

double machine_model::base_speed(int threads) const noexcept {
    if (threads <= cores) {
        return 1.0;
    }
    int const t = std::min(threads, max_threads());
    // Cores hosting 2 HT siblings deliver smt_throughput combined; the
    // remainder host one full-speed thread. Average per-thread speed.
    int const dual = t - cores;
    int const single = cores - dual;
    double const total = static_cast<double>(dual) * smt_throughput +
                         static_cast<double>(single) * 1.0;
    return total / static_cast<double>(t);
}

double machine_model::jitter(int threads) const noexcept {
    if (threads <= cores) {
        return jitter_sigma;
    }
    double const f =
        std::min(1.0, static_cast<double>(threads - cores) /
                          static_cast<double>(cores));
    return jitter_sigma + f * (jitter_sigma_smt - jitter_sigma);
}

double machine_model::fork_cost_us(int threads) const noexcept {
    return fork_base_us + fork_per_thread_us * static_cast<double>(threads);
}

double machine_model::barrier_cost_us(int threads) const noexcept {
    return barrier_base_us +
           barrier_log_us * std::log2(std::max(2.0, static_cast<double>(threads)));
}

}  // namespace psim
