#include <hpxlite/runtime.hpp>

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

namespace hpxlite {

namespace {

std::mutex g_mtx;
std::unique_ptr<threads::thread_pool> g_pool;

/// HPXLITE_NUM_THREADS if it is a whole positive decimal number, else
/// hardware concurrency: a sign ("-1"), trailing text ("2abc"), zero and
/// out-of-range values all fall back.
std::size_t default_num_threads() {
    if (char const* env = std::getenv("HPXLITE_NUM_THREADS")) {
        char const* const end = env + std::strlen(env);
        std::size_t n = 0;
        auto const [ptr, ec] = std::from_chars(env, end, n);
        if (ec == std::errc{} && ptr == end && n > 0) {
            return n;
        }
    }
    std::size_t hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1 : hc;
}

}  // namespace

void init(runtime_config cfg) {
    std::size_t n = cfg.num_threads == 0 ? default_num_threads() : cfg.num_threads;
    std::lock_guard<std::mutex> lk(g_mtx);
    if (g_pool && g_pool->size() == n) {
        return;
    }
    g_pool.reset();  // join old pool first
    g_pool = std::make_unique<threads::thread_pool>(n);
}

void finalize() {
    std::lock_guard<std::mutex> lk(g_mtx);
    g_pool.reset();
}

threads::thread_pool& get_pool() {
    {
        std::lock_guard<std::mutex> lk(g_mtx);
        if (g_pool) {
            return *g_pool;
        }
    }
    init();
    std::lock_guard<std::mutex> lk(g_mtx);
    return *g_pool;
}

std::size_t get_num_worker_threads() { return get_pool().size(); }

}  // namespace hpxlite
