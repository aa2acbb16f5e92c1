#pragma once

#include <cstddef>

#include <hpxlite/threads/thread_pool.hpp>

namespace hpxlite {

/// Runtime configuration for hpxlite::init().
struct runtime_config {
    /// Number of OS worker threads. 0 means "decide automatically":
    /// the HPXLITE_NUM_THREADS environment variable if it is a whole
    /// positive decimal number, otherwise
    /// std::thread::hardware_concurrency().
    std::size_t num_threads = 0;
};

/// Initialise the global runtime (idempotent; re-init with a different
/// thread count tears the old pool down first: it drains — runs every
/// queued task and whatever those tasks queue — then joins its workers,
/// so nothing may submit to it concurrently). All parallel algorithms
/// and dataflow default to this pool.
void init(runtime_config cfg = {});

/// Drain and destroy the global pool. Safe to call when not initialised.
void finalize();

/// The global pool; lazily initialised with default config on first use.
threads::thread_pool& get_pool();

/// Number of worker threads in the global pool.
std::size_t get_num_worker_threads();

/// RAII helper for tests and benches that need a specific thread count.
class runtime_guard {
public:
    explicit runtime_guard(std::size_t num_threads) {
        init(runtime_config{num_threads});
    }
    runtime_guard(runtime_guard const&) = delete;
    runtime_guard& operator=(runtime_guard const&) = delete;
    ~runtime_guard() { finalize(); }
};

}  // namespace hpxlite
