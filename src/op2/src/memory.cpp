#include <op2/memory.hpp>

#include <atomic>
#include <cstring>
#include <thread>

#include <hpxlite/prefetching/prefetcher.hpp>
#include <hpxlite/util/env.hpp>

namespace op2::memory {

namespace {

/// -1 = follow the environment, 0/1 = set_first_touch override.
std::atomic<int> g_first_touch{-1};
std::atomic<first_touch_trace*> g_trace{nullptr};

}  // namespace

int worker_node(std::size_t worker) noexcept {
    topology_info const& topo = topology();
    if (topo.nodes <= 1 || topo.cpus() == 0) {
        return 0;
    }
    // Same core choice as thread_pool::bind_worker: worker i takes the
    // i-th core in node-major order, wrapping at the cpu count.
    int const cpu = topo.node_major[worker % topo.cpus()];
    return topo.node_of(static_cast<std::size_t>(cpu));
}

touch_range partition_touch_range(set_partition const& part, std::size_t p,
                                  std::size_t stride, std::size_t total) {
    touch_range r;
    r.lo = p == 0 ? 0 : pad_to_line(part.begin(p) * stride);
    r.hi = p + 1 == part.count ? total
                               : pad_to_line(part.end(p) * stride);
    if (r.lo > total) {
        r.lo = total;
    }
    if (r.hi > total) {
        r.hi = total;
    }
    if (r.hi < r.lo) {
        r.hi = r.lo;
    }
    return r;
}

bool first_touch_enabled() noexcept {
    int const o = g_first_touch.load(std::memory_order_relaxed);
    if (o >= 0) {
        return o != 0;
    }
    static bool const env =
        hpxlite::util::env_flag("OP2HPX_FIRST_TOUCH", false);
    return env;
}

void set_first_touch(bool on) noexcept {
    g_first_touch.store(on ? 1 : 0, std::memory_order_relaxed);
}

void reset_first_touch() noexcept {
    g_first_touch.store(-1, std::memory_order_relaxed);
}

void set_first_touch_trace(first_touch_trace* t) noexcept {
    g_trace.store(t, std::memory_order_release);
}

void first_touch_init(std::byte* dst, void const* init, std::size_t total,
                      set_partition const& part, std::size_t stride,
                      hpxlite::threads::thread_pool& pool) {
    auto init_span = [&](std::size_t lo, std::size_t hi) {
        if (hi <= lo) {
            return;
        }
        if (init != nullptr) {
            std::memcpy(dst + lo, static_cast<std::byte const*>(init) + lo,
                        hi - lo);
        } else {
            std::memset(dst + lo, 0, hi - lo);
        }
    };
    // A pool worker cannot wait for tasks parked in its own affinity
    // inbox without popping them itself (wrong-worker touches), so dats
    // declared from inside a kernel/task keep the inline path.
    if (total == 0 || pool.on_worker_thread()) {
        init_span(0, total);
        return;
    }

    first_touch_trace* const trace = g_trace.load(std::memory_order_acquire);
    if (trace != nullptr) {
        trace->worker.assign(part.count, -1);
    }

    std::atomic<std::size_t> remaining{0};
    for (std::size_t p = 0; p < part.count; ++p) {
        touch_range const r = partition_touch_range(part, p, stride, total);
        if (r.size() == 0) {
            continue;
        }
        remaining.fetch_add(1, std::memory_order_relaxed);
        std::size_t const owner = p % pool.size();
        pool.submit_to(owner, [&, p, r, owner] {
            if (trace != nullptr && trace->on_touch) {
                trace->on_touch(p);
            }
            // Multi-node: pin the partition's pages to the owner's node
            // before the first write, so placement holds even if this
            // task got stolen off the owner or binding is disabled.
            if (topology().nodes > 1) {
                hpxlite::threads::bind_range_to_node(dst + r.lo, r.size(),
                                                     worker_node(owner));
            }
            init_span(r.lo, r.hi);
            if (trace != nullptr) {
                trace->worker[p] = static_cast<long>(pool.worker_index());
            }
            remaining.fetch_sub(1, std::memory_order_release);
        });
        if (trace != nullptr) {
            trace->enqueued.fetch_add(1, std::memory_order_release);
        }
    }
    // Spin (not help): helping would run a touch task on this thread and
    // defeat the point. Touch tasks are short memsets/memcpys; dat
    // declaration is a cold path.
    while (remaining.load(std::memory_order_acquire) != 0) {
        std::this_thread::yield();
    }
}

void copy_partitions(std::byte* dst, std::byte const* src, std::size_t total,
                     set_partition const& part, std::size_t stride,
                     hpxlite::threads::thread_pool& pool) {
    if (total == 0) {
        return;
    }
    if (pool.on_worker_thread()) {
        std::memcpy(dst, src, total);
        return;
    }
    std::atomic<std::size_t> remaining{0};
    for (std::size_t p = 0; p < part.count; ++p) {
        touch_range const r = partition_touch_range(part, p, stride, total);
        if (r.size() == 0) {
            continue;
        }
        remaining.fetch_add(1, std::memory_order_relaxed);
        pool.submit_to(p % pool.size(), [&, r] {
            std::memcpy(dst + r.lo, src + r.lo, r.size());
            remaining.fetch_sub(1, std::memory_order_release);
        });
    }
    // Spin (not help): helping could run a copy task on this thread and
    // undo the owner-affine placement. Snapshot fan-outs are short
    // memcpys on a cold path (a checkpoint fence).
    while (remaining.load(std::memory_order_acquire) != 0) {
        std::this_thread::yield();
    }
}

void warm_partitions(std::byte const* base, std::size_t total,
                     set_partition const& part, std::size_t stride,
                     hpxlite::threads::thread_pool& pool,
                     std::shared_ptr<void> keepalive) {
    for (std::size_t p = 0; p < part.count; ++p) {
        touch_range const r = partition_touch_range(part, p, stride, total);
        if (r.size() == 0) {
            continue;
        }
        std::size_t const owner = p % pool.size();
        pool.submit_to(owner, [base, r, keepalive, owner] {
            // Re-partitioned ownership: advise the kernel about the new
            // owner's node alongside the cache prefetch. Advisory-only
            // for already-touched pages (no migration), so it cannot
            // race the loops about to run on the data either.
            if (topology().nodes > 1) {
                hpxlite::threads::bind_range_to_node(
                    const_cast<std::byte*>(base) + r.lo, r.size(),
                    worker_node(owner));
            }
            for (std::size_t o = r.lo; o < r.hi; o += cache_line) {
                hpxlite::parallel::detail::prefetch_read(base + o);
            }
        });
    }
}

}  // namespace op2::memory
