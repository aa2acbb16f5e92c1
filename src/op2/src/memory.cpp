#include <op2/memory.hpp>

#include <atomic>
#include <cstring>
#include <thread>

namespace op2::memory {

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

}  // namespace op2::memory
