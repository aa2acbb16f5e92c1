#pragma once

// Locality-aware memory layer for dat storage (and the checkpoint
// buffers built on the same allocation).
//
// The async OP2-on-HPX design wins by keeping each partition's working
// set hot on one core: the dataflow backend pins partition p's sub-nodes
// to worker p % pool_size (loop_options::placement). Before this layer,
// the *data* undercut the hint — every dat was a bare std::vector whose
// pages were first-touched wholesale by the mesh-loading thread, with no
// alignment guarantee. This layer closes the gap:
//
//  * aligned_buffer — the storage every dat allocates through: the base
//    is 64-byte (cache-line) aligned and the capacity is padded to a
//    whole number of cache lines, so two dats never share a line.
//  * partition-affine first touch — on request (OP2HPX_FIRST_TOUCH / ​
//    set_first_touch), a dat's pages are initialised by one task per set
//    partition, fanned through the pool's affinity inboxes
//    (thread_pool::submit_to), so partition p's pages are written first
//    by worker p % pool_size — the worker the placement hint keeps
//    sending partition p's loops to. Touch ranges are padded to cache
//    lines with a boundary-straddling line owned by the lower partition,
//    so no line is written by two touch tasks. Off (the default) keeps
//    the old loader-thread initialisation as the oracle.

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include <hpxlite/config.hpp>
#include <hpxlite/threads/thread_pool.hpp>
#include <hpxlite/threads/topology.hpp>
#include <op2/fault.hpp>
#include <op2/set.hpp>

namespace op2::memory {

// --- machine topology ----------------------------------------------------

/// The probed NUMA topology (re-exported from hpxlite so op2 users and
/// the tuner's placement ladder see the same map the worker binding
/// uses). Single-node machines get the identity map; see
/// hpxlite/threads/topology.hpp for probe order and fallbacks.
using hpxlite::threads::topology;
using hpxlite::threads::topology_info;

/// The NUMA node of the core that pool worker `worker` binds to under
/// node-major binding (pool_options::bind_workers). This is the node a
/// partition owned by `worker` should place its pages on. Always 0 on
/// single-node machines, so callers can use it unconditionally.
[[nodiscard]] int worker_node(std::size_t worker) noexcept;

inline constexpr std::size_t cache_line = hpxlite::cache_line_size;

/// Round `n` up to a whole number of cache lines.
[[nodiscard]] constexpr std::size_t pad_to_line(std::size_t n) noexcept {
    return (n + cache_line - 1) & ~(cache_line - 1);
}

/// Cache-line-aligned byte storage: base aligned to 64, capacity padded
/// to whole lines (size() stays the logical byte count). Move-only owner;
/// the moved-from buffer is empty.
class aligned_buffer {
public:
    aligned_buffer() noexcept = default;
    explicit aligned_buffer(std::size_t bytes) : size_(bytes) {
        if (bytes != 0) {
            // Fault-injection point: an armed alloc=K plan makes the
            // K-th buffer allocation throw (dat declaration, checkpoint
            // snapshots). One relaxed load when off.
            fault::on_alloc(bytes);
            capacity_ = pad_to_line(bytes);
            data_ = static_cast<std::byte*>(
                ::operator new(capacity_, std::align_val_t{cache_line}));
        }
    }
    aligned_buffer(aligned_buffer&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)),
        capacity_(std::exchange(o.capacity_, 0)) {}
    aligned_buffer& operator=(aligned_buffer&& o) noexcept {
        if (this != &o) {
            destroy();
            data_ = std::exchange(o.data_, nullptr);
            size_ = std::exchange(o.size_, 0);
            capacity_ = std::exchange(o.capacity_, 0);
        }
        return *this;
    }
    aligned_buffer(aligned_buffer const&) = delete;
    aligned_buffer& operator=(aligned_buffer const&) = delete;
    ~aligned_buffer() { destroy(); }

    [[nodiscard]] std::byte* data() noexcept { return data_; }
    [[nodiscard]] std::byte const* data() const noexcept { return data_; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

private:
    void destroy() noexcept {
        if (data_ != nullptr) {
            ::operator delete(data_, std::align_val_t{cache_line});
        }
    }

    std::byte* data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
};

// --- partition-affine first touch ---------------------------------------

/// The byte range of a dat (element stride `stride`) that partition `p`
/// of `part` owns for touching purposes: its element range scaled to
/// bytes, then padded to cache lines. A line straddling the partition
/// boundary belongs to the *lower* partition (lo rounds up, hi rounds
/// up), so across p the ranges are disjoint, line-granular away from the
/// buffer ends, and cover [0, total) exactly. Every non-empty range
/// therefore starts 64-byte aligned except possibly range 0, which
/// starts at the (aligned) buffer base anyway.
struct touch_range {
    std::size_t lo = 0;
    std::size_t hi = 0;
    [[nodiscard]] std::size_t size() const noexcept { return hi - lo; }
};

[[nodiscard]] touch_range partition_touch_range(set_partition const& part,
                                                std::size_t p,
                                                std::size_t stride,
                                                std::size_t total);

/// Whether dats initialise their pages partition-affinely. Default comes
/// from the OP2HPX_FIRST_TOUCH environment variable (off unless set to
/// 1/on/true/yes); set_first_touch overrides it for the process. Off is
/// the seed behaviour (loader thread writes everything) and the oracle
/// the differential suites compare against.
[[nodiscard]] bool first_touch_enabled() noexcept;
void set_first_touch(bool on) noexcept;
/// Drop any set_first_touch override and follow the environment again
/// (tests and scoped toggles must not pin the process-wide policy).
void reset_first_touch() noexcept;

/// Scoped first-touch override: applies `on` for the guard's lifetime,
/// then restores the previous *effective* setting — exception-safe, so
/// a throwing dat declaration cannot leak the override.
class first_touch_scope {
public:
    explicit first_touch_scope(bool on) noexcept
      : prev_(first_touch_enabled()) {
        set_first_touch(on);
    }
    first_touch_scope(first_touch_scope const&) = delete;
    first_touch_scope& operator=(first_touch_scope const&) = delete;
    ~first_touch_scope() { set_first_touch(prev_); }

private:
    bool prev_;
};

/// Test hook: when set, first_touch_init records which pool worker
/// touched each partition (worker[p], -1 = never ran / ran inline) and
/// counts enqueued touch tasks, so a trace test can assert the pages
/// were written by their owners. `on_touch`, when set, is invoked by
/// each touch task (with its partition id) before it writes — the trace
/// test's rendezvous point, same blocker protocol as the placement
/// trace test in test_exec_backend.cpp.
struct first_touch_trace {
    std::atomic<std::size_t> enqueued{0};
    std::vector<long> worker;  // sized by first_touch_init
    std::function<void(std::size_t)> on_touch;
};
void set_first_touch_trace(first_touch_trace* t) noexcept;

/// Initialise `dst[0, total)` from `init` (or zeros when null) with one
/// task per partition of `part`, submitted through the pool's affinity
/// inbox of worker p % pool.size() — the same mapping the dataflow
/// placement hint uses — and wait for all of them. Pages are therefore
/// *written first* by the worker that will keep executing the
/// partition's loops. On multi-node machines each touch task
/// additionally advises the kernel (bind_range_to_node) to place the
/// partition's pages on the owning worker's node *before* writing, so
/// placement holds even when the touching thread migrated or binding is
/// off. Falls back to inline initialisation when called from a pool
/// worker (waiting for own-inbox tasks there would deadlock) or when
/// the set is empty.
void first_touch_init(std::byte* dst, void const* init, std::size_t total,
                      set_partition const& part, std::size_t stride,
                      hpxlite::threads::thread_pool& pool);

/// Copy `total` bytes from `src` to `dst` with one task per partition
/// of `part`, fanned through the pool's affinity inbox of worker
/// p % pool.size() — the mapping the dataflow placement hint uses — and
/// wait for all of them. Checkpoint snapshots and rollback restores go
/// through this, so a partition's snapshot bytes are read/written by
/// the worker that owns the partition's cache lines. Falls back to one
/// inline memcpy when called from a pool worker (waiting on own-inbox
/// tasks would deadlock) or when the set is empty.
void copy_partitions(std::byte* dst, std::byte const* src, std::size_t total,
                     set_partition const& part, std::size_t stride,
                     hpxlite::threads::thread_pool& pool);

/// Fire-and-forget cache re-warm after a dependency-table re-partition:
/// for each partition of the *new* granularity, submit a prefetch sweep
/// over its touch range to its owning worker. Prefetch-only (no C++
/// level loads), so it cannot race the loops about to run on the data.
/// `keepalive` pins the storage for the duration of the sweep.
void warm_partitions(std::byte const* base, std::size_t total,
                     set_partition const& part, std::size_t stride,
                     hpxlite::threads::thread_pool& pool,
                     std::shared_ptr<void> keepalive);

}  // namespace op2::memory
