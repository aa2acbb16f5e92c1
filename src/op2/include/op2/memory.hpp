#pragma once

// Memory layer for dat storage (and the checkpoint buffers built on the
// same allocation):
//
//  * aligned_buffer — the storage every dat allocates through: the base
//    is 64-byte (cache-line) aligned and the capacity is padded to a
//    whole number of cache lines, so two dats never share a line.
//  * partition touch ranges and copy_partitions — checkpoint snapshots
//    and rollback restores copy a dat one set partition at a time on
//    worker p % pool_size, the worker the dataflow backend's placement
//    hint keeps sending partition p's sub-nodes to.
//    Touch ranges are padded to cache lines with a boundary-straddling
//    line owned by the lower partition, so no line is written by two
//    copy tasks.

#include <cstddef>
#include <new>
#include <utility>

#include <hpxlite/config.hpp>
#include <hpxlite/threads/thread_pool.hpp>
#include <op2/fault.hpp>
#include <op2/set.hpp>

namespace op2::memory {

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

// --- partition touch ranges ------------------------------------------

/// The byte range of a dat (element stride `stride`) that partition `p`
/// of `part` owns for copying purposes: its element range scaled to
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

}  // namespace op2::memory
