#pragma once

// Memory layer for dat storage (and the checkpoint buffers built on the
// same allocation): aligned_buffer, the storage every dat allocates
// through. Its base is 64-byte (cache-line) aligned and its capacity is
// padded to a whole number of cache lines, so two dats never share a
// line.

#include <cstddef>
#include <new>
#include <utility>

#include <hpxlite/config.hpp>
#include <op2/fault.hpp>

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

}  // namespace op2::memory
