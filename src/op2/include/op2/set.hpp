#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace op2 {

/// A contiguous block partitioning of a set's index space [0, size) into
/// `count` near-equal ranges. This is the granularity of the dataflow
/// backend's dependency tracking: dats keep one dependency record per
/// partition, one per worker of the global pool, and a loop's colour
/// slices name the partitions they reach (op2/plan.hpp: plan_slicing).
/// Bounds derive deterministically from (size, count), so two sets of
/// equal size partitioned to the same count agree element-for-element.
struct set_partition {
    std::size_t count = 1;
    std::size_t set_size = 0;
    std::vector<std::size_t> bounds;  // [count + 1], bounds[p] = p*size/count

    [[nodiscard]] std::size_t begin(std::size_t p) const { return bounds[p]; }
    [[nodiscard]] std::size_t end(std::size_t p) const {
        return bounds[p + 1];
    }
    [[nodiscard]] std::size_t size_of(std::size_t p) const {
        return bounds[p + 1] - bounds[p];
    }

    /// Partition holding element `e`. The equal-split bounds make the
    /// arithmetic guess exact up to rounding; the fix-up walks at most
    /// one step.
    [[nodiscard]] std::size_t find(std::size_t e) const {
        std::size_t p = set_size == 0 ? 0 : e * count / set_size;
        if (p >= count) {
            p = count - 1;
        }
        while (e >= bounds[p + 1]) {
            ++p;
        }
        while (e < bounds[p]) {
            --p;
        }
        return p;
    }
};

namespace detail {

/// The deterministic bounds shared by every layer (see set_partition).
std::vector<std::size_t> partition_bounds(std::size_t size,
                                          std::size_t count);

struct set_impl {
    std::size_t size = 0;
    std::string name;
    std::uint64_t id = 0;

    // Cached partition descriptors, one per requested count. Loops reuse
    // the same handful of counts (pool size, an explicit option), so
    // this stays tiny.
    std::mutex part_mtx;
    std::vector<std::shared_ptr<set_partition const>> part_cache;

    /// The last handle is gone: drop the set's cached plans.
    ~set_impl();
};
std::uint64_t next_entity_id() noexcept;
}  // namespace detail

/// A set of mesh entities (nodes, edges, cells, ...). Value-semantic
/// handle; copies refer to the same underlying set.
class op_set {
public:
    op_set() = default;

    [[nodiscard]] bool valid() const noexcept { return impl_ != nullptr; }
    [[nodiscard]] std::size_t size() const noexcept {
        return impl_ ? impl_->size : 0;
    }
    [[nodiscard]] std::string const& name() const;
    [[nodiscard]] std::uint64_t id() const noexcept {
        return impl_ ? impl_->id : 0;
    }

    /// The set's block partition at `count` granularity (cached on the
    /// set per count, since a process can re-create its pool at another
    /// size; the returned descriptor is immutable and shared). Throws on
    /// an invalid handle or count == 0.
    [[nodiscard]] std::shared_ptr<set_partition const> partition(
        std::size_t count) const;

    friend bool operator==(op_set const& a, op_set const& b) noexcept {
        return a.impl_ == b.impl_;
    }

private:
    explicit op_set(std::shared_ptr<detail::set_impl> p) noexcept
      : impl_(std::move(p)) {}

    friend op_set op_decl_set(std::size_t, std::string);

    std::shared_ptr<detail::set_impl> impl_;
};

/// Declare a set with `size` elements (paper: op_decl_set(9, nodes, "nodes")).
op_set op_decl_set(std::size_t size, std::string name);

}  // namespace op2
