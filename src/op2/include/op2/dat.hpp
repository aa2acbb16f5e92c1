#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <op2/exec/dataflow.hpp>
#include <op2/memory.hpp>
#include <op2/set.hpp>

namespace op2 {

namespace detail {

struct dat_impl {
    op_set set;
    int dim = 0;
    std::size_t elem_bytes = 0;  // sizeof(T), per component
    std::string type_name;       // "double", "float", "int", ...
    std::string name;
    std::uint64_t id = 0;
    // The runtime_context this dat was declared under (the default
    // context for standalone programs). Keeps the context — and with it
    // the poison gate dep.poison_gate points at — alive for the dat's
    // lifetime, and lets the service layer find a job's dats among
    // all_dats() at fence/teardown.
    std::shared_ptr<runtime_context> ctx;
    // set.size() * dim * elem_bytes logical bytes, allocated through the
    // memory layer: 64-byte-aligned base, capacity padded to whole cache
    // lines (see op2/memory.hpp).
    memory::aligned_buffer data;

    // --- dataflow dependency tracking (hpx_dataflow backend) --------
    // Partition-granular epoch state instead of future chains: one
    // (last-writer, reader-set) record per partition of the dat's set,
    // plus a dat-level epoch counting issued writer loops. Records are
    // updated under their own locks when a loop is *issued* (issue
    // order defines program order, exactly like the futures threaded
    // through op_par_loop calls in Figures 9-11 of the paper) — see
    // op2/exec/dataflow.hpp for the invariants.
    // (mutable: dependency bookkeeping, orthogonal to the payload's
    // logical constness — loops holding const args still register reads)
    mutable exec::dep_state dep;
};

}  // namespace detail

/// Data associated with a set: `dim` components of a scalar type per set
/// element (paper: op_decl_dat(cells, 4, "double", q, "p_q")).
/// Value-semantic handle; copies alias the same storage.
class op_dat {
public:
    op_dat() = default;

    [[nodiscard]] bool valid() const noexcept { return impl_ != nullptr; }
    [[nodiscard]] op_set const& set() const { return impl_->set; }
    [[nodiscard]] int dim() const noexcept { return impl_ ? impl_->dim : 0; }
    [[nodiscard]] std::size_t elem_bytes() const noexcept {
        return impl_ ? impl_->elem_bytes : 0;
    }
    [[nodiscard]] std::string const& type_name() const { return impl_->type_name; }
    [[nodiscard]] std::string const& name() const { return impl_->name; }
    [[nodiscard]] std::uint64_t id() const noexcept {
        return impl_ ? impl_->id : 0;
    }

    /// Raw storage base pointer.
    [[nodiscard]] std::byte* raw() noexcept { return impl_->data.data(); }
    [[nodiscard]] std::byte const* raw() const noexcept {
        return impl_->data.data();
    }

    /// Typed view over the whole storage (size = set.size() * dim).
    /// Throws when sizeof(T) does not match the declared element size.
    template <typename T>
    [[nodiscard]] std::span<T> view() {
        check_type<T>();
        return {reinterpret_cast<T*>(impl_->data.data()),
                impl_->data.size() / sizeof(T)};
    }

    template <typename T>
    [[nodiscard]] std::span<T const> view() const {
        check_type<T>();
        return {reinterpret_cast<T const*>(impl_->data.data()),
                impl_->data.size() / sizeof(T)};
    }

    friend bool operator==(op_dat const& a, op_dat const& b) noexcept {
        return a.impl_ == b.impl_;
    }

    /// True while any element range of this dat is quarantined (a loop
    /// writing it failed; readers fail fast until the quarantine lifts).
    [[nodiscard]] bool quarantined() const {
        return impl_ != nullptr && impl_->dep.poison_count() != 0;
    }

    /// Lift this dat's quarantine: drain its in-flight loops, drop the
    /// poison spans, and prune the failed nodes from its dependency
    /// records so later loops neither fail fast nor inherit the old
    /// error. The caller asserts the contents are good again (e.g.
    /// after rewriting them out-of-band); compare exec::checkpoint
    /// rollback, which restores contents too. No-op on invalid handles.
    void clear_quarantine();

    /// Internal: dependency/bookkeeping access for the backends.
    [[nodiscard]] detail::dat_impl& internal() { return *impl_; }
    [[nodiscard]] detail::dat_impl const& internal() const { return *impl_; }

private:
    template <typename T>
    void check_type() const {
        if (!impl_) {
            throw std::logic_error("op_dat: invalid handle");
        }
        if (sizeof(T) != impl_->elem_bytes) {
            throw std::invalid_argument(
                "op_dat '" + impl_->name + "': element size mismatch (dat is " +
                impl_->type_name + ")");
        }
    }

    explicit op_dat(std::shared_ptr<detail::dat_impl> p) noexcept
      : impl_(std::move(p)) {}

    friend op_dat detail_make_dat(std::shared_ptr<detail::dat_impl>);

    std::shared_ptr<detail::dat_impl> impl_;
};

/// Internal factory (friend of op_dat); not part of the public API.
op_dat detail_make_dat(std::shared_ptr<detail::dat_impl> p);

namespace detail {
op_dat make_dat(op_set s, int dim, std::size_t elem_bytes,
                std::string_view type, void const* init, std::string name);

/// Snapshot of every live dat (used by op_fence_all).
std::vector<std::shared_ptr<dat_impl>> all_dats();

/// Wait for every node `di`'s dependency records still track (writers
/// and readers). The one per-dat fence behind op_fence, op_fence_all,
/// op_dat::clear_quarantine and the service layer's per-job fence.
void fence_dat(dat_impl& di);
}  // namespace detail

/// Declare data on a set. `data` must contain set.size()*dim values.
/// `type` is the OP2 type string ("double", "float", "int"), retained for
/// argument validation and code generation.
template <typename T>
op_dat op_decl_dat(op_set s, int dim, std::string_view type,
                   std::vector<T> const& data, std::string name) {
    if (dim <= 0) {
        throw std::invalid_argument("op_decl_dat '" + name +
                                    "': dim must be positive");
    }
    if (data.size() != s.size() * static_cast<std::size_t>(dim)) {
        throw std::invalid_argument(
            "op_decl_dat '" + name + "': expected " +
            std::to_string(s.size() * static_cast<std::size_t>(dim)) +
            " values, got " + std::to_string(data.size()));
    }
    return detail::make_dat(std::move(s), dim, sizeof(T), type, data.data(),
                            std::move(name));
}

/// Declare uninitialised (zero-filled) data on a set.
template <typename T>
op_dat op_decl_dat_zero(op_set s, int dim, std::string_view type,
                        std::string name) {
    std::vector<T> zeros(s.size() * static_cast<std::size_t>(dim), T{});
    return op_decl_dat<T>(std::move(s), dim, type, zeros, std::move(name));
}

}  // namespace op2
