#include <op2/set.hpp>

#include <op2/plan.hpp>

#include <atomic>
#include <stdexcept>

namespace op2 {

namespace detail {
std::uint64_t next_entity_id() noexcept {
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

set_impl::~set_impl() { plan_cache_drop_set(id); }

std::vector<std::size_t> partition_bounds(std::size_t size,
                                          std::size_t count) {
    std::vector<std::size_t> bounds(count + 1);
    for (std::size_t p = 0; p <= count; ++p) {
        bounds[p] = p * size / count;
    }
    return bounds;
}
}  // namespace detail

std::string const& op_set::name() const {
    if (!impl_) {
        throw std::logic_error("op_set: invalid handle");
    }
    return impl_->name;
}

std::shared_ptr<set_partition const> op_set::partition(
    std::size_t count) const {
    if (!impl_) {
        throw std::logic_error("op_set: invalid handle");
    }
    if (count == 0) {
        throw std::invalid_argument("op_set::partition: count must be > 0");
    }
    std::lock_guard<std::mutex> lk(impl_->part_mtx);
    for (auto const& p : impl_->part_cache) {
        if (p->count == count) {
            return p;
        }
    }
    auto part = std::make_shared<set_partition>();
    part->count = count;
    part->set_size = impl_->size;
    part->bounds = detail::partition_bounds(impl_->size, count);
    impl_->part_cache.push_back(part);
    return part;
}

op_set op_decl_set(std::size_t size, std::string name) {
    auto impl = std::make_shared<detail::set_impl>();
    impl->size = size;
    impl->name = std::move(name);
    impl->id = detail::next_entity_id();
    return op_set(std::move(impl));
}

}  // namespace op2
